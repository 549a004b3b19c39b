"""Sensor-fault-tolerant reconfiguration for interconnected power systems.

The package simulates interconnected third-order generator models under
sensor faults, estimates states with adaptive chain-form observers, and
restores observability after a fault either by a virtual sensor or by
merging the faulty subsystem with neighbours selected through a Gramian
based cost.
"""

from .power_model import (
    GeneratorParams,
    NetworkModel,
    OperatingPoint,
    LinearizedPlant,
    PlantModel,
    EquilibriumError,
    currents,
    derivatives,
    verify_equilibrium,
    linearize,
    construct_equilibrium,
    load_plant,
    save_plant,
)
from .observability import (
    StateSpace,
    ZeroPattern,
    CostReport,
    CascadeReason,
    UnstableSystemError,
    kalman_rank,
    structurally_observable,
    cascade_observable,
    obs_gramian,
    ctrl_gramian,
    hf_norm_sq,
    cost_J,
)
from .observer import (
    ChainForm,
    to_chain_form,
    chain_rk4,
    gain_law,
    interaction_bound_estimate,
)
from .reconfig import (
    FaultEvent,
    AugmentedSystem,
    ReconfigPlan,
    default_P,
    virtual_sensor,
    augment,
    rftc_select,
)

__version__ = "0.1.0"
