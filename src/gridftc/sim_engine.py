"""Closed-loop simulation of sensor faults and observer-based recovery.

One fixed RK4 grid advances four things in lockstep: the nonlinear
multi-machine plant, a bank of per-subsystem adaptive chain observers,
per-subsystem state feedback, and the fault/diagnosis/reconfiguration
timeline.  Runs are bitwise deterministic for a fixed scenario and seed.

The feedback is the scenario's gain matrix acting on the estimates, so the
nominal controller stays in the loop and never sees the fault; a scenario
without gains runs with no feedback (field voltages held at ``Ef0``).

Measurement convention
----------------------
Sensors report absolute rotor angles; the loop works in deviation
coordinates, so every consumed measurement is the absolute reading minus
the operating-point reference.  A healthy sensor thus yields the angle
deviation exactly, while :func:`measure` applies the fault transforms to
the absolute signal:

* ``gain``       -- the reading is scaled, which injects the constant bias
  ``(factor - 1) * reference`` on top of a scaled deviation;
* ``stuck``      -- the reading freezes at the fault's ``stuck_value`` when
  one is given (an absolute reading), else at its last pre-fault value;
* ``total-loss`` -- the wire goes dead and the reading drops to zero, an
  effective bias of minus the reference.

These biases are what make the diagnosis delay visible in the state traces.

Reconfiguration at the diagnosis instant
----------------------------------------
When a fault is diagnosed (``t_fault + fdi_delay``, aligned to the next grid
point) the engine asks :func:`gridftc.reconfig.rftc_select` for a plan:

* virtual sensor -- the faulty subsystem's observer keeps running on the
  corrected measurement ``(reading - factor * reference) / factor``, which
  equals the true deviation while the modeled gain factor is exact.  This
  is :func:`gridftc.reconfig.virtual_sensor` with ``P = 1 / factor``, not
  with the plan's ``P``: that one zeroes the faulty row, so the formal
  reconstruction returns ``C x_hat`` and its innovation is zero.
* augmentation -- a merged chain observer over the chosen subsystem set is
  started from the current member estimates (gain restarted at 1) and the
  dead sensor is switched off.  The merged estimate replaces the faulty
  member's logged state estimate, while that machine's field input is held
  at its equilibrium feedforward: a freshly restarted chain is a slow
  filter, and closing the field loop through it is the switching hazard
  with no stability guarantee.  Healthy members keep their own nominal
  observers and controllers throughout.
* unrecoverable -- nothing is switched; the run continues on the faulty
  feedback and the report carries the verdict.

Trajectory columns log the signal each subsystem's observer actually
consumed; after a dead sensor is switched off, that column reverts to the
raw (dead) deviation reading, which no observer uses from then on.

Engine: event segments and state-major layout
---------------------------------------------
:func:`run_scenario` turns the fault timeline into a sorted list of event
steps (activations before diagnoses at one step) and runs one fixed kernel,
``_Engine.advance``, on the rows between them; only the events change the
configuration (active faults, virtual-sensor gains, frozen nominal
observers, the merged observer), and :func:`measure` runs only while a fault
is active.  The plant state and the nominal bank's chain states are
state-major, (3, n), so each component is one contiguous row, and both RK4
steps sum their stages in place; the logs keep the (rows, n, 3) layout.
The kernel calls the plant right-hand side and the chain-observer step
through this module's globals ``_rhs_core`` and ``_rk4_chain`` (a 2-D state
is the nominal bank, a 1-D state the merged observer), where the
``perfbench`` tracer hooks them.

Divergence verdict
------------------
Segments also end every ``DIVERGENCE_CHECK_STEPS`` rows.  After each one,
the rows just logged are checked: every state and estimate finite and every
angle deviation at most pi in magnitude.  The first row that fails gets a
``diverged`` marker, the run ends with the log cut after that row and the
log and report carry ``diverged``; ``gridftc run`` then exits with code 3.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import block_diag

from .observability import StateSpace
from .observer import (
    DEFAULT_L_MAX,
    chain_rk4 as _rk4_chain,
    gain_law,
    shaping_coefficients,
    to_chain_form,
)
from .power_model import (
    N_STATES,
    PlantModel,
    _rhs_constants,
    _rhs_core,
    load_plant,
)
from .reconfig import (
    MODE_AUGMENTATION,
    MODE_UNRECOVERABLE,
    MODE_VIRTUAL_SENSOR,
    FaultEvent,
    ReconfigPlan,
    fault_output_map,
    rftc_select,
)

DEFAULT_SETTLING_WINDOW = 10.0
# The files a run writes, by key; a scenario's ``outputs`` renames some.
DEFAULT_OUTPUTS = {"trajectory": "trajectory.csv", "events": "events.json",
                   "report": "report.json"}
# Rows between two divergence checks; event steps also end a checked segment.
DIVERGENCE_CHECK_STEPS = 1000


class ScenarioError(ValueError):
    """Scenario validation failure; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


def _number(field_name: str, value) -> float:
    """``value`` as a float, else a :class:`ScenarioError` naming the field."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(field_name,
                            f"must be a number, got {value!r}") from exc


@dataclass(frozen=True)
class ObserverConfig:
    """Observer settings shared by the whole bank.

    ``l_mode`` selects the gain-law normalization: ``"self"`` divides the
    squared innovation by the current gain, ``"constant"`` by ``l_value``
    squared.  ``initial_offset`` is added to every physical estimate
    component at t = 0.
    """

    l_mode: str = "self"
    l_value: Optional[float] = None
    L_max: float = DEFAULT_L_MAX
    initial_offset: float = 0.0

    def __post_init__(self):
        if self.l_mode not in ("self", "constant"):
            raise ScenarioError("observer.l_mode",
                                f"must be 'self' or 'constant', got {self.l_mode!r}")
        if self.l_mode == "constant":
            if self.l_value is None or not self.l_value > 0:
                raise ScenarioError("observer.l_value",
                                    "constant mode needs a positive l_value")
        if not self.L_max >= 1.0:
            raise ScenarioError("observer.L_max", "must be at least 1")


@dataclass(frozen=True)
class ControllerConfig:
    """Per-subsystem state feedback ``u_i = Ef0_i - gains[i] @ xhat_i``.

    ``gains`` has one row of three gains per subsystem.  Without gains
    there is no feedback: every field voltage stays at its equilibrium
    ``Ef0``.
    """

    gains: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.gains is not None:
            try:
                g = np.asarray(self.gains, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ScenarioError("controller.gains",
                                    "must be rows of numbers") from exc
            if g.ndim != 2 or g.shape[1] != N_STATES:
                raise ScenarioError("controller.gains",
                                    f"expected shape (n_subsystems, {N_STATES})")
            object.__setattr__(self, "gains", g)


@dataclass
class Scenario:
    """Everything one deterministic run needs, as loaded from JSON."""

    plant: PlantModel
    horizon: float
    dt: float
    faults: tuple = ()
    observer: ObserverConfig = field(default_factory=ObserverConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    alpha: float = 100.0
    xi: float = 50.0
    j_max: Optional[float] = None
    noise_amplitude: float = 0.0
    settling_window: float = DEFAULT_SETTLING_WINDOW
    reconfigure: bool = True
    name: str = "scenario"
    plant_ref: Optional[str] = None
    outputs: dict = field(default_factory=lambda: dict(DEFAULT_OUTPUTS))

    def validate(self) -> None:
        if not self.dt > 0:
            raise ScenarioError("dt", f"must be positive, got {self.dt}")
        if not self.horizon > 0:
            raise ScenarioError("horizon", f"must be positive, got {self.horizon}")
        if not self.settling_window >= 0:
            raise ScenarioError("settling_window", "must be nonnegative")
        if self.noise_amplitude < 0:
            raise ScenarioError("noise_amplitude", "must be nonnegative")
        if not (self.alpha >= 0 and self.xi >= 0):
            raise ScenarioError("weights", "alpha and xi must be nonnegative")
        if self.j_max is not None and not self.j_max > 0:
            raise ScenarioError("j_max", "must be positive when given")
        n = self.plant.n
        last = -math.inf
        merged_id = None    # subsystem whose dead sensor needs the merged observer
        for i, f in enumerate(self.faults):
            if not isinstance(f, FaultEvent):
                raise ScenarioError(f"faults[{i}]", "not a fault event")
            if f.t_fault < last:
                raise ScenarioError("faults", "fault events must be time-ordered")
            last = f.t_fault
            if not 1 <= f.subsystem <= n:
                raise ScenarioError(f"faults[{i}].subsystem",
                                    f"subsystem {f.subsystem} outside 1..{n}")
            if self.reconfigure and f.kind != "gain":
                # The engine runs one merged observer; a second one would
                # replace it and freeze the first faulty machine's estimate.
                if merged_id not in (None, f.subsystem):
                    raise ScenarioError(
                        f"faults[{i}]",
                        f"a {f.kind} fault on subsystem {f.subsystem} after "
                        f"one on subsystem {merged_id} needs a second merged "
                        "observer, which the engine does not support")
                merged_id = f.subsystem
        if self.faults:
            need = max(f.t_fault for f in self.faults) + self.settling_window
            if self.horizon < need:
                raise ScenarioError(
                    "horizon",
                    f"{self.horizon} is below the last fault time plus the "
                    f"settling window ({need})")
        if (self.controller.gains is not None
                and self.controller.gains.shape[0] != n):
            raise ScenarioError("controller.gains",
                                f"{self.controller.gains.shape[0]} rows for "
                                f"{n} subsystems")

    @classmethod
    def from_dict(cls, d: dict, base_dir=None) -> "Scenario":
        """Build and validate a scenario from its JSON object.

        Fields (an unknown field or sub-key, a sub-object that is not an
        object and a value of the wrong type raise :class:`ScenarioError`
        naming it):

        * ``plant`` (required) -- a plant JSON file, relative to
          ``base_dir`` unless absolute, or the inline object that
          ``PlantModel.from_dict`` reads: ``generators``, ``network``
          (``G``, ``B``), ``operating_point`` (``delta0``, ``Eq_prime0``,
          ``Ef0``) and an optional ``name``.
        * ``horizon``, ``dt`` (required) -- run length and grid step, s.
        * ``faults`` -- time-ordered fault events, default none; each has
          ``t_fault``, ``subsystem`` (1-based), ``kind`` (``gain``,
          ``stuck`` or ``total-loss``) and ``fdi_delay``, plus
          ``sensor_row`` (default 0), ``factor`` (gain faults only,
          required there) and ``stuck_value`` (default: hold the last
          reading).
        * ``observer`` -- ``l_mode`` (``"self"`` or ``"constant"``, default
          ``"self"``), ``l_value`` (required and positive in constant mode),
          ``L_max`` (default ``DEFAULT_L_MAX``) and ``initial_offset``
          (default 0).
        * ``controller`` -- ``gains``, one row of three per subsystem;
          without it there is no feedback.
        * ``weights`` -- the search's cost weights ``alpha`` (default 100)
          and ``xi`` (default 50).
        * ``j_max`` -- the cost cap, default null (no cap).
        * ``noise_amplitude`` -- half-width of the uniform noise on every
          angle reading, default 0.
        * ``settling_window`` -- s, default ``DEFAULT_SETTLING_WINDOW``.
        * ``reconfigure`` -- run the diagnoses and their plans, default
          true.
        * ``name`` -- default ``"scenario"``.
        * ``outputs`` -- file names by key (``trajectory``, ``events``,
          ``report``), each defaulting to ``DEFAULT_OUTPUTS``.
        """
        known = {"name", "plant", "horizon", "dt", "faults", "observer",
                 "controller", "weights", "j_max", "noise_amplitude",
                 "settling_window", "reconfigure", "outputs"}
        for key in d:
            if key not in known:
                raise ScenarioError(key, "unknown scenario field")
        for req in ("plant", "horizon", "dt"):
            if req not in d:
                raise ScenarioError(req, "required scenario field is missing")

        plant_spec = d["plant"]
        plant_ref = None
        if isinstance(plant_spec, str):
            plant_ref = plant_spec
            path = Path(plant_spec)
            if not path.is_absolute() and base_dir is not None:
                path = Path(base_dir) / path
            if not path.exists():
                raise ScenarioError("plant", f"plant file not found: {path}")
            plant = load_plant(path)
        elif isinstance(plant_spec, dict):
            try:
                plant = PlantModel.from_dict(plant_spec)
            except (ValueError, KeyError) as exc:
                raise ScenarioError("plant", str(exc)) from exc
        else:
            raise ScenarioError("plant", "must be a file path or an inline object")

        try:
            faults = tuple(FaultEvent.from_dict(f) for f in d.get("faults", ()))
        except (ValueError, TypeError) as exc:
            raise ScenarioError("faults", str(exc)) from exc

        sub = {}
        for key, allowed in (
                ("observer", ("l_mode", "l_value", "L_max", "initial_offset")),
                ("controller", ("gains",)), ("weights", ("alpha", "xi")),
                ("outputs", DEFAULT_OUTPUTS)):
            sub[key] = d.get(key, {})
            if not isinstance(sub[key], dict):
                raise ScenarioError(key, "must be an object")
            for name in sub[key]:
                if name not in allowed:
                    raise ScenarioError(f"{key}.{name}",
                                        f"unknown {key} field")
        for key, name in sub["outputs"].items():
            if not isinstance(name, str) or not name:
                raise ScenarioError(f"outputs.{key}", "must be a file name")
        if not isinstance(d.get("reconfigure", True), bool):
            raise ScenarioError("reconfigure", "must be true or false")
        observer = dict(sub["observer"])
        for name in ("l_value", "L_max", "initial_offset"):
            if observer.get(name) is not None:
                observer[name] = _number(f"observer.{name}", observer[name])

        scn = cls(
            plant=plant,
            horizon=_number("horizon", d["horizon"]),
            dt=_number("dt", d["dt"]),
            faults=faults,
            observer=ObserverConfig(**observer),
            controller=ControllerConfig(**sub["controller"]),
            alpha=_number("weights.alpha", sub["weights"].get("alpha", 100.0)),
            xi=_number("weights.xi", sub["weights"].get("xi", 50.0)),
            j_max=None if d.get("j_max") is None
            else _number("j_max", d["j_max"]),
            noise_amplitude=_number("noise_amplitude",
                                    d.get("noise_amplitude", 0.0)),
            settling_window=_number("settling_window", d.get(
                "settling_window", DEFAULT_SETTLING_WINDOW)),
            reconfigure=d.get("reconfigure", True),
            name=str(d.get("name", "scenario")),
            plant_ref=plant_ref,
            outputs={**DEFAULT_OUTPUTS, **sub["outputs"]},
        )
        scn.validate()
        return scn

    def to_dict(self) -> dict:
        obs = self.observer
        gains = self.controller.gains
        return {
            "name": self.name,
            "plant": self.plant_ref if self.plant_ref is not None
            else self.plant.to_dict(),
            "horizon": self.horizon,
            "dt": self.dt,
            "faults": [f.to_dict() for f in self.faults],
            "observer": {"l_mode": obs.l_mode, "l_value": obs.l_value,
                         "L_max": obs.L_max,
                         "initial_offset": obs.initial_offset},
            "controller": {} if gains is None else {"gains": gains.tolist()},
            "weights": {"alpha": self.alpha, "xi": self.xi},
            "j_max": self.j_max,
            "noise_amplitude": self.noise_amplitude,
            "settling_window": self.settling_window,
            "reconfigure": self.reconfigure,
            "outputs": dict(self.outputs),
        }


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file."""
    path = Path(path)
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError("file", f"not valid JSON: {exc}") from exc
    return Scenario.from_dict(d, base_dir=path.parent)


@dataclass(frozen=True)
class EventMarker:
    """A timeline annotation: fault activation or diagnosis outcome."""

    t: float
    step: int
    kind: str       # "fault" | "fdi" | "diverged"
    subsystem: int
    label: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"t": self.t, "step": self.step, "kind": self.kind,
                "subsystem": self.subsystem, "label": self.label,
                "detail": self.detail}


@dataclass
class TrajectoryLog:
    """Dense per-step record of one run plus sparse diagnostics.

    ``x`` and ``xhat`` are (steps, n, 3) deviation states (estimates in
    physical coordinates); ``y_meas`` is the raw post-fault deviation
    reading and ``y_used`` the signal the active observer consumed.
    ``interactions`` and ``chain_true`` are strided samples supporting the
    interaction-bound diagnostic.  ``diverged`` is set when the divergence
    check ended the run early (the log then ends at the row that tripped it).
    """

    scenario_name: str
    t: np.ndarray
    x: np.ndarray
    xhat: np.ndarray
    y_meas: np.ndarray
    y_used: np.ndarray
    L: np.ndarray
    events: list = field(default_factory=list)
    plans: list = field(default_factory=list)        # (t, ReconfigPlan)
    interactions: Optional[np.ndarray] = None
    chain_true: Optional[np.ndarray] = None
    diag_stride: int = 1
    unrecoverable: bool = False
    diverged: bool = False

    @property
    def n_subsystems(self) -> int:
        return self.x.shape[1]


@dataclass
class RunReport:
    """Operator-facing summary of one run."""

    scenario: str
    wall_time_s: Optional[float]
    events: list
    recovery: list
    interaction_bounds: list
    outputs: dict
    unrecoverable: bool
    diverged: bool = False

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "wall_time_s": self.wall_time_s,
            "events": self.events,
            "recovery": self.recovery,
            "interaction_bounds": self.interaction_bounds,
            "outputs": self.outputs,
            "unrecoverable": self.unrecoverable,
            "diverged": self.diverged,
        }


def measure(readings, active: Sequence[tuple] = ()) -> np.ndarray:
    """Absolute sensor readings as the faulty sensors report them.

    ``readings`` holds the healthy absolute angle reading of every
    subsystem and ``active`` the active faults as ``(FaultEvent, held)``
    pairs, applied in order: a gain fault scales the reading, a stuck fault
    replaces it with ``held`` and a total loss reads 0.  A gain fault listed
    twice scales twice.  Returns a new array.
    """
    y = np.array(readings, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"readings shape {y.shape} is not one reading per "
                         "subsystem")
    for f, held in active:
        i = f.subsystem - 1
        if f.kind == "gain":
            y[i] *= f.factor
        elif f.kind == "stuck":
            y[i] = held
        else:  # total-loss
            y[i] = 0.0
    return y


def _grid_index(t: float, dt: float) -> int:
    """First grid index with k*dt >= t, tolerating float representation."""
    ratio = t / dt
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-9 * max(1.0, abs(ratio)):
        return int(nearest)
    return int(math.ceil(ratio))


class _MergedObserver:
    """Runtime state of the augmented-set chain observer of ``plan``,
    started from the members' rows of the (n, 3) estimates ``xhat``.

    Its members are the plan's ``augment_set``, the faulty machine first, so
    that machine's estimate is the first three chain-decoded states.  The
    faulty member's dead sensor rows carry no output weight.  The gain
    adaptation restarts at L = 1.
    """

    def __init__(self, plan: ReconfigPlan, xhat: np.ndarray):
        self.idx = np.array(plan.augment_set) - 1
        self.chain = plan.chain
        self.weights = plan.output_weights
        n = self.chain.n
        self.coeffs = shaping_coefficients(n)
        self.powers = np.arange(1, n + 1, dtype=float)
        self.z = self.chain.T @ xhat[self.idx].ravel()
        self.L = 1.0

    def step(self, y_used: np.ndarray, u_dev: np.ndarray, dt: float,
             L_max: float, l_value: Optional[float]) -> None:
        """Advance the estimate and the gain one grid step."""
        y = float(self.weights @ y_used[self.idx])
        uch = self.chain.input_chain @ u_dev[self.idx]
        g = self.coeffs * self.L ** self.powers
        e1 = y - self.z[0]
        self.z = _rk4_chain(self.z, y, g, uch, dt)
        self.L = gain_law(self.L, e1, dt, L_max, l_value)

    def estimates(self) -> np.ndarray:
        return self.chain.T_inv @ self.z


def _timeline(scn: Scenario, n_steps: int) -> list:
    """The run's events as sorted ``(step, phase, fault index)`` triples.

    Phase 0 activates a fault and phase 1 diagnoses it (only when the
    scenario reconfigures), so at one grid step the activations come first,
    each phase in fault order.  Events past the last row never happen.
    """
    events = []
    for i, f in enumerate(scn.faults):
        events.append((_grid_index(f.t_fault, scn.dt), 0, i))
        if scn.reconfigure:
            events.append((_grid_index(f.t_fault + f.fdi_delay, scn.dt), 1, i))
    return sorted(e for e in events if e[0] <= n_steps)


class _Engine:
    """One run: its constants, its dense log and the small state that the
    step kernel :meth:`advance` carries from row to row.

    ``x`` (plant deviations) and ``Z`` (nominal chain states) are
    state-major, (3, n); ``Lg`` holds the nominal gains and ``y_abs`` the
    last absolute readings, from which a stuck sensor holds.  Between two
    events the rest is fixed: ``active`` lists the active faults as
    ``(FaultEvent, held)`` pairs, ``vs_gain`` maps a 0-based subsystem to
    its virtual-sensor gain, ``frozen`` masks the subsystems whose nominal
    observer is switched off and ``merged`` is the augmented-set observer.
    """

    def __init__(self, scn: Scenario, seed: int):
        plant = scn.plant
        n = self.n = plant.n
        self.scn = scn
        self.dt = scn.dt
        self.n_steps = int(round(scn.horizon / scn.dt))
        self.lin = lin = plant.linearize()
        self.rhs_k = _rhs_constants(plant.generators, plant.op, plant.network)
        self.y_ref = plant.op.delta0
        self.u0 = plant.op.Ef0
        gains = scn.controller.gains
        self.K = np.zeros((n, N_STATES)) if gains is None else gains

        # nominal observer bank in chain coordinates, chain axis first
        chains = [to_chain_form(StateSpace(lin.A[i],
                                           lin.Bsub[i].reshape(N_STATES, 1),
                                           lin.Csub[i]))
                  for i in range(n)]
        self.Tn = np.stack([c.T for c in chains])
        self.Tn_inv = np.stack([c.T_inv for c in chains])
        self.ICn = np.stack([c.input_chain.ravel() for c in chains], axis=1)
        self.coeffs = shaping_coefficients(N_STATES)[:, None]
        self.powers = np.arange(1, N_STATES + 1, dtype=float)[:, None]
        xhat0 = np.full((n, N_STATES), scn.observer.initial_offset)
        self.Z = np.ascontiguousarray(
            np.einsum("nij,nj->ni", self.Tn, xhat0).T)
        self.Lg = np.ones(n)
        self.L_max = scn.observer.L_max
        self.l_const = (scn.observer.l_value
                        if scn.observer.l_mode == "constant" else None)

        self.x = np.zeros((N_STATES, n))
        self.y_abs = self.y_ref.copy()
        self.rng = np.random.default_rng(seed)
        self.active: list = []
        self.vs_gain: dict = {}
        self.frozen = np.zeros(n, dtype=bool)
        self.merged: Optional[_MergedObserver] = None

        rows = self.n_steps + 1
        self.log_x = np.empty((rows, n, N_STATES))
        self.log_xhat = np.empty((rows, n, N_STATES))
        self.log_ymeas = np.empty((rows, n))
        self.log_yused = np.empty((rows, n))
        self.log_L = np.empty((rows, n))
        self.events: list = []
        self.plans: list = []
        self.unrecoverable = False
        self.diverged = False

    def advance(self, k0: int, k_end: int) -> None:
        """Log rows ``k0 .. k_end - 1`` and integrate from each of them to
        the next (the run's last row is only logged), in the configuration
        set by the events so far.

        ``measure`` runs only while a fault is active.  The plant and the
        bank go through the module globals ``_rhs_core`` and ``_rk4_chain``
        and the RK4 stages of the plant are summed in place, in the order
        ``x + (dt/6) ((k1 + 2 (k2 + k3)) + k4)``.
        """
        dt, last, n = self.dt, self.n_steps, self.n
        half, sixth = 0.5 * dt, dt / 6.0
        x, Z, Lg, y_abs = self.x, self.Z, self.Lg, self.y_abs
        y_ref, u0, K, Tn_inv = self.y_ref, self.u0, self.K, self.Tn_inv
        coeffs, powers, ICn = self.coeffs, self.powers, self.ICn
        rhs_k, L_max, l_const = self.rhs_k, self.L_max, self.l_const
        noise_amp, rng = self.scn.noise_amplitude, self.rng
        active, merged = self.active, self.merged
        frozen = self.frozen if self.frozen.any() else None
        vs_idx = None
        if self.vs_gain:
            vs_idx = np.array(sorted(self.vs_gain))
            vs_f = np.array([self.vs_gain[i] for i in vs_idx])
            vs_fy = vs_f * y_ref[vs_idx]
        if merged is not None:
            fid = merged.idx[0]
        log_x, log_xhat, log_L = self.log_x, self.log_xhat, self.log_L
        log_ymeas, log_yused = self.log_ymeas, self.log_yused

        for k in range(k0, k_end):
            # --- measurement and estimates at the step start -----------------
            y_abs = y_ref + x[0]
            if noise_amp > 0.0:
                y_abs += noise_amp * (2.0 * rng.random(n) - 1.0)
            if active:
                y_abs = measure(y_abs, active)
            y_dev = y_abs - y_ref
            y_used = y_dev
            if vs_idx is not None:
                y_used = y_dev.copy()
                y_used[vs_idx] = (y_abs[vs_idx] - vs_fy) / vs_f
            xhat = (Tn_inv @ Z.T[..., None])[..., 0]
            log_L[k] = Lg
            if merged is not None:
                xhat[fid] = merged.estimates()[:N_STATES]
                log_L[k, fid] = merged.L
            log_x[k] = x.T
            log_xhat[k] = xhat
            log_ymeas[k] = y_dev
            log_yused[k] = y_used
            if k == last:
                break

            # --- controller ----------------------------------------------------
            u_dev = -(K * xhat).sum(1)
            if merged is not None:
                # A freshly built merged chain restarts gain adaptation from
                # L = 1 and is far too slow a filter to close the faulty
                # machine's field loop through; that is exactly the
                # switching hazard with no stability guarantee.  During
                # augmented operation the faulty machine runs on its
                # scheduled equilibrium field while estimation is rebuilt
                # through the healthy member's sensor.
                u_dev[fid] = 0.0
            u_abs = u0 + u_dev

            # --- observers (innovation sampled at the step start) --------------
            e1 = y_used - Z[0]
            Z_next = _rk4_chain(Z, y_used, coeffs * Lg ** powers, ICn * u_dev,
                                dt)
            Lg_next = gain_law(Lg, e1, dt, L_max, l_const)
            if frozen is not None:
                np.copyto(Z_next, Z, where=frozen)
                np.copyto(Lg_next, Lg, where=frozen)
            Z, Lg = Z_next, Lg_next
            if merged is not None:
                merged.step(y_used, u_dev, dt, L_max, l_const)

            # --- plant -----------------------------------------------------------
            k1 = _rhs_core(x, u_abs, rhs_k)
            s = k1 * half
            s += x
            k2 = _rhs_core(s, u_abs, rhs_k)
            np.multiply(k2, half, out=s)
            s += x
            k3 = _rhs_core(s, u_abs, rhs_k)
            np.multiply(k3, dt, out=s)
            s += x
            k4 = _rhs_core(s, u_abs, rhs_k)
            k2 += k3
            k2 *= 2.0
            k2 += k1
            k2 += k4
            k2 *= sixth
            x += k2
        self.Z, self.Lg, self.y_abs = Z, Lg, y_abs

    def check(self, k0: int, k_end: int) -> bool:
        """Divergence verdict on rows ``k0 .. k_end - 1``.

        A row diverges when a state or logged estimate is not finite or an
        angle deviation exceeds pi in magnitude.  The first such row gets a
        ``diverged`` marker, the run's flag is set and its step is returned;
        None means every row passed.
        """
        x = self.log_x[k0:k_end]
        finite = (np.isfinite(x).all(axis=2)
                  & np.isfinite(self.log_xhat[k0:k_end]).all(axis=2))
        ok = finite & (np.abs(x[..., 0]) <= math.pi)
        if ok.all():
            return None
        r, i = np.argwhere(~ok)[0]
        k = k0 + int(r)
        reason = (f"angle deviation {x[r, i, 0]:.6g} rad exceeds pi"
                  if finite[r, i] else "non-finite state or estimate")
        self.events.append(EventMarker(
            t=k * self.dt, step=k, kind="diverged", subsystem=int(i) + 1,
            label=f"diverged:sub{int(i) + 1}", detail={"reason": reason}))
        self.diverged = True
        return k

    def activate(self, f: FaultEvent, k: int) -> None:
        """Fault ``f`` starts at step ``k``; a stuck sensor without its own
        value holds the reading of the step before."""
        held = (self.y_abs[f.subsystem - 1] if f.stuck_value is None
                else f.stuck_value)
        self.active.append((f, held))
        self.events.append(EventMarker(
            t=k * self.dt, step=k, kind="fault", subsystem=f.subsystem,
            label=f"fault:sub{f.subsystem}:{f.kind}", detail=f.to_dict()))

    def diagnose(self, f: FaultEvent, k: int) -> None:
        """Fault ``f`` is diagnosed at step ``k``: plan and switch."""
        scn, lin = self.scn, self.lin
        sid = f.subsystem
        others = tuple({g.subsystem for g, _ in self.active} - {sid})
        plan = rftc_select(
            sid, lin, scn.alpha, scn.xi,
            faulty_C=fault_output_map(f, lin.Csub[sid - 1]),
            j_max=scn.j_max if scn.j_max is not None else math.inf,
            excluded_ids=others)
        t = k * self.dt
        self.plans.append((t, plan))
        detail = {"mode": plan.mode, "J": plan.J,
                  "augment_set": list(plan.augment_set)
                  if plan.augment_set else None}
        self.events.append(EventMarker(
            t=t, step=k, kind="fdi", subsystem=sid,
            label=f"fdi:sub{sid}:{plan.mode}", detail=detail))
        if plan.mode == MODE_VIRTUAL_SENSOR:
            self.vs_gain[sid - 1] = f.factor
        elif plan.mode == MODE_AUGMENTATION:
            xh_now = (self.Tn_inv @ self.Z.T[..., None])[..., 0]
            if self.merged is not None:
                xh_now[self.merged.idx] = self.merged.estimates().reshape(
                    -1, N_STATES)
            self.merged = _MergedObserver(plan, xh_now)
            self.frozen[sid - 1] = True
            self.vs_gain.pop(sid - 1, None)
        else:
            self.unrecoverable = True

    def finish(self, rows: int) -> TrajectoryLog:
        log = TrajectoryLog(
            scenario_name=self.scn.name, t=np.arange(rows) * self.dt,
            x=self.log_x[:rows], xhat=self.log_xhat[:rows],
            y_meas=self.log_ymeas[:rows], y_used=self.log_yused[:rows],
            L=self.log_L[:rows], events=self.events, plans=self.plans,
            unrecoverable=self.unrecoverable, diverged=self.diverged)
        _attach_interaction_diagnostics(log, self.lin, self.Tn)
        return log


def run_scenario(scn: Scenario, seed: int = 0) -> TrajectoryLog:
    """Execute one scenario on the shared RK4 grid and return the dense log.

    The step-k row logs the state, estimates, consumed measurements and
    gains at t = k*dt before that step's integration.  Fault activations
    and diagnosis switches take effect at the top of their grid step, so a
    switch at t influences the measurement consumed at t.

    The run is cut into segments at its event steps and, within those,
    every ``DIVERGENCE_CHECK_STEPS`` steps.  After each segment the
    divergence check runs on the rows just logged; a trip ends the run with
    the ``diverged`` flag set and the log cut after the row that tripped.
    """
    scn.validate()
    eng = _Engine(scn, seed)
    rows = eng.n_steps + 1
    k = 0
    for step, phase, i in _timeline(scn, eng.n_steps) + [(rows, None, None)]:
        while k < step:
            k_end = min(step, (k // DIVERGENCE_CHECK_STEPS + 1)
                        * DIVERGENCE_CHECK_STEPS)
            # a state that overflows is the divergence check's to report
            with np.errstate(over="ignore", invalid="ignore"):
                eng.advance(k, k_end)
            tripped = eng.check(k, k_end)
            if tripped is not None:
                return eng.finish(tripped + 1)
            k = k_end
        if phase == 0:
            eng.activate(scn.faults[i], step)
        elif phase == 1:
            eng.diagnose(scn.faults[i], step)
    return eng.finish(rows)


def _attach_interaction_diagnostics(log: TrajectoryLog, lin, Tn,
                                    max_samples: int = 2000) -> None:
    """Sample coupling terms along the trajectory for the bound diagnostic.

    Interactions are evaluated through the linearized coupling blocks at the
    logged states and mapped to chain coordinates, on a stride keeping at
    most ``max_samples`` samples.  The blocks ``Gint[i, j]`` are laid out as
    one (3n, 3n) coupling matrix and the chain transforms as one
    block-diagonal matrix, so each output is one product over all samples.
    """
    rows, n, _ = log.x.shape
    stride = max(1, rows // max_samples)
    X = log.x[::stride].reshape(-1, N_STATES * n)
    coupling = lin.Gint.transpose(0, 2, 1, 3).reshape(N_STATES * n,
                                                      N_STATES * n)
    T = block_diag(*Tn)
    log.interactions = (X @ (T @ coupling).T).reshape(-1, n, N_STATES)
    log.chain_true = (X @ T.T).reshape(-1, n, N_STATES)
    log.diag_stride = stride


def recovery_summary(scn: Scenario, log: TrajectoryLog) -> list:
    """Per-fault recovery verdicts from the dense state log.

    For each fault the window runs to the next fault (or the horizon); the
    verdict is "recovered" when the deviation infinity-norm over the
    window's final settling-window stretch stays below 5 % of the window
    peak.  A window that a divergence verdict cut short reads "diverged",
    and a fault diagnosed as unrecoverable reads "unrecoverable".
    """
    out = []
    dev = np.max(np.abs(log.x), axis=(1, 2))
    t = log.t
    fault_times = [f.t_fault for f in scn.faults]
    for i, f in enumerate(scn.faults):
        t_start = f.t_fault
        t_end = fault_times[i + 1] if i + 1 < len(fault_times) else t[-1]
        sel = (t >= t_start) & (t <= t_end)
        window = dev[sel]
        peak = float(window.max()) if window.size else 0.0
        tail_start = max(t_start, t_end - scn.settling_window)
        tail = dev[(t >= tail_start) & (t <= t_end)]
        tail_max = float(tail.max()) if tail.size else 0.0
        verdict = "recovered" if (peak > 0 and tail_max < 0.05 * peak) \
            else "not-recovered"
        if log.diverged and t_end >= t[-1]:
            verdict = "diverged"
        plan_mode = None
        for tp, plan in log.plans:
            if plan.faulty_id == f.subsystem and tp >= t_start \
                    and (i + 1 >= len(fault_times) or tp < fault_times[i + 1]):
                plan_mode = plan.mode
                if plan.mode == MODE_UNRECOVERABLE:
                    verdict = "unrecoverable"
        out.append({
            "subsystem": f.subsystem, "kind": f.kind, "t_fault": f.t_fault,
            "peak": peak, "tail_max": tail_max, "verdict": verdict,
            "plan_mode": plan_mode,
        })
    return out


def build_report(scn: Scenario, log: TrajectoryLog,
                 wall_time_s: Optional[float] = None,
                 outputs: Optional[dict] = None) -> RunReport:
    """Condense a finished run into the operator-facing report."""
    from .observer import interaction_bound_estimate

    bounds = interaction_bound_estimate(log).tolist()
    return RunReport(
        scenario=scn.name,
        wall_time_s=wall_time_s,
        events=[m.to_dict() for m in log.events],
        recovery=recovery_summary(scn, log),
        interaction_bounds=bounds,
        outputs=dict(outputs or {}),
        unrecoverable=log.unrecoverable,
        diverged=log.diverged,
    )


def write_trajectory_csv(log: TrajectoryLog, path) -> None:
    """Write the dense log with the pinned column layout.

    Columns: ``t`` then, per subsystem, ``sub<i>_x1..x3, sub<i>_xhat1..x3,
    sub<i>_y, sub<i>_L``, and a trailing ``event`` column holding the
    markers raised at that step (';'-joined) or empty.
    """
    rows, n = log.y_used.shape
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"sub{i}_x{j}" for j in (1, 2, 3)]
        header += [f"sub{i}_xhat{j}" for j in (1, 2, 3)]
        header += [f"sub{i}_y", f"sub{i}_L"]
    header.append("event")

    events: dict = {}
    for m in log.events:
        events.setdefault(m.step, []).append(m.label)
    line = ",".join(["%.12g"] * (1 + 8 * n)) + ",%s\n"
    block = 1024    # rows formatted from one scratch array
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r0 in range(0, rows, block):
            r1 = min(rows, r0 + block)
            vals = np.empty((r1 - r0, 1 + 8 * n))
            vals[:, 0] = log.t[r0:r1]
            per_sub = vals[:, 1:].reshape(-1, n, 8)
            per_sub[:, :, 0:3] = log.x[r0:r1]
            per_sub[:, :, 3:6] = log.xhat[r0:r1]
            per_sub[:, :, 6] = log.y_used[r0:r1]
            per_sub[:, :, 7] = log.L[r0:r1]
            fh.write("".join(
                line % (*row, ";".join(events.get(r, ())))
                for r, row in enumerate(vals.tolist(), r0)))


def write_events_json(log: TrajectoryLog, path) -> None:
    payload = {
        "scenario": log.scenario_name,
        "events": [m.to_dict() for m in log.events],
        "plans": [{"t": t, "plan": plan.to_dict()} for t, plan in log.plans],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_report_json(report: RunReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
