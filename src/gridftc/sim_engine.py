"""Closed-loop simulation of sensor faults and observer-based recovery.

One fixed RK4 grid advances four things in lockstep: the nonlinear
multi-machine plant, a bank of per-subsystem adaptive chain observers,
per-subsystem state feedback, and the fault/diagnosis/reconfiguration
timeline.  Runs are bitwise deterministic for a fixed scenario and seed.

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
  equals the true deviation while the modeled gain factor is exact.  This is
  the same innovation sequence the formal reconstruction produces, folded
  into the existing chain observer.
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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import block_diag
from scipy.signal import place_poles

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

DEFAULT_POLES = (-1.2, -1.7, -2.4)
DEFAULT_SETTLING_WINDOW = 10.0


class ScenarioError(ValueError):
    """Scenario validation failure; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


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
    """Per-subsystem state feedback: explicit gains or pole targets."""

    poles: Optional[tuple] = None
    gains: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.poles is not None and self.gains is not None:
            raise ScenarioError("controller", "give either poles or gains, not both")
        if self.poles is not None:
            p = tuple(float(v) for v in self.poles)
            if len(p) != N_STATES:
                raise ScenarioError("controller.poles",
                                    f"need {N_STATES} poles, got {len(p)}")
            if any(v >= 0 for v in p):
                raise ScenarioError("controller.poles", "poles must be negative")
            if len(set(p)) != len(p):
                raise ScenarioError("controller.poles",
                                    "poles must be distinct (single-input placement)")
            object.__setattr__(self, "poles", p)
        if self.gains is not None:
            g = np.asarray(self.gains, dtype=float)
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
    outputs: dict = field(default_factory=lambda: {
        "trajectory": "trajectory.csv",
        "events": "events.json",
        "report": "report.json",
    })

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

        obs_d = dict(d.get("observer", {}))
        for key in obs_d:
            if key not in ("l_mode", "l_value", "L_max", "initial_offset"):
                raise ScenarioError(f"observer.{key}", "unknown observer field")
        observer = ObserverConfig(**obs_d)

        ctl_d = dict(d.get("controller", {}))
        for key in ctl_d:
            if key not in ("poles", "gains"):
                raise ScenarioError(f"controller.{key}", "unknown controller field")
        if not ctl_d:
            ctl_d = {"poles": DEFAULT_POLES}
        controller = ControllerConfig(**ctl_d)

        weights = dict(d.get("weights", {}))
        for key in weights:
            if key not in ("alpha", "xi"):
                raise ScenarioError(f"weights.{key}", "unknown weight field")

        scn = cls(
            plant=plant,
            horizon=float(d["horizon"]),
            dt=float(d["dt"]),
            faults=faults,
            observer=observer,
            controller=controller,
            alpha=float(weights.get("alpha", 100.0)),
            xi=float(weights.get("xi", 50.0)),
            j_max=None if d.get("j_max") is None else float(d["j_max"]),
            noise_amplitude=float(d.get("noise_amplitude", 0.0)),
            settling_window=float(d.get("settling_window",
                                        DEFAULT_SETTLING_WINDOW)),
            reconfigure=bool(d.get("reconfigure", True)),
            name=str(d.get("name", "scenario")),
            plant_ref=plant_ref,
            outputs=dict(d.get("outputs", {
                "trajectory": "trajectory.csv",
                "events": "events.json",
                "report": "report.json",
            })),
        )
        scn.validate()
        return scn

    def to_dict(self) -> dict:
        obs = self.observer
        ctl = self.controller
        controller = ({"poles": list(ctl.poles)} if ctl.poles is not None
                      else {"gains": ctl.gains.tolist()}
                      if ctl.gains is not None else {})
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
            "controller": controller,
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
    kind: str       # "fault" | "fdi"
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
    interaction-bound diagnostic.
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

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "wall_time_s": self.wall_time_s,
            "events": self.events,
            "recovery": self.recovery,
            "interaction_bounds": self.interaction_bounds,
            "outputs": self.outputs,
            "unrecoverable": self.unrecoverable,
        }


def pole_placement_gains(lin, poles: Sequence[float] = DEFAULT_POLES) -> np.ndarray:
    """Per-subsystem feedback rows K with eig(A_i - B_i K_i) at ``poles``."""
    poles = np.sort(np.asarray(poles, dtype=float))
    n = lin.n
    K = np.zeros((n, N_STATES))
    for i in range(n):
        res = place_poles(lin.A[i], lin.Bsub[i].reshape(N_STATES, 1), poles)
        K[i] = res.gain_matrix.ravel()
    return K


def nominal_controller(xhat, gains, u0) -> np.ndarray:
    """Equilibrium feedforward plus state feedback on the estimates."""
    xhat = np.asarray(xhat, dtype=float)
    gains = np.asarray(gains, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    return u0 - np.einsum("ij,ij->i", gains, xhat)


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
    """Runtime state of the augmented-set chain observer.

    ``dead`` holds the 1-based ids whose sensors are switched off when the
    observer starts; their readings get weight zero in the measurement.
    The gain adaptation restarts at L = 1.
    """

    def __init__(self, spec, faulty_id: int, xhat_members: np.ndarray,
                 dead: set):
        self.spec = spec
        self.ids = spec.ids
        self.idx = np.array(spec.ids) - 1
        self.faulty_id = faulty_id
        self.chain = spec.chain
        n = self.chain.n
        self.coeffs = shaping_coefficients(n)
        self.powers = np.arange(1, n + 1, dtype=float)
        self.z = self.chain.T @ xhat_members
        self.L = 1.0
        self.faulty_slice = spec.index_map[faulty_id]
        self.weights = np.where([sid in dead for sid in spec.ids], 0.0,
                                spec.output_weights)

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


def run_scenario(scn: Scenario, seed: int = 0) -> TrajectoryLog:
    """Execute one scenario on the shared RK4 grid and return the dense log.

    The step-k row logs the state, estimates, consumed measurements and
    gains at t = k*dt before that step's integration.  Fault activations
    and diagnosis switches take effect at the top of their grid step, so a
    switch at t influences the measurement consumed at t.
    """
    scn.validate()
    plant = scn.plant
    n = plant.n
    dt = scn.dt
    n_steps = int(round(scn.horizon / dt))
    lin = plant.linearize()
    rhs_k = _rhs_constants(plant.generators, plant.op, plant.network)
    delta0 = plant.op.delta0
    u0 = plant.op.Ef0
    y_ref = delta0.copy()

    if scn.controller.gains is not None:
        K = np.asarray(scn.controller.gains, dtype=float)
    else:
        K = pole_placement_gains(lin, scn.controller.poles or DEFAULT_POLES)

    # nominal observer bank in chain coordinates
    chains = [to_chain_form(StateSpace(lin.A[i],
                                       lin.Bsub[i].reshape(N_STATES, 1),
                                       lin.Csub[i]))
              for i in range(n)]
    Tn = np.stack([c.T for c in chains])
    Tn_inv = np.stack([c.T_inv for c in chains])
    ICn = np.stack([c.input_chain.ravel() for c in chains])
    coeffs = shaping_coefficients(N_STATES)
    powers = np.arange(1, N_STATES + 1, dtype=float)
    xhat0 = np.full((n, N_STATES), scn.observer.initial_offset)
    Z = np.einsum("nij,nj->ni", Tn, xhat0)
    Lg = np.ones(n)
    nominal_active = np.ones(n, dtype=bool)
    all_nominal = True          # skip the freeze masks until one is set
    L_max = scn.observer.L_max
    l_const = scn.observer.l_value if scn.observer.l_mode == "constant" else None

    merged: Optional[_MergedObserver] = None
    vs_gain: dict = {}          # 0-based subsystem -> modeled gain factor
    dead_sensors: set = set()   # 1-based ids switched off by augmentation

    x = np.zeros((n, N_STATES))
    rng = np.random.default_rng(seed)
    noise_amp = scn.noise_amplitude

    rows = n_steps + 1
    log_t = np.empty(rows)
    log_x = np.empty((rows, n, N_STATES))
    log_xhat = np.empty((rows, n, N_STATES))
    log_ymeas = np.empty((rows, n))
    log_yused = np.empty((rows, n))
    log_L = np.empty((rows, n))
    events: list = []
    plans: list = []
    unrecoverable = False

    class _FaultRT:
        __slots__ = ("ev", "start", "fdi", "applied", "held", "diagnosed")

        def __init__(self, ev: FaultEvent):
            self.ev = ev
            self.start = _grid_index(ev.t_fault, dt)
            self.fdi = _grid_index(ev.t_fault + ev.fdi_delay, dt)
            self.applied = False
            self.held = None
            self.diagnosed = False

    faults_rt = [_FaultRT(f) for f in scn.faults]
    prev_abs = y_ref.copy()     # last measured absolute readings (for stuck)

    def active_fault_ids() -> set:
        return {fr.ev.subsystem for fr in faults_rt if fr.applied}

    for k in range(rows):
        t = k * dt

        # --- timeline: activations, then diagnoses -----------------------
        for fr in faults_rt:
            if not fr.applied and k >= fr.start:
                fr.applied = True
                fr.held = (prev_abs[fr.ev.subsystem - 1]
                           if fr.ev.stuck_value is None else fr.ev.stuck_value)
                events.append(EventMarker(
                    t=t, step=k, kind="fault", subsystem=fr.ev.subsystem,
                    label=f"fault:sub{fr.ev.subsystem}:{fr.ev.kind}",
                    detail=fr.ev.to_dict()))
        if scn.reconfigure:
            for fr in faults_rt:
                if fr.applied and not fr.diagnosed and k >= fr.fdi:
                    fr.diagnosed = True
                    sid = fr.ev.subsystem
                    faulty_C = fault_output_map(fr.ev, lin.Csub[sid - 1])
                    others = tuple(active_fault_ids() - {sid})
                    plan = rftc_select(
                        sid, lin, scn.alpha, scn.xi, faulty_C=faulty_C,
                        j_max=scn.j_max if scn.j_max is not None else math.inf,
                        excluded_ids=others)
                    plans.append((t, plan))
                    detail = {"mode": plan.mode, "J": plan.J,
                              "augment_set": list(plan.augment_set)
                              if plan.augment_set else None}
                    events.append(EventMarker(
                        t=t, step=k, kind="fdi", subsystem=sid,
                        label=f"fdi:sub{sid}:{plan.mode}", detail=detail))
                    if plan.mode == MODE_VIRTUAL_SENSOR:
                        vs_gain[sid - 1] = fr.ev.factor
                    elif (plan.mode == MODE_AUGMENTATION
                          and plan.observer_spec is not None
                          and plan.observer_spec.chain is not None):
                        spec = plan.observer_spec
                        xh_now = (Tn_inv @ Z[..., None])[..., 0]
                        if merged is not None:
                            xm = merged.estimates()
                            for mid in merged.ids:
                                xh_now[mid - 1] = xm[merged.spec.index_map[mid]]
                        xcat = np.concatenate([xh_now[mid - 1]
                                               for mid in spec.ids])
                        dead_sensors.add(sid)
                        merged = _MergedObserver(spec, sid, xcat, dead_sensors)
                        nominal_active[sid - 1] = False
                        all_nominal = False
                        vs_gain.pop(sid - 1, None)
                    else:
                        unrecoverable = True

        # --- measurement --------------------------------------------------
        y_abs = delta0 + x[:, 0]
        if noise_amp > 0.0:
            y_abs = y_abs + noise_amp * (2.0 * rng.random(n) - 1.0)
        y_abs = measure(y_abs, [(fr.ev, fr.held) for fr in faults_rt
                                if fr.applied])
        prev_abs = y_abs
        y_dev = y_abs - y_ref
        y_used = y_dev.copy()
        for i, factor in vs_gain.items():
            y_used[i] = (y_abs[i] - factor * y_ref[i]) / factor

        # --- estimates ------------------------------------------------------
        xhat = (Tn_inv @ Z[..., None])[..., 0]
        L_col = Lg.copy()
        if merged is not None:
            xm = merged.estimates()
            fid = merged.faulty_id
            xhat[fid - 1] = xm[merged.faulty_slice]
            L_col[fid - 1] = merged.L

        # --- log row --------------------------------------------------------
        log_t[k] = t
        log_x[k] = x
        log_xhat[k] = xhat
        log_ymeas[k] = y_dev
        log_yused[k] = y_used
        log_L[k] = L_col
        if k == n_steps:
            break

        # --- controller -----------------------------------------------------
        u_dev = -(K * xhat).sum(1)
        if merged is not None:
            # A freshly built merged chain restarts gain adaptation from
            # L = 1 and is far too slow a filter to close the faulty
            # machine's field loop through; that is exactly the switching
            # hazard with no stability guarantee.  During augmented
            # operation the faulty machine runs on its scheduled
            # equilibrium field while estimation is rebuilt through the
            # healthy member's sensor.
            u_dev[merged.faulty_id - 1] = 0.0
        u_abs = u0 + u_dev

        # --- observer bank step (innovation sampled at the step start) ------
        e1 = y_used - Z[:, 0]
        g = coeffs * Lg[:, None] ** powers
        uch = ICn * u_dev[:, None]
        Z_next = _rk4_chain(Z, y_used, g, uch, dt)
        Lg_next = gain_law(Lg, e1, dt, L_max, l_const)
        if all_nominal:
            Z, Lg = Z_next, Lg_next
        else:
            Z = np.where(nominal_active[:, None], Z_next, Z)
            Lg = np.where(nominal_active, Lg_next, Lg)

        # --- merged observer step -------------------------------------------
        if merged is not None:
            merged.step(y_used, u_dev, dt, L_max, l_const)

        # --- plant step -------------------------------------------------------
        k1 = _rhs_core(x, u_abs, rhs_k)
        k2 = _rhs_core(x + 0.5 * dt * k1, u_abs, rhs_k)
        k3 = _rhs_core(x + 0.5 * dt * k2, u_abs, rhs_k)
        k4 = _rhs_core(x + dt * k3, u_abs, rhs_k)
        x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

    log = TrajectoryLog(
        scenario_name=scn.name, t=log_t, x=log_x, xhat=log_xhat,
        y_meas=log_ymeas, y_used=log_yused, L=log_L,
        events=events, plans=plans, unrecoverable=unrecoverable)
    _attach_interaction_diagnostics(log, lin, Tn)
    return log


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
    peak.
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

    width = 1 + 8 * n
    big = np.empty((rows, width))
    big[:, 0] = log.t
    for i in range(n):
        base = 1 + 8 * i
        big[:, base:base + 3] = log.x[:, i, :]
        big[:, base + 3:base + 6] = log.xhat[:, i, :]
        big[:, base + 6] = log.y_used[:, i]
        big[:, base + 7] = log.L[:, i]

    ev_by_step: dict = {}
    for m in log.events:
        ev_by_step.setdefault(m.step, []).append(m.label)

    fmt = ",".join(["%.12g"] * width)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in range(rows):
            line = fmt % tuple(big[r])
            fh.write(line)
            fh.write(",")
            if r in ev_by_step:
                fh.write(";".join(ev_by_step[r]))
            fh.write("\n")


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
