"""Closed-loop simulation of sensor faults and observer-based recovery.

One fixed RK4 grid advances four things in lockstep: the nonlinear
multi-machine plant, a bank of per-subsystem adaptive chain observers,
per-subsystem state feedback, and the fault/diagnosis/reconfiguration
timeline.  Runs are bitwise deterministic for a fixed scenario and seed; the
seed drives only the measurement noise, so a noise-free run ignores it and
builds no random generator.

The feedback is the scenario's gain matrix acting on the estimates, so the
nominal controller stays in the loop and never sees the fault; a scenario
without gains runs with no feedback (field voltages held at ``Ef0``).

Measurement convention
----------------------
Sensors report absolute rotor angles; the loop works in deviation
coordinates, so every consumed measurement is the absolute reading minus
the operating-point reference.  A healthy sensor thus yields the angle
deviation exactly, while the active faults transform the absolute signal,
in the order they started (:func:`reading_map`):

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
observers, the merged observer), so each segment's rows apply one
:func:`reading_map`.  The plant state and the nominal bank's chain states are
state-major, (3, n), so each component is one contiguous row, and both RK4
steps sum their stages in place; the logs keep the (rows, n, 3) layout.
The kernel calls the plant right-hand side and the chain-observer step
through this module's globals ``_rhs_core`` and ``_rk4_chain`` (a 2-D state
is the nominal bank, a 1-D state the merged observer), where the
``perfbench`` tracer hooks them.

At n = 5 the step costs numpy call overhead, not arithmetic, so each run
owns one workspace, ``_Workspace``, built with the engine: the plant's RK4
stages and stage state, the scratch of the plant RHS and of the chain step,
the bank's gains, input term and innovation, the gain law's ``L * L``, the
decoded estimates, the controller's product and inputs, and a spare ``Z``
and ``Lg``.  The merged observer holds the same for its chain.  The step
calls every ufunc with its output in a buffer, on row views built once,
with its float constants as 0-d arrays; it allocates no array data, in a
fault window or out of one.  Every ufunc keeps the operands and the order
of the allocating form, so the bits do not depend on the buffers.  The
scratch belongs to the run, never to the plant's cached RHS constants,
which every run of a plant shares.

Aliasing rule: a step writes the spare chain state and gains (``Z``/``Lg``
and the merged observer's ``z``/``L``), then the pairs swap, and a run's
last row is logged but not stepped.  So ``self.Z``, ``self.Lg``,
``merged.z`` and ``self.y_abs``, which ``diagnose`` and ``activate`` read
between segments, hold the last logged row's values and are not written
again before the next ``advance``.

Divergence verdict
------------------
Segments also end every ``DIVERGENCE_CHECK_STEPS`` rows.  After each one,
the rows just logged are checked: every state and estimate finite and every
angle deviation at most pi in magnitude.  The first row that fails gets a
``diverged`` marker, the run ends with the log cut after that row and the
log and report carry ``diverged``; ``gridftc run`` then exits with code 3.

Row store and run summaries
---------------------------
Rows go to a row store: every row of the run without a ``consumer`` (the
dense log), else one ``DIVERGENCE_CHECK_STEPS`` block that each checked
segment reuses.  After each checked segment ``_Engine.emit`` reduces its
rows, ``ROW_BLOCK`` at a time, into the summaries every run keeps: each
fault's recovery window and tail maxima of the row peaks (each row's max
|x|, :class:`_RecoveryWindows`) and two (samples, 3) arrays on the
interaction diagnostic's stride; then it hands the rows to the consumer.
Reports read only the summaries, so ``gridftc run`` holds one block, a
ring of the last settling window's row peaks when the scenario has faults
and the (samples, 3) reductions, whatever its horizon, and no run holds a
second copy of its rows.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .observability import StateSpace
from .observer import (
    DEFAULT_L_MAX,
    ChainScratch,
    chain_rk4 as _rk4_chain,
    gain_law,
    shaping_coefficients,
    to_chain_form,
)
from .power_model import (
    N_OUTPUTS,
    N_STATES,
    PlantModel,
    _RhsScratch,
    _rhs_constants,
    _rhs_core,
    load_plant,
)
from .reconfig import (
    MODE_AUGMENTATION,
    MODE_UNRECOVERABLE,
    MODE_VIRTUAL_SENSOR,
    FaultEvent,
    FieldError,
    ReconfigPlan,
    fault_output_map,
    real_number,
    rftc_select,
)

DEFAULT_SETTLING_WINDOW = 10.0
# The files a run writes, by key; a scenario's ``outputs`` renames some.
DEFAULT_OUTPUTS = {"trajectory": "trajectory.csv", "events": "events.json",
                   "report": "report.json"}
# Rows between two divergence checks; event steps also end a checked segment.
# A run with a consumer keeps one block of this many rows.
DIVERGENCE_CHECK_STEPS = 1000
# Most rows the interaction diagnostic samples, at a stride fixed by the
# planned row count.
DIAG_SAMPLES = 2000
# Rows per block of ``_row_peaks`` and of the interaction reduction, so that
# their temporaries are a fraction of a checked segment.
ROW_BLOCK = 256


class ScenarioError(FieldError):
    """Scenario validation failure; ``field`` names the offending entry."""


def _number(field_name: str, value) -> float:
    """:func:`gridftc.reconfig.real_number`, failing as a ScenarioError."""
    try:
        return real_number(field_name, value)
    except FieldError as exc:
        raise ScenarioError(exc.field, exc.reason) from None


@dataclass(frozen=True)
class ObserverConfig:
    """Observer settings shared by the whole bank.

    ``l_mode`` selects the gain-law normalization: ``"self"`` divides the
    squared innovation by the current gain, ``"constant"`` by ``l_value``
    squared.  ``initial_offset`` is added to every physical estimate
    component at t = 0.  ``l_value`` and ``initial_offset`` must be finite;
    ``L_max`` may be infinite (no cap).
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
        for name in ("l_value", "initial_offset"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ScenarioError(f"observer.{name}",
                                    f"must be finite, got {value}")
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
        for name, value in (("horizon", self.horizon), ("dt", self.dt),
                            ("noise_amplitude", self.noise_amplitude),
                            ("settling_window", self.settling_window),
                            ("weights.alpha", self.alpha),
                            ("weights.xi", self.xi)):
            if not math.isfinite(value):
                raise ScenarioError(name, f"must be finite, got {value}")
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
            # a FaultEvent checks its own fields; these need the plant
            if not isinstance(f, FaultEvent):
                raise ScenarioError(f"faults[{i}]", "not a fault event")
            if f.t_fault < last:
                raise ScenarioError("faults", "fault events must be time-ordered")
            last = f.t_fault
            if not 1 <= f.subsystem <= n:
                raise ScenarioError(f"faults[{i}].subsystem",
                                    f"subsystem {f.subsystem} outside 1..{n}")
            if f.sensor_row >= N_OUTPUTS:
                raise ScenarioError(f"faults[{i}].sensor_row",
                                    f"row {f.sensor_row} is not one of the "
                                    f"machine's {N_OUTPUTS} output rows")
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
        object, a value of the wrong type, a string or true or false as a
        number, and a non-finite number other than ``j_max`` and
        ``observer.L_max`` raise :class:`ScenarioError` naming it):

        * ``plant`` (required) -- a plant JSON file, relative to
          ``base_dir`` unless absolute, or the inline object that
          ``PlantModel.from_dict`` reads: ``generators``, ``network``
          (``G``, ``B``), ``operating_point`` (``delta0``, ``Eq_prime0``,
          ``Ef0``) and an optional ``name``.
        * ``horizon``, ``dt`` (required) -- run length and grid step, s.
        * ``faults`` -- time-ordered fault events, default none; each has
          ``t_fault``, ``subsystem`` (a 1-based integer), ``kind``
          (``gain``, ``stuck`` or ``total-loss``) and ``fdi_delay``, plus
          ``sensor_row`` (an integer, default 0, a row of the machine's
          output map; each machine measures only its angle, row 0),
          ``factor`` (gain faults only, required there) and
          ``stuck_value`` (default: hold the last reading).
        * ``observer`` -- ``l_mode`` (``"self"`` or ``"constant"``, default
          ``"self"``), ``l_value`` (required and positive in constant mode;
          finite when given), ``L_max`` (at least 1, default
          ``DEFAULT_L_MAX``; Infinity means no cap) and ``initial_offset``
          (finite, default 0).
        * ``controller`` -- ``gains``, one row of three per subsystem;
          without it there is no feedback.
        * ``weights`` -- the search's cost weights ``alpha`` (default 100)
          and ``xi`` (default 50).
        * ``j_max`` -- the cost cap, default null (no cap, as is Infinity).
        * ``noise_amplitude`` -- half-width of the uniform noise on every
          angle reading, default 0.
        * ``settling_window`` -- s, default ``DEFAULT_SETTLING_WINDOW``.
        * ``reconfigure`` -- run the diagnoses and their plans, default
          true.
        * ``name`` -- default ``"scenario"``.
        * ``outputs`` -- file names by key (``trajectory``, ``events``,
          ``report``), each defaulting to ``DEFAULT_OUTPUTS``; a name must
          be a bare file name (no directory part) and the three must
          differ.
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

        faults, i = [], 0
        try:
            for i, f in enumerate(d.get("faults", ())):
                faults.append(FaultEvent.from_dict(f))
        except FieldError as exc:
            raise ScenarioError(f"faults[{i}].{exc.field}",
                                exc.reason) from exc
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
        outputs = {**DEFAULT_OUTPUTS, **sub["outputs"]}
        owner: dict = {}    # file name -> the first key that writes it
        for key, name in outputs.items():
            # a bare name, so every file lands in the output directory
            if (not isinstance(name, str) or Path(name).name != name
                    or name in ("", ".", "..")):
                raise ScenarioError(f"outputs.{key}",
                                    f"must be a bare file name, got {name!r}")
            if name in owner:
                raise ScenarioError(f"outputs.{key}",
                                    f"{name!r} is also the {owner[name]} "
                                    "file")
            owner[name] = key
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
            faults=tuple(faults),
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
            outputs=outputs,
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
        return asdict(self)


@dataclass
class TrajectoryLog:
    """Per-step record of one run plus its summaries.

    ``x`` and ``xhat`` are (steps, n, 3) deviation states (estimates in
    physical coordinates); ``y_meas`` is the raw post-fault deviation
    reading and ``y_used`` the signal the active observer consumed.
    ``rows`` counts the log's rows, and ``windows`` holds one ``(peak,
    tail_max)`` pair per scenario fault, the maxima of the row peaks (each
    row's max |x|) over the fault's recovery window and its tail, which
    :func:`recovery_summary` reads.  ``interaction_peak`` and
    ``chain_activity`` are the interaction-bound diagnostic's (samples, 3)
    reductions of every ``diag_stride``-th row.  ``diverged`` is set when
    the divergence check ended the run early (the log then ends at the row
    that tripped it).

    A consumer gets each checked segment as a log of that segment's rows,
    the first of them row ``row0`` of the run, with the events so far.  A
    run's returned log holds its rows only when its row store held every
    row; otherwise ``t`` and the row arrays are None.
    """

    scenario_name: str
    t: Optional[np.ndarray] = None
    x: Optional[np.ndarray] = None
    xhat: Optional[np.ndarray] = None
    y_meas: Optional[np.ndarray] = None
    y_used: Optional[np.ndarray] = None
    L: Optional[np.ndarray] = None
    events: list = field(default_factory=list)
    plans: list = field(default_factory=list)        # (t, ReconfigPlan)
    interaction_peak: Optional[np.ndarray] = None
    chain_activity: Optional[np.ndarray] = None
    diag_stride: int = 1
    unrecoverable: bool = False
    diverged: bool = False
    row0: int = 0
    rows: int = 0
    windows: list = field(default_factory=list)     # (peak, tail_max)


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
        return asdict(self)


def reading_map(active: Sequence[tuple], vs_gain: dict,
                y_ref: np.ndarray) -> tuple:
    """The faults ``active``, ``(FaultEvent, held)`` pairs applied in order,
    and the virtual-sensor gains ``vs_gain`` (by 0-based machine) as
    ``(scales, fixed, vs)``, which each row of a segment applies in turn:
    the (n,) gain layers, a multiply each, so y f1 f2 and not y (f1 f2);
    None or the indices and values written over stuck (``held``) and dead
    (0.0) readings, times their later gains; None or ``(off, div)``, where
    ``(y_abs - off) / div`` is each consumed reading: ``(y - f y_ref) / f``
    at a virtual sensor of gain ``f``, exactly ``y - y_ref`` elsewhere.
    """
    n, gains, const = len(y_ref), {}, {}
    for f, held in active:
        i = f.subsystem - 1
        if f.kind != "gain":
            const[i] = float(held) if f.kind == "stuck" else 0.0
            gains.pop(i, None)
        elif i in const:
            const[i] *= float(f.factor)
        else:
            gains.setdefault(i, []).append(f.factor)
    scales = [np.ones(n) for _ in range(max(map(len, gains.values()),
                                            default=0))]
    for i, factors in gains.items():
        for scale, factor in zip(scales, factors):
            scale[i] = factor
    fixed = vs = None
    if const:
        fixed = np.array(list(const)), np.array(list(const.values()))
    if vs_gain:
        vs = y_ref.copy(), np.ones(n)
        for i, factor in vs_gain.items():
            vs[0][i], vs[1][i] = factor * y_ref[i], factor
    return scales, fixed, vs


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

    The per-step temporaries are built here, once: the members' readings
    and inputs, the weighted reading ``y``, the innovation and the gain as
    0-d arrays, the gains ``a_k L^k``, the input term and the decoded
    estimates, which :meth:`estimates` returns (``head`` views the faulty
    machine's three).  A step writes the spare chain state and gain, then
    ``z``/``z_spare`` and ``L``/``L_spare`` swap.
    """

    def __init__(self, plan: ReconfigPlan, xhat: np.ndarray):
        self.idx = np.array(plan.augment_set) - 1
        self.chain = plan.chain
        self.weights = plan.output_weights
        n = self.chain.n
        self.coeffs = shaping_coefficients(n)
        self.powers = np.arange(1, n + 1, dtype=float)
        self.z = self.chain.T @ xhat[self.idx].ravel()
        self.L = np.array(1.0)
        m = len(self.idx)
        self.y_sub, self.u_sub = np.empty(m), np.empty(m)
        self.y, self.e1, self.ll = np.empty(()), np.empty(()), np.empty(())
        self.g, self.uch = np.empty(n), np.empty(n)
        self.z_spare, self.L_spare = np.empty(n), np.empty(())
        self.scratch = ChainScratch((n,))
        self.xhat = np.empty(n)
        self.head = self.xhat[:N_STATES]

    def step(self, y_used: np.ndarray, u_dev: np.ndarray, dt: float,
             L_max, l_value: Optional[float]) -> None:
        """Advance the estimate and the gain one grid step."""
        y, z, L = self.y, self.z, self.L
        # the members' entries; "clip" never moves an index in range, and
        # spares the buffered copy that "raise" makes of ``out``
        np.matmul(self.weights, y_used.take(self.idx, None, self.y_sub,
                                            "clip"), y)
        np.matmul(self.chain.input_chain,
                  u_dev.take(self.idx, None, self.u_sub, "clip"), self.uch)
        g = np.multiply(self.coeffs, np.power(L, self.powers, self.g), self.g)
        np.subtract(y, z[0], self.e1)
        self.z = _rk4_chain(z, y, g, self.uch, dt, out=self.z_spare,
                            scratch=self.scratch)
        self.L = gain_law(L, self.e1, dt, L_max, l_value, out=self.L_spare,
                          scratch=self.ll)
        self.z_spare, self.L_spare = z, L

    def estimates(self) -> np.ndarray:
        return np.matmul(self.chain.T_inv, self.z, self.xhat)


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


class _Workspace:
    """Every per-row temporary of :meth:`_Engine.advance` for ``n``
    machines, built once per run with the row views the step reads.

    Plant: the four RK4 stages ``k``, the stage state ``s``, each of them
    also as the tuple of its rows that :func:`_rhs_core` takes, and the RHS
    scratch.  Bank: the chain-step scratch, the gains ``a_k L^k``, the input
    term, the innovation, the gain law's ``L * L`` and the spare ``Z`` and
    ``Lg`` that each step writes before the two pairs swap.  Rows: the
    readings, the noise, the deviations, the consumed readings, the decoded
    estimates (``xhat3`` is the (n, 3, 1) product ``Tn_inv @ Z.T[..., None]``
    and ``xhat`` its (n, 3) view) and the controller's product and inputs.
    """

    def __init__(self, n: int):
        shape = (N_STATES, n)
        self.k = np.empty((4,) + shape)
        self.s = np.empty(shape)
        self.k_rows = [tuple(k) for k in self.k]
        self.s_rows = tuple(self.s)
        self.rhs = _RhsScratch(n)
        self.chain = ChainScratch(shape)
        self.gains = np.empty(shape)
        self.uch = np.empty(shape)
        self.e1 = np.empty(n)
        self.ll = np.empty(n)
        self.Z_spare = np.empty(shape)
        self.Lg_spare = np.empty(n)
        self.y_abs = np.empty(n)
        self.noise = np.empty(n)
        self.y_dev = np.empty(n)
        self.y_used = np.empty(n)
        self.xhat3 = np.empty((n, N_STATES, 1))
        self.xhat = self.xhat3[..., 0]
        self.Kx = np.empty((n, N_STATES))
        self.u_dev = np.empty(n)
        self.u_abs = np.empty(n)


class _Engine:
    """One run: its constants, its log and the small state that the step
    kernel :meth:`advance` carries from row to row.

    The log arrays are a row store of ``held`` rows, every row of the run or
    fewer: row k sits at ``k - base(k)``.  Every run also keeps its faults'
    recovery maxima, ``windows``, and the interaction reductions of the rows
    on the diagnostic's stride.  ``rng`` is the noise generator, None in a
    noise-free run.

    ``x`` (plant deviations) and ``Z`` (nominal chain states) are
    state-major, (3, n); ``Lg`` holds the nominal gains and ``y_abs`` the
    last absolute readings, from which a stuck sensor holds.  Between two
    events the rest is fixed: ``active`` lists the active faults as
    ``(FaultEvent, held)`` pairs and ``vs_gain`` maps a 0-based subsystem
    to its virtual-sensor gain, for :func:`reading_map`; ``frozen`` masks
    the subsystems whose nominal observer is switched off and ``merged`` is
    the augmented-set observer.
    ``ws`` is the run's :class:`_Workspace`.
    """

    def __init__(self, scn: Scenario, seed: int, held: int):
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
        self.coupling = _chain_coupling(lin.Gint, self.Tn)
        self.Tn_inv = np.stack([c.T_inv for c in chains])
        self.ICn = np.stack([c.input_chain.ravel() for c in chains], axis=1)
        # full (3, n), so that the gains' product broadcasts nothing
        self.coeffs = np.repeat(shaping_coefficients(N_STATES)[:, None], n,
                                axis=1)
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
        self.ws = _Workspace(n)
        self.rng = (np.random.default_rng(seed)
                    if scn.noise_amplitude > 0.0 else None)
        self.active: list = []
        self.vs_gain: dict = {}
        self.frozen = np.zeros(n, dtype=bool)
        self.merged: Optional[_MergedObserver] = None

        rows = self.n_steps + 1
        self.stride = _diag_stride(rows)
        self.windows = _RecoveryWindows(scn, rows)
        self.interaction_peak = np.empty((-(-rows // self.stride), N_STATES))
        self.chain_activity = np.empty_like(self.interaction_peak)
        self.log_x = np.empty((held, n, N_STATES))
        self.log_xhat = np.empty((held, n, N_STATES))
        self.log_ymeas = np.empty((held, n))
        self.log_yused = np.empty((held, n))
        self.log_L = np.empty((held, n))
        self.events: list = []
        self.plans: list = []
        self.unrecoverable = False
        self.diverged = False

    def base(self, k0: int) -> int:
        """Run row held at index 0 of the row store that holds row ``k0``;
        the rows of one checked segment never straddle a store edge."""
        return k0 - k0 % len(self.log_x)

    def advance(self, k0: int, k_end: int) -> None:
        """Log rows ``k0 .. k_end - 1`` and integrate from each of them to
        the next (the run's last row is only logged), in the configuration
        set by the events so far.

        Each row applies the segment's :func:`reading_map`, each part only
        when it is not empty.  The plant and the bank go through the module
        globals ``_rhs_core`` and ``_rk4_chain`` and the RK4 stages of the
        plant are summed in place, in the order ``x + (dt/6) ((k1 + 2 (k2 +
        k3)) + k4)``.  Every temporary is a buffer of the run's
        :class:`_Workspace` or of the merged observer.
        """
        dt, last, ws = self.dt, self.n_steps, self.ws
        # step constants as 0-d arrays, which ufuncs take faster than floats
        half, full, two, sixth, one, L_max, noise_amp = (
            np.array(c) for c in (0.5 * dt, dt, 2.0, dt / 6.0, 1.0,
                                  self.L_max, self.scn.noise_amplitude))
        add, subtract, multiply = np.add, np.subtract, np.multiply
        matmul = np.matmul
        x, xT, x0, x_rows = self.x, self.x.T, self.x[0], tuple(self.x)
        y_ref, u0, K, Tn_inv = self.y_ref, self.u0, self.K, self.Tn_inv
        coeffs, powers, ICn = self.coeffs, self.powers, self.ICn
        rhs_k, l_const, rng = self.rhs_k, self.l_const, self.rng
        noisy = self.scn.noise_amplitude > 0.0
        merged = self.merged
        frozen = self.frozen if self.frozen.any() else None
        k1, k2, k3, k4 = ws.k
        s, s_rows, k_rows = ws.s, ws.s_rows, ws.k_rows
        rhs_ws, chain_ws = ws.rhs, ws.chain
        gains, uch, e1, ll, noise = ws.gains, ws.uch, ws.e1, ws.ll, ws.noise
        ya, y_dev, yu = ws.y_abs, ws.y_dev, ws.y_used
        xhat3, xhat, Kx = ws.xhat3, ws.xhat, ws.Kx
        u_dev, u_abs = ws.u_dev, ws.u_abs
        # the current and the spare (Z, Z[0], Z.T[..., None], Lg); the step
        # writes the spare, then the two swap
        cur, nxt = [(Z, Z[0], Z.T[..., None], Lg) for Z, Lg in
                    ((self.Z, self.Lg), (ws.Z_spare, ws.Lg_spare))]
        scales, fixed, vs = reading_map(self.active, self.vs_gain, y_ref)
        put, (fix_idx, fix_val) = ya.put, fixed or (None, None)
        vs_off, vs_div = vs or (None, None)
        if merged is not None:
            fid, m_head = merged.idx[0], merged.head
        log_x, log_xhat, log_L = self.log_x, self.log_xhat, self.log_L
        log_ymeas, log_yused = self.log_ymeas, self.log_yused
        base = self.base(k0)

        y_used = y_dev if vs is None else yu
        for k in range(k0, k_end):
            r = k - base
            Z, Z0, ZT, Lg = cur
            # --- measurement and estimates at the step start -----------------
            add(y_ref, x0, ya)
            if noisy:
                rng.random(out=noise)
                multiply(two, noise, noise)
                subtract(noise, one, noise)
                multiply(noise_amp, noise, noise)
                add(ya, noise, ya)
            for scale in scales:
                multiply(ya, scale, ya)
            if fixed is not None:
                put(fix_idx, fix_val)
            subtract(ya, y_ref, y_dev)
            if vs is not None:
                subtract(ya, vs_off, yu)
                np.divide(yu, vs_div, yu)
            matmul(Tn_inv, ZT, xhat3)
            log_L[r] = Lg
            if merged is not None:
                merged.estimates()
                xhat[fid] = m_head
                log_L[r, fid] = merged.L
            log_x[r] = xT
            log_xhat[r] = xhat
            log_ymeas[r] = y_dev
            log_yused[r] = y_used
            if k == last:
                break

            # --- controller ----------------------------------------------------
            multiply(K, xhat, Kx)
            np.negative(add.reduce(Kx, 1, None, u_dev), u_dev)
            if merged is not None:
                # A freshly built merged chain restarts gain adaptation from
                # L = 1 and is far too slow a filter to close the faulty
                # machine's field loop through; that is exactly the
                # switching hazard with no stability guarantee.  During
                # augmented operation the faulty machine runs on its
                # scheduled equilibrium field while estimation is rebuilt
                # through the healthy member's sensor.
                u_dev[fid] = 0.0
            add(u0, u_dev, u_abs)

            # --- observers (innovation sampled at the step start) --------------
            subtract(y_used, Z0, e1)
            np.power(Lg, powers, gains)
            multiply(coeffs, gains, gains)
            multiply(ICn, u_dev, uch)
            Z_next, _, _, Lg_next = nxt
            _rk4_chain(Z, y_used, gains, uch, dt, out=Z_next,
                       scratch=chain_ws)
            gain_law(Lg, e1, full, L_max, l_const, out=Lg_next, scratch=ll)
            if frozen is not None:
                np.copyto(Z_next, Z, where=frozen)
                np.copyto(Lg_next, Lg, where=frozen)
            cur, nxt = nxt, cur
            if merged is not None:
                merged.step(y_used, u_dev, dt, L_max, l_const)

            # --- plant -----------------------------------------------------------
            _rhs_core(x_rows, u_abs, rhs_k, k_rows[0], rhs_ws)
            multiply(k1, half, s)
            add(s, x, s)
            _rhs_core(s_rows, u_abs, rhs_k, k_rows[1], rhs_ws)
            multiply(k2, half, s)
            add(s, x, s)
            _rhs_core(s_rows, u_abs, rhs_k, k_rows[2], rhs_ws)
            multiply(k3, full, s)
            add(s, x, s)
            _rhs_core(s_rows, u_abs, rhs_k, k_rows[3], rhs_ws)
            add(k2, k3, k2)
            multiply(k2, two, k2)
            add(k2, k1, k2)
            add(k2, k4, k2)
            multiply(k2, sixth, k2)
            add(x, k2, x)
        self.Z, self.Lg = cur[0], cur[3]
        ws.Z_spare, ws.Lg_spare = nxt[0], nxt[3]
        self.y_abs = ya

    def check(self, k0: int, k_end: int) -> bool:
        """Divergence verdict on rows ``k0 .. k_end - 1``.

        A row diverges when a state or logged estimate is not finite or an
        angle deviation exceeds pi in magnitude.  The first such row gets a
        ``diverged`` marker, the run's flag is set and its step is returned;
        None means every row passed.
        """
        seg = self.segment(k0, k_end)
        x = seg.x
        finite = (np.isfinite(x).all(axis=2)
                  & np.isfinite(seg.xhat).all(axis=2))
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

    def segment(self, k0: int, k1: int) -> TrajectoryLog:
        """Rows ``k0 .. k1 - 1`` as a log of views into the log arrays."""
        rows = slice(k0 - self.base(k0), k1 - self.base(k0))
        return TrajectoryLog(
            scenario_name=self.scn.name, t=np.arange(k0, k1) * self.dt,
            x=self.log_x[rows], xhat=self.log_xhat[rows],
            y_meas=self.log_ymeas[rows], y_used=self.log_yused[rows],
            L=self.log_L[rows], events=self.events, plans=self.plans,
            unrecoverable=self.unrecoverable, diverged=self.diverged, row0=k0,
            rows=k1 - k0)

    def emit(self, k0: int, k1: int, consumer) -> None:
        """Reduce the checked rows ``k0 .. k1 - 1`` into the recovery
        windows and, through the module global
        ``_attach_interaction_diagnostics``, the interaction reductions; then
        hand them to ``consumer``, if any."""
        base = self.base(k0)
        x = self.log_x[k0 - base:k1 - base]
        self.windows.add(k0, x)
        s = self.stride
        j0, j1 = -(-k0 // s), -(-k1 // s)   # samples of rows k0 .. k1 - 1
        _attach_interaction_diagnostics(
            x[j0 * s - k0::s], self.coupling, self.Tn,
            self.interaction_peak[j0:j1], self.chain_activity[j0:j1])
        if consumer is not None:
            consumer(self.segment(k0, k1))

    def finish(self, rows: int) -> TrajectoryLog:
        """The run's summaries, cut after ``rows`` rows, with ``t`` and the
        row arrays when the row store holds every row."""
        log = (self.segment(0, rows) if len(self.log_x) > self.n_steps else
               TrajectoryLog(self.scn.name, events=self.events,
                             plans=self.plans, diverged=self.diverged,
                             unrecoverable=self.unrecoverable))
        j = -(-rows // self.stride)     # samples of rows 0 .. rows - 1
        log.rows, log.windows = rows, self.windows.close(rows)
        log.diag_stride = self.stride
        log.interaction_peak = self.interaction_peak[:j]
        log.chain_activity = self.chain_activity[:j]
        return log


def run_scenario(scn: Scenario, seed: int = 0,
                 consumer=None) -> TrajectoryLog:
    """Execute one scenario on the shared RK4 grid and return its log.

    The step-k row logs the state, estimates, consumed measurements and
    gains at t = k*dt before that step's integration.  Fault activations
    and diagnosis switches take effect at the top of their grid step, so a
    switch at t influences the measurement consumed at t.

    The run is cut into segments at its event steps and, within those,
    every ``DIVERGENCE_CHECK_STEPS`` steps.  After each segment the
    divergence check runs on the rows just logged; a trip ends the run with
    the ``diverged`` flag set and the log cut after the row that tripped.

    Without a ``consumer`` the row store holds every row and the returned
    log carries them.  With one, the store holds one
    ``DIVERGENCE_CHECK_STEPS`` block: each checked segment, cut after a row
    that tripped, is passed to ``consumer(segment)`` as a
    :class:`TrajectoryLog` of its rows (views that the next segment may
    overwrite), and the returned log holds rows only if the run fits in one
    block.  Either way it carries its row count and the summaries that
    :func:`build_report` reads.

    ``seed`` seeds the measurement noise; it must be a nonnegative integer
    (``ValueError`` if negative, ``TypeError`` if not an integer) even when
    the scenario has no noise, and then it is not used.
    """
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    scn.validate()
    rows = int(round(scn.horizon / scn.dt)) + 1
    eng = _Engine(scn, seed, rows if consumer is None
                  else min(rows, DIVERGENCE_CHECK_STEPS))
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
                k_end = tripped + 1
            eng.emit(k, k_end, consumer)
            if tripped is not None:
                return eng.finish(k_end)
            k = k_end
        if phase == 0:
            eng.activate(scn.faults[i], step)
        elif phase == 1:
            eng.diagnose(scn.faults[i], step)
    return eng.finish(rows)


def _diag_stride(rows: int, max_samples: int = DIAG_SAMPLES) -> int:
    """Row stride of the interaction diagnostic for a run of ``rows`` rows
    planned, so that it samples at most about ``max_samples`` rows."""
    return max(1, rows // max_samples)


def _chain_coupling(Gint, Tn) -> np.ndarray:
    """(3n, 3n) map of a flat (n, 3) state row to its chain-coordinate
    interactions, row ``3 i + k`` machine i's row k of ``Tn[i] @ sum_j
    Gint[i, j] @ x_j``; built per machine, as ``Tn[i]`` times its rows."""
    n = len(Tn)
    rows = Gint.transpose(0, 2, 1, 3).reshape(n, N_STATES, N_STATES * n)
    return np.matmul(Tn, rows).reshape(N_STATES * n, N_STATES * n)


def _attach_interaction_diagnostics(x: np.ndarray, coupling: np.ndarray,
                                    Tn: np.ndarray, peak: np.ndarray,
                                    activity: np.ndarray) -> None:
    """Reduce the sampled (samples, n, 3) state rows ``x`` into the
    interaction-bound diagnostic's (samples, 3) ``peak`` and ``activity``,
    ``ROW_BLOCK`` rows at a time: ``peak[s, k]`` is the max over machines of
    |interaction| in chain row k (the ``coupling`` of :func:`_chain_coupling`)
    and ``activity[s, k]`` the sum over machines i and chain rows l <= k of
    |z_il|, the true chain state ``z_i = Tn[i] @ x_i``.  Both products are
    machine-major, (n, 3, rows), so the reductions over machines combine
    whole contiguous slabs."""
    n = x.shape[1]
    scratch = np.empty(min(len(x), ROW_BLOCK) * N_STATES * n)  # one block
    for r0 in range(0, len(x), ROW_BLOCK):
        block = x[r0:r0 + ROW_BLOCK]
        b = len(block)
        buf = scratch[:b * N_STATES * n].reshape(n, N_STATES, b)
        np.matmul(coupling, block.reshape(b, -1).T, buf.reshape(-1, b))
        np.max(np.abs(buf, buf), axis=0, out=peak[r0:r0 + b].T)
        np.matmul(Tn, block.transpose(1, 2, 0), buf)
        np.cumsum(np.abs(buf, buf).sum(axis=0), axis=0,
                  out=activity[r0:r0 + b].T)


def _row_peaks(a: np.ndarray) -> np.ndarray:
    """Per-row max |a| over the trailing axes, read in ``ROW_BLOCK`` rows.

    Equal to ``np.max(np.abs(a), axis=(1, ...))``, NaN rows included, but
    the |a| temporary is one block rather than a copy of ``a``.
    """
    out = np.empty(len(a))
    axes = tuple(range(1, a.ndim))
    for r0 in range(0, len(a), ROW_BLOCK):
        np.max(np.abs(a[r0:r0 + ROW_BLOCK]), axis=axes,
               out=out[r0:r0 + ROW_BLOCK])
    return out


def _grid_rows(rows: int, dt: float, t0: float, t1: float) -> tuple:
    """``(lo, hi)``: rows ``lo .. hi - 1`` of ``0 .. rows - 1`` are those
    with ``t0 <= k * dt <= t1`` on the grid times."""
    def t(k):
        return k * dt
    grid = range(rows)
    return (bisect.bisect_left(grid, t0, key=t),
            bisect.bisect_right(grid, t1, key=t))


class _RecoveryWindows:
    """Each fault's recovery maxima, folded in as the rows of a run of at
    most ``rows`` rows arrive.

    Fault i's window is the rows with ``t_fault <= k*dt <= t_end`` and its
    tail those with ``max(t_fault, t_end - settling_window) <= k*dt <=
    t_end``, where ``t_end`` is the next fault's time, or the log's last
    row time for the last fault.  :meth:`add` folds a chunk's row peaks
    (each row's max |x|) into the maxima of every window and tail that it
    meets.  The last tail ends where the run ends, which a divergence trip
    can cut, so :meth:`close` takes it from a ring of the last row peaks:
    a tail spans at most ``settling_window / dt + 1`` rows, one more for
    the rounding of ``int``.  Row peaks are >= 0 or NaN, so each max starts
    at 0.0, which is what an empty window reads and which moves no other
    max, and ``np.maximum`` carries NaN.
    """

    def __init__(self, scn, rows: int):
        self.dt, self.settling = scn.dt, scn.settling_window
        self.times = times = [f.t_fault for f in scn.faults]
        # per fault: (window lo, hi, tail lo) rows; the last tail waits
        self.spans = []
        for i, t0 in enumerate(times):
            t1 = times[i + 1] if i + 1 < len(times) else (rows - 1) * self.dt
            lo, hi = _grid_rows(rows, self.dt, t0, t1)
            tail = (_grid_rows(rows, self.dt, max(t0, t1 - self.settling),
                               t1)[0] if i + 1 < len(times) else hi)
            self.spans.append((lo, hi, tail))
        self.maxima = np.zeros((len(times), 2))
        self.ring = (np.empty(min(rows, int(self.settling / self.dt) + 2))
                     if times else None)

    def add(self, k0: int, x: np.ndarray) -> None:
        """Fold the (rows, ...) state rows ``x``, run rows ``k0`` on."""
        if not self.spans:
            return
        peaks = _row_peaks(x)
        k1 = k0 + len(peaks)
        for (lo, hi, tail), acc in zip(self.spans, self.maxima):
            for j, first in enumerate((lo, tail)):
                a, b = max(first, k0), min(hi, k1)
                if a < b:
                    acc[j] = np.maximum(acc[j], peaks[a - k0:b - k0].max())
        start = max(k0, k1 - len(self.ring))
        self.ring.put(range(start, k1), peaks[start - k0:], mode="wrap")

    def close(self, rows: int) -> list:
        """``(peak, tail_max)`` per fault for a log of ``rows`` rows."""
        if self.spans:
            t_last = (rows - 1) * self.dt
            lo, hi = _grid_rows(rows, self.dt,
                                max(self.times[-1], t_last - self.settling),
                                t_last)
            if lo < hi:
                self.maxima[-1, 1] = self.ring.take(range(lo, hi),
                                                    mode="wrap").max()
        return [(float(p), float(t)) for p, t in self.maxima]


def recovery_summary(scn: Scenario, log: TrajectoryLog) -> list:
    """Per-fault recovery verdicts from the log's window maxima,
    ``log.windows``, and its row count, on the grid times ``k * scn.dt``.

    For each fault the window runs to the next fault (or the log's last
    row); the verdict is "recovered" when the deviation infinity-norm over
    the window's final settling-window stretch, ``tail_max``, stays below
    5 % of the window ``peak``.  A window that a divergence verdict cut
    short reads "diverged", and a fault diagnosed as unrecoverable reads
    "unrecoverable".  A window is the rows with ``t_start <= t <= t_end``
    (:class:`_RecoveryWindows`).
    """
    if len(log.windows) != len(scn.faults):
        raise ValueError(
            f"the log carries {len(log.windows)} recovery windows for "
            f"{len(scn.faults)} faults; pass the log that run_scenario "
            "returns for this scenario")
    out = []
    t_last = (log.rows - 1) * scn.dt
    fault_times = [f.t_fault for f in scn.faults]
    for i, (f, (peak, tail_max)) in enumerate(zip(scn.faults, log.windows)):
        t_start = f.t_fault
        t_end = fault_times[i + 1] if i + 1 < len(fault_times) else t_last
        verdict = "recovered" if (peak > 0 and tail_max < 0.05 * peak) \
            else "not-recovered"
        if log.diverged and t_end >= t_last:
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
    """Write the log's rows with the pinned column layout.

    Columns: ``t`` then, per subsystem, ``sub<i>_x1..x3, sub<i>_xhat1..x3,
    sub<i>_y, sub<i>_L``, and a trailing ``event`` column holding the
    markers raised at that step (';'-joined) or empty.  A log starting at
    row 0 replaces ``path`` and writes the header; a later segment of a
    streamed run (``row0 > 0``) is appended to it.
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
    # rows formatted from one scratch array; their Python floats and
    # strings, about 2.5 kB per row at n = 5, are the writer's transient
    block = 256
    scratch = np.empty((min(rows, block), 1 + 8 * n))
    per_sub = scratch[:, 1:].reshape(-1, n, 8)     # a view into scratch
    with open(path, "a" if log.row0 else "w", newline="") as fh:
        if not log.row0:
            fh.write(",".join(header) + "\n")
        for r0 in range(0, rows, block):
            r1 = min(rows, r0 + block)
            k = r1 - r0
            scratch[:k, 0] = log.t[r0:r1]
            per_sub[:k, :, 0:3] = log.x[r0:r1]
            per_sub[:k, :, 3:6] = log.xhat[r0:r1]
            per_sub[:k, :, 6] = log.y_used[r0:r1]
            per_sub[:k, :, 7] = log.L[r0:r1]
            fh.write("".join(
                line % (*row, ";".join(events.get(r, ())))
                for r, row in enumerate(scratch[:k].tolist(),
                                        log.row0 + r0)))


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
