"""Sensor-fault reconfiguration: virtual sensors and subsystem augmentation.

When a subsystem keeps enough output information after a sensor fault, its
measurement vector is rebuilt from the surviving rows plus the observer
estimate (virtual sensor).  When observability is lost outright, the faulty
subsystem is merged with neighbours until the merged system is observable
from the neighbours' sensors.  Candidate sets are screened one cardinality
at a time: structurally, then numerically and for stability, then for a
single-output chain form (the merged observer needs one), and ranked by a
Gramian-based cost.

The structural, numeric and stability screens judge the coupled components
of a set's members, not the whole set.  No ``Gint`` block links two
components, and each member's outputs read only its own states, so the
merged ``A`` and ``C`` are block-diagonal over the components up to a
permutation.  Every state of the set reaches a measured state exactly when
every component's states do, and the set's eigenvalues are the union of its
components'.  So are the singular values of its observability matrix when
each component's matrix has as many power blocks as the set has states: the
Kalman verdict, every singular value above ``tol`` times the largest,
becomes the smallest component minimum above ``tol`` times the largest
component maximum.  When the faulty member's component fails its own Kalman
test, the set fails too, whatever its other components give.  Only the
sets that pass all three screens are gathered whole.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .observability import (
    CostReport,
    StateSpace,
    ZeroPattern,
    cost_J,
    hf_norm_sq,
    is_hurwitz,
    kalman_rank,
    obs_gramian,
    obsv_singular_values,
    structurally_observable,
)
from .observer import ChainForm, to_chain_form
from .power_model import N_STATES, LinearizedPlant

__all__ = [
    "FaultEvent",
    "AugmentedSystem",
    "ReconfigPlan",
    "default_P",
    "virtual_sensor",
    "fault_output_map",
    "augment",
    "evaluate_candidate",
    "rftc_select",
]

log = logging.getLogger(__name__)

FAULT_KINDS = ("gain", "stuck", "total-loss")

MODE_VIRTUAL_SENSOR = "virtual-sensor"
MODE_AUGMENTATION = "augmentation"
MODE_UNRECOVERABLE = "unrecoverable"


@dataclass(frozen=True)
class FaultEvent:
    """One sensor fault: location, kind and detection latency.

    ``subsystem`` is 1-based.  ``factor`` is required for gain faults;
    ``stuck_value`` optionally pins a stuck sensor to a fixed absolute
    reading (rad, like a healthy sensor's output; the loop consumes it minus
    the operating-point angle).  Without it the sensor holds its last
    pre-fault reading.  ``fdi_delay`` is the time
    the diagnosis layer needs before the fault location and magnitude become
    available to the reconfiguration logic.
    """

    t_fault: float
    subsystem: int
    kind: str
    fdi_delay: float
    sensor_row: int = 0
    factor: Optional[float] = None
    stuck_value: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.t_fault < 0.0:
            raise ValueError(f"t_fault must be non-negative, got {self.t_fault}")
        if self.fdi_delay < 0.0:
            raise ValueError(f"fdi_delay must be non-negative, got {self.fdi_delay}")
        if self.subsystem < 1:
            raise ValueError(f"subsystem ids are 1-based, got {self.subsystem}")
        if self.kind == "gain" and self.factor is None:
            raise ValueError("gain faults require a factor")
        if self.sensor_row < 0:
            raise ValueError(f"sensor_row must be non-negative, got {self.sensor_row}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultEvent":
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown fault event fields: {sorted(extra)}")
        return cls(**d)


def default_P(C, faulty_rows) -> np.ndarray:
    """Identity selector with the faulty sensor rows zeroed."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    p = C.shape[0]
    P = np.eye(p)
    for r in faulty_rows:
        if not 0 <= r < p:
            raise ValueError(f"faulty row {r} out of range for {p} output rows")
        P[r, r] = 0.0
    return P


def virtual_sensor(y_f, x_hat, C, C_f, P) -> np.ndarray:
    """Reconstructed output: trusted rows pass through, the rest come from
    the estimate.

    Computes ``P y_f + (C - P C_f) x_hat``.  When the estimate is exact and
    P annihilates every corrupted row, the reconstruction equals the healthy
    output C x regardless of the fault map C_f.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    C_f = np.atleast_2d(np.asarray(C_f, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    y_f = np.asarray(y_f, dtype=float).ravel()
    x_hat = np.asarray(x_hat, dtype=float).ravel()
    p, m = C.shape
    if C_f.shape != (p, m):
        raise ValueError(f"C_f shape {C_f.shape} does not match C shape {C.shape}")
    if P.shape != (p, p):
        raise ValueError(f"P shape {P.shape} must be ({p}, {p})")
    if y_f.size != p:
        raise ValueError(f"y_f has {y_f.size} entries, expected {p}")
    if x_hat.size != m:
        raise ValueError(f"x_hat has {x_hat.size} entries, expected {m}")
    return P @ y_f + (C - P @ C_f) @ x_hat


def fault_output_map(fault: FaultEvent, C: np.ndarray) -> np.ndarray:
    """Post-fault output matrix for a subsystem with healthy output map C.

    Gain faults scale the affected row; stuck and total-loss faults leave no
    state information in it, so the row is zeroed.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    C_f = C.copy()
    r = fault.sensor_row
    if r >= C.shape[0]:
        raise ValueError(
            f"fault addresses sensor row {r} but the subsystem has "
            f"{C.shape[0]} output rows"
        )
    if fault.kind == "gain":
        C_f[r, :] *= fault.factor
    else:
        C_f[r, :] = 0.0
    return C_f


@dataclass(frozen=True)
class AugmentedSystem:
    """State-space blocks of a merged candidate subsystem set.

    States are laid out member-by-member in the order of ``ids`` (the faulty
    subsystem first).  ``C`` has the faulty member's output rows zeroed;
    ``C_healthy`` keeps them intact for functionality-gap evaluation.
    ``index_map`` maps each 1-based subsystem id to its state slice.
    """

    ids: tuple
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    C_healthy: np.ndarray
    index_map: dict
    faulty_id: int

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def _dead_rows(faulty_rows: Optional[Sequence[int]], p: int,
               faulty_id: int) -> list:
    """The faulty member's zeroed output rows (default: all ``p``)."""
    rows = list(range(p) if faulty_rows is None else faulty_rows)
    for r in rows:
        if not 0 <= r < p:
            raise ValueError(
                f"faulty row {r} out of range for subsystem {faulty_id}"
            )
    return rows


def _gather(lin: LinearizedPlant, sub: np.ndarray, faulty: int,
            dead_rows: list):
    """``(A, B, C, C_healthy)`` stacks of merged sets of machines.

    Row ``k`` of ``sub`` lists one set's 0-based members; their states,
    inputs and output rows are laid out member by member in that order, as
    rows and columns of the cached full-plant matrices picked by one fancy
    index each.  ``C`` is ``C_healthy`` with rows ``dead_rows`` of machine
    ``faulty`` (0-based) zeroed wherever it is a member.
    """
    K, m = sub.shape
    n, p, d = lin.n, lin.Csub.shape[1], N_STATES * m
    idx = lin.state_index()[sub].reshape(K, d)
    A = lin.full_matrix()[idx[:, :, None], idx[:, None, :]]
    B = lin.full_input()[idx[:, :, None], sub[:, None, :]]
    C_healthy = lin.full_output().reshape(n, p, N_STATES * n)[
        sub[:, :, None, None], np.arange(p)[:, None], idx[:, None, None, :]
    ].reshape(K, m * p, d)
    C = C_healthy.copy()
    dead = np.zeros(p, dtype=bool)
    dead[dead_rows] = True
    C.reshape(K, m, p, d)[(sub == faulty)[:, :, None] & dead] = 0.0
    return A, B, C, C_healthy


def augment(ids: Sequence[int], lin: LinearizedPlant, faulty_id: int,
            faulty_rows: Optional[Sequence[int]] = None) -> AugmentedSystem:
    """Assemble the merged state space for a candidate subsystem set.

    ``ids`` are 1-based and must contain ``faulty_id``.  Own-dynamics blocks
    go on the diagonal and interaction blocks fill the off-diagonal; inputs
    and outputs are block-diagonal.  ``faulty_rows`` restricts the zeroed
    output rows of the faulty member (default: all of them, the total-loss
    case).
    """
    ids = tuple(int(i) for i in ids)
    n = lin.n
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate subsystem ids in {ids}")
    for i in ids:
        if not 1 <= i <= n:
            raise ValueError(f"unknown subsystem id {i}; plant has 1..{n}")
    if faulty_id not in ids:
        raise ValueError(f"faulty subsystem {faulty_id} missing from ids {ids}")

    A, B, C, C_healthy = _gather(
        lin, np.subtract(ids, 1)[None], faulty_id - 1,
        _dead_rows(faulty_rows, lin.Csub.shape[1], faulty_id))
    index_map = {i: slice(N_STATES * a, N_STATES * (a + 1))
                 for a, i in enumerate(ids)}
    return AugmentedSystem(ids=ids, A=A[0], B=B[0], C=C[0],
                           C_healthy=C_healthy[0], index_map=index_map,
                           faulty_id=faulty_id)


def _components(coupled: np.ndarray, sub: np.ndarray):
    """The coupled components of a stack of sets of machines.

    Row ``k`` of ``sub`` lists one set's 0-based members and ``coupled`` is
    the symmetric (n, n) coupling graph: ``coupled[i, j]`` when a
    ``Gint[i, j]`` or ``Gint[j, i]`` block is nonzero.  Members fall into
    the connected components of the graph restricted to the set.  Returns
    ``(comps, where)``: the distinct components of the stack as (U, n)
    machine masks, and the (K, m) row of ``comps`` holding each member.
    """
    K, m = sub.shape
    reach = coupled[sub[:, :, None], sub[:, None, :]] | np.eye(m, dtype=bool)
    for _ in range((m - 1).bit_length()):
        reach = reach @ reach
    members = np.zeros((K * m, len(coupled)), dtype=bool)
    members.reshape(K, m, -1)[np.arange(K)[:, None, None],
                              np.arange(m)[:, None], sub[:, None, :]] = reach
    # Sort the masks as 64-bit words (np.unique on boolean rows is far
    # slower) and number the runs of equal ones.
    bits = np.packbits(members, axis=-1)
    words = np.zeros((K * m, -(-bits.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, :bits.shape[1]] = bits
    words = words.view(np.uint64)
    order = np.lexsort(words.T)
    first = np.ones(K * m, dtype=bool)
    first[1:] = (words[order[1:]] != words[order[:-1]]).any(axis=1)
    where = np.empty(K * m, dtype=np.intp)
    where[order] = np.cumsum(first) - 1
    return members[order[first]], where.reshape(K, m)


def _by_component(comps: np.ndarray, memo: dict, judge) -> np.ndarray:
    """``judge``'s value for each component (row of machine masks).

    ``memo`` maps a component's mask bytes to its value; the components it
    lacks go to ``judge`` as one (G, s) stack of 0-based machine ids per
    size s, which returns G values.
    """
    keys = [c.tobytes() for c in comps]
    new = np.array([key not in memo for key in keys], dtype=bool)
    sizes = comps.sum(axis=1)
    for size in set(sizes[new].tolist()):
        pick = np.flatnonzero(new & (sizes == size))
        ids = np.nonzero(comps[pick])[1].reshape(len(pick), size)
        memo.update(zip([keys[i] for i in pick], judge(ids)))
    return np.array([memo[key] for key in keys])


def _single_output_chain(A, B, C, tol: float):
    """Chain form of ``(A, B)`` seen through one measured row of ``C`` (each
    in turn, then their sum) and the output weights that pick that row, or
    ``None`` when no such row gives one."""
    rows = np.flatnonzero(C.any(axis=1))
    trials = [[r] for r in rows]
    if len(rows) > 1:
        trials.append(rows)
    for picked in trials:
        c = C[picked].sum(axis=0)
        try:
            chain = to_chain_form(StateSpace(A=A, B=B, C=c), tol)
        except ValueError:
            continue
        w = np.zeros(C.shape[0])
        w[picked] = 1.0
        return chain, w
    return None


def _report(cand: tuple, structural: bool, observable: bool, stable: bool,
            gathered, alpha: float, xi: float, tol: float):
    """The screens' verdicts on one candidate and, when admissible, its
    price.

    ``gathered`` is the set's ``(A, B, C, C_healthy)``, read only when the
    set passed all three screens (``None`` may stand in otherwise).
    Returns the report and, for a priced set, the ``(chain, weights)`` pair
    of its merged observer; a set without a single-output chain form is
    reported unobservable and not priced.
    """
    if not structural:
        return CostReport(candidate=cand, observable=False, stable=stable,
                          reason="structurally unobservable"), None
    if not observable:
        return CostReport(candidate=cand, observable=False, stable=stable,
                          reason="numerically unobservable"), None
    if not stable:
        return CostReport(candidate=cand, observable=True, stable=False,
                          reason="merged state matrix is not Hurwitz"), None
    A, B, C, C_healthy = gathered
    observer = _single_output_chain(A, B, C, tol)
    if observer is None:
        return CostReport(candidate=cand, observable=False, stable=True,
                          reason="no single-output chain form"), None
    # the stability screen has already found A Hurwitz
    Wo = obs_gramian(A, C, assume_hurwitz=True)
    trace_Wo = float(np.trace(Wo))
    hf_sq = hf_norm_sq(A, B, C_healthy, C, assume_hurwitz=True)
    hf = float(np.sqrt(max(hf_sq, 0.0)))
    J = cost_J(trace_Wo, hf, alpha, xi)
    return CostReport(candidate=cand, observable=True, stable=True,
                      trace_Wo=trace_Wo, rho=1.0 / trace_Wo, hf_norm=hf,
                      J=J), observer


def evaluate_candidate(aug: AugmentedSystem, alpha: float, xi: float,
                       tol: float = 1e-9) -> CostReport:
    """Screen one candidate set and, when admissible, price it.

    The structural filter catches decoupled members, the whole-set Kalman
    test and the stability screen on the merged state matrix follow, then
    the single-output chain form the merged observer needs; this is the
    whole-set reference for the per-component screening in
    :func:`rftc_select`.
    The cost combines the observability Gramian trace with the
    output-functionality gap caused by the dead sensor rows.
    """
    structural = structurally_observable(ZeroPattern(A=aug.A != 0,
                                                     C=aug.C != 0))
    observable = structural and kalman_rank(aug.A, aug.C, tol)[1]
    return _report(aug.ids, structural, observable, is_hurwitz(aug.A),
                   (aug.A, aug.B, aug.C, aug.C_healthy), alpha, xi, tol)[0]


@dataclass
class ReconfigPlan:
    """Outcome of the reconfiguration search for one fault.

    An augmentation plan carries its merged observer: the chain form of the
    ``augment_set`` members (states laid out in that order, the faulty
    machine first) and the ``output_weights`` that sum their measured rows
    into the scalar it is driven by.  Both are None in the other modes: a
    virtual sensor keeps the faulty subsystem's nominal chain observer, fed
    the reading divided by the diagnosed gain factor.  That is
    :func:`virtual_sensor` with ``P = 1 / factor``; with this plan's ``P``
    (:func:`default_P`, the faulty rows zeroed) :func:`virtual_sensor`
    returns the estimate's output ``C x_hat`` and no innovation.
    """

    mode: str
    faulty_id: int
    P: Optional[np.ndarray] = None
    augment_set: Optional[tuple] = None
    chain: Optional[ChainForm] = None
    output_weights: Optional[np.ndarray] = None
    J: Optional[float] = None
    candidates: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "faulty_id": self.faulty_id,
            "P": None if self.P is None else self.P.tolist(),
            "augment_set": None if self.augment_set is None
            else list(self.augment_set),
            "J": self.J,
            "candidates": [c.to_dict() for c in self.candidates],
        }


def rftc_select(faulty_id: int, lin: LinearizedPlant, alpha: float, xi: float,
                *, faulty_C=None, faulty_rows: Optional[Sequence[int]] = None,
                j_max: Optional[float] = None, tol: float = 1e-9,
                excluded_ids: Sequence[int] = ()) -> ReconfigPlan:
    """Pick the cheapest admissible reconfiguration for a faulty subsystem.

    ``faulty_C`` is the subsystem's post-fault output matrix (``None`` means
    every row is dead).  If the pair (own dynamics, post-fault outputs) is
    still observable the plan is a virtual sensor.  Otherwise candidate
    merge sets are enumerated in ascending cardinality (ids sorted, then
    lexicographic), screened (a set needs a single-output chain form for
    its merged observer), priced, and the lowest-cost admissible set at
    the smallest workable cardinality wins; ties go to the lexicographically
    smallest id tuple.  ``excluded_ids`` removes subsystems that cannot help
    (for example ones currently faulty themselves).

    The sets of one cardinality are screened as one stack, whose coupled
    components (connected groups of a set's members over the ``Gint``
    blocks, either direction) are labelled once; the merged matrices are
    block-diagonal over them (module docstring).  Only the sets that pass
    the structural, numeric and stability screens are gathered whole, and
    only admissible sets are priced, one at a time.

    - Structure and stability: each distinct component is judged once per
      call, on its gathered matrices (the faulty member's dead rows
      zeroed).  A set is structurally observable when all its components
      are, exactly as the whole set would be.  It is stable when all its
      components are Hurwitz against their own margins 1e-9 max(1,
      |A_c|_1); only an eigenvalue whose real part lies between a
      component's margin and the (never smaller) margin of the whole set
      could be judged differently from a whole-set :func:`is_hurwitz`.
    - Observability: for a set of d states, each component gets the
      largest and smallest singular values of its observability matrix
      with d power blocks, once per cardinality and one stacked SVD per
      component size.  The faulty member's component comes first: a set
      whose faulty component fails its own test is unobservable, and only
      the other structurally observable sets have their helper components
      judged.  The set is observable when the smallest minimum exceeds
      ``tol`` times the largest maximum, which is the whole-set
      :func:`kalman_rank` count up to rounding.

    Without ``j_max`` every admissible candidate is acceptable; a warning is
    logged because an unbounded cost cap accepts arbitrarily poor sets.
    """
    n = lin.n
    if not 1 <= faulty_id <= n:
        raise ValueError(f"unknown subsystem id {faulty_id}; plant has 1..{n}")
    f = faulty_id - 1
    Csub = lin.Csub[f]
    rows = _dead_rows(faulty_rows, Csub.shape[0], faulty_id)

    if faulty_C is not None:
        faulty_C = np.atleast_2d(np.asarray(faulty_C, dtype=float))
        if np.any(faulty_C):
            _, still_obs = kalman_rank(lin.A[f], faulty_C, tol)
            if still_obs:
                return ReconfigPlan(
                    mode=MODE_VIRTUAL_SENSOR,
                    faulty_id=faulty_id,
                    P=default_P(Csub, rows),
                )

    if j_max is None:
        log.warning(
            "rftc_select called without a cost cap; treating J_max as +inf"
        )
        j_max = np.inf

    helpers = sorted(i for i in range(1, n + 1)
                     if i != faulty_id and i not in set(excluded_ids))
    coupled = lin.Gint.any(axis=(2, 3))
    coupled |= coupled.T
    screens_memo: dict = {}

    def screens(ids):
        A_c, _, C_c, _ = _gather(lin, ids, f, rows)
        return zip(structurally_observable(ZeroPattern(A=A_c != 0,
                                                       C=C_c != 0)).tolist(),
                   is_hurwitz(A_c).tolist())

    reports: list[CostReport] = []
    for card in range(1, len(helpers) + 1):
        admissible = []
        sets = [(faulty_id,) + combo
                for combo in itertools.combinations(helpers, card)]
        sub = np.subtract(sets, 1)
        m = card + 1
        extremes_memo: dict = {}

        def extremes(ids):
            A_c, _, C_c, _ = _gather(lin, ids, f, rows)
            s = obsv_singular_values(A_c, C_c, N_STATES * m)
            return s[:, [0, -1]].tolist()

        comps, where = _components(coupled, sub)

        def component_extremes(labels):
            needed = np.zeros(len(comps), dtype=bool)
            needed[labels] = True
            ext = np.zeros((len(comps), 2))
            ext[needed] = _by_component(comps[needed], extremes_memo,
                                        extremes).reshape(-1, 2)
            return ext[labels]

        structural, stable = _by_component(comps, screens_memo,
                                           screens)[where].all(axis=1).T
        # The faulty member's component (column 0) first: when it fails its
        # own test, its minimum is at most tol times its maximum, so at most
        # tol times the set's.  Only the sets it passes need the others.
        judged = np.flatnonzero(structural)
        ext = component_extremes(where[judged, 0])
        judged = judged[ext[:, 1] > tol * ext[:, 0]]
        ext = component_extremes(where[judged])
        observable = np.zeros(len(sets), dtype=bool)
        # Smallest component minimum against the largest maximum.
        observable[judged] = (ext[..., 1].min(axis=1)
                              > tol * ext[..., 0].max(axis=1))
        survivors = zip(*_gather(lin, sub[structural & observable & stable],
                                 f, rows))
        for ids, *verdict in zip(sets, structural.tolist(),
                                 observable.tolist(), stable.tolist()):
            rep, observer = _report(ids, *verdict,
                                    next(survivors) if all(verdict) else None,
                                    alpha, xi, tol)
            reports.append(rep)
            if rep.J is not None and rep.J <= j_max:
                admissible.append((rep, observer))
        if admissible:
            best, (chain, weights) = min(
                admissible, key=lambda a: (a[0].J, a[0].candidate))
            return ReconfigPlan(
                mode=MODE_AUGMENTATION,
                faulty_id=faulty_id,
                P=default_P(Csub, rows),
                augment_set=best.candidate,
                chain=chain,
                output_weights=weights,
                J=best.J,
                candidates=reports,
            )
    return ReconfigPlan(
        mode=MODE_UNRECOVERABLE,
        faulty_id=faulty_id,
        candidates=reports,
    )
