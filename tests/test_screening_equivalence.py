"""Candidate screening against the loop-built reference implementations.

``rftc_select`` reads the structural, stability and Kalman verdicts of each
cardinality's candidates off their coupled components, each gathered out of
the cached full-plant matrices and judged once, and gathers whole only the
sets that pass all three: the structural screen walks whole frontiers,
``is_hurwitz`` and the Kalman test take stacks, and ``obsv_matrix`` fills a
preallocated array.  Each must give exactly what the block-copy,
depth-first, ``vstack``, whole-set and one-matrix-at-a-time versions give,
down to the last bit of every reported cost; the per-component Kalman
verdict may differ from the whole set's only where rounding decides it.
"""

import functools


import numpy as np
from hypothesis import event, given, settings, strategies as st

import _oracles as orc
import gridftc.observability
import gridftc.reconfig
from gridftc.desk_models import desk4_plant, desk5_plant
from gridftc.observability import (
    ZeroPattern,
    is_hurwitz,
    kalman_rank,
    obsv_matrix,
    obsv_singular_values,
    structurally_observable,
)
from gridftc.power_model import (
    GeneratorParams,
    LinearizedPlant,
    NetworkModel,
    construct_equilibrium,
    linearize,
)
from gridftc.reconfig import augment, rftc_select
from gridftc.sim_engine import _MergedObserver

# Derandomized, so every tier-1 run draws the same examples.
SEARCH = settings(derandomize=True, deadline=None, database=None,
                  max_examples=20)
QUICK = settings(derandomize=True, deadline=None, database=None,
                 max_examples=150)


def coupled_plant(n, seed, density):
    """Linearized n-machine plant on a random sparse symmetric network."""
    rng = np.random.default_rng(seed)
    return _network_plant(n, rng, lambda i, j: rng.random() < density)


def ring_coupled_plant(n, seed):
    """Linearized n-machine plant whose machine i is tied to i - 1 and i + 1
    (mod n) only."""
    return _network_plant(n, np.random.default_rng(seed),
                          lambda i, j: j - i in (1, n - 1))


def _network_plant(n, rng, tied):
    """Random machines on the ties ``tied(i, j)`` (i < j) picks, drawn in
    order from ``rng``."""
    u = rng.uniform
    G = np.diag(u(0.25, 0.30, n))
    B = np.diag(-u(1.40, 1.60, n))
    for i in range(n):
        for j in range(i + 1, n):
            if tied(i, j):
                G[i, j] = G[j, i] = u(0.02, 0.08)
                B[i, j] = B[j, i] = u(0.30, 0.70)
    gens = [GeneratorParams(D=u(1.5, 3.0), H=u(4.0, 6.0), omega0=100 * np.pi,
                            Pm=0.0, Tdo_prime=u(5.0, 7.5), xd=u(1.4, 1.6),
                            xd_prime=u(0.27, 0.32), xad=u(1.2, 1.35))
            for _ in range(n)]
    net = NetworkModel(G=G, B=B)
    gens, op = construct_equilibrium(0.2 + u(-0.15, 0.15, n),
                                     u(1.02, 1.08, n), gens, net)
    return linearize(op, gens, net)


def directed_plant(n, seed, density, p=1):
    """Random blocks with one-way couplings and ``p`` outputs per member."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, 3, 3)) - 2.5 * np.eye(3)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    Gint = 0.4 * rng.normal(size=(n, n, 3, 3)) * mask[:, :, None, None]
    Csub = np.zeros((n, p, 3))
    Csub[:, 0, 0] = 1.0
    if p > 1:
        Csub[:, 1:, :] = rng.normal(size=(n, p - 1, 3))
    return LinearizedPlant(A=A, Gint=Gint, Bsub=rng.normal(size=(n, 3)),
                           Csub=Csub)


DESK4 = desk4_plant().linearize()
DESK5 = desk5_plant().linearize()

plants = st.one_of(
    st.builds(coupled_plant, st.integers(3, 8), st.integers(0, 2**32 - 1),
              st.sampled_from([0.25, 0.5, 1.0])),
    st.builds(directed_plant, st.integers(3, 8), st.integers(0, 2**32 - 1),
              st.sampled_from([0.15, 0.3, 0.6]), st.sampled_from([1, 2])),
)


@QUICK
@given(data=st.data(), n=st.integers(1, 10), p=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_augment_matches_block_copies(data, n, p, seed):
    lin = directed_plant(n, seed, 0.5, p=p)
    ids = data.draw(st.permutations(range(1, n + 1)))
    ids = ids[:data.draw(st.integers(1, n))]
    faulty = data.draw(st.sampled_from(ids))
    rows = data.draw(st.one_of(st.none(), st.lists(
        st.integers(0, p - 1), max_size=p, unique=True)))
    got = augment(ids, lin, faulty, faulty_rows=rows)
    ref = orc.augment_loops(ids, lin, faulty, faulty_rows=rows)
    assert got.ids == ref.ids and got.dim == ref.dim
    assert got.index_map == ref.index_map
    for name in ("A", "B", "C", "C_healthy"):
        g, r = getattr(got, name), getattr(ref, name)
        assert g.shape == r.shape and g.dtype == r.dtype
        assert g.tobytes() == r.tobytes(), name


@QUICK
@given(n=st.integers(1, 15), p=st.integers(1, 3),
       density=st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6]),
       out_density=st.sampled_from([0.0, 0.1, 0.4]),
       seed=st.integers(0, 2**32 - 1))
def test_structural_screen_matches_depth_first_search(n, p, density,
                                                      out_density, seed):
    rng = np.random.default_rng(seed)
    patt = ZeroPattern(A=rng.random((n, n)) < density,
                       C=rng.random((p, n)) < out_density)
    assert structurally_observable(patt) == \
        orc.structurally_observable_dfs(patt)


@QUICK
@given(n=st.integers(1, 12), p=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_obsv_matrix_is_bit_identical(n, p, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    C = rng.normal(size=(p, n))
    assert obsv_matrix(A, C).tobytes() == orc.obsv_matrix_plain(A, C).tobytes()
    c = C[0]
    assert obsv_matrix(A, c).tobytes() == orc.obsv_matrix_plain(A, c).tobytes()


@SEARCH
@given(data=st.data(), lin=plants,
       j_max=st.sampled_from([0.0, np.inf]))
def test_select_plans_match_oracle_search(data, lin, j_max):
    faulty = data.draw(st.integers(1, lin.n))
    p = lin.Csub.shape[1]
    rows = data.draw(st.one_of(st.none(), st.lists(
        st.integers(0, p - 1), max_size=p, unique=True)))
    others = [i for i in range(1, lin.n + 1) if i != faulty]
    excluded = data.draw(st.lists(st.sampled_from(others), max_size=2,
                                  unique=True))
    got = rftc_select(faulty, lin, 100.0, 50.0, j_max=j_max,
                      faulty_rows=rows, excluded_ids=excluded).to_dict()
    ref = orc.select_loops(faulty, lin, 100.0, 50.0, gridftc.observability,
                           j_max=j_max, faulty_rows=rows,
                           excluded_ids=excluded)
    assert got == ref
    if j_max == 0.0:
        assert len(got["candidates"]) == 2 ** (lin.n - 1 - len(excluded)) - 1


SEEDS = st.integers(0, 2**32 - 1)


@SEARCH
@given(data=st.data(), lin=st.one_of(
    st.builds(coupled_plant, st.integers(3, 8), SEEDS,
              st.sampled_from([0.25, 0.5, 1.0])),
    st.builds(ring_coupled_plant, st.integers(3, 9), SEEDS),
    st.builds(directed_plant, st.integers(3, 8), SEEDS,
              st.sampled_from([0.15, 0.3, 0.6]), st.just(2))))
def test_component_kalman_verdicts_match_whole_sets(data, lin):
    """Every numeric verdict of a worst-case search is the stacked
    whole-set ``kalman_rank`` verdict on the same cardinality, except where
    the whole set's s_min / (tol s_max) lies within 1e-6 of 1."""
    tol = 1e-9
    faulty = data.draw(st.integers(1, lin.n))
    p = lin.Csub.shape[1]
    rows = data.draw(st.one_of(st.none(), st.lists(
        st.integers(0, p - 1), max_size=p, unique=True)))
    reports = rftc_select(faulty, lin, 100.0, 50.0, j_max=0.0,
                          faulty_rows=rows, tol=tol).candidates
    assert len(reports) == 2 ** (lin.n - 1) - 1
    by_card: dict = {}
    for rep in reports:
        if rep.reason != "structurally unobservable":
            by_card.setdefault(len(rep.candidate), []).append(rep)
    for level in by_card.values():
        augs = [augment(rep.candidate, lin, faulty, faulty_rows=rows)
                for rep in level]
        A = np.array([aug.A for aug in augs])
        C = np.array([aug.C for aug in augs])
        _, whole = kalman_rank(A, C, tol)
        s = obsv_singular_values(A, C)
        ratio = s[:, -1] / (tol * s[:, 0])
        for rep, ok, r in zip(level, whole, ratio):
            if (rep.reason != "numerically unobservable") != ok:
                assert abs(r - 1.0) <= 1e-6, (rep.candidate, r)
                event(f"knife-edge set {rep.candidate}: ratio {r!r}")


@functools.lru_cache(maxsize=None)
def _ring12_oracle_plan():
    """The whole-set oracle's worst-case plan for machine 4 of the 12-machine
    ring."""
    return orc.select_loops(4, ring_coupled_plant(12, 5), 100.0, 50.0,
                            gridftc.observability, j_max=0.0)


def test_worst_case_search_gathers_only_admitted_sets(monkeypatch):
    """Outside the per-component judges, ``_gather`` sees only the sets that
    passed the structural, numeric and stability screens, 43 of 2,047 on
    this ring; the plan is still the whole-set oracle's."""
    lin = ring_coupled_plant(12, 5)
    gather = gridftc.reconfig._gather
    by_component = gridftc.reconfig._by_component
    judging, gathered = [], []

    def judge(*args):
        judging.append(True)
        try:
            return by_component(*args)
        finally:
            judging.pop()

    def counting(lin, sub, *args):
        if not judging:
            gathered.append(len(sub))
        return gather(lin, sub, *args)

    monkeypatch.setattr(gridftc.reconfig, "_by_component", judge)
    monkeypatch.setattr(gridftc.reconfig, "_gather", counting)
    got = rftc_select(4, lin, 100.0, 50.0, j_max=0.0).to_dict()
    passed = sum(rep["reason"] in ("", "no single-output chain form")
                 for rep in got["candidates"])
    assert sum(gathered) == passed
    assert got == _ring12_oracle_plan()


def test_worst_case_search_judges_each_ring_arc_once(monkeypatch):
    """A ring set splits into arcs of the ring, so a worst-case search hands
    the stability screen at most one matrix per distinct arc, n (n - 1) + 1
    of them, where judging whole sets takes 2^(n-1) - 1; the plan is still
    the whole-set oracle's."""
    n = 12
    lin = ring_coupled_plant(n, 5)
    judged = []

    def counting(A):
        judged.append(len(A) if A.ndim == 3 else 1)
        return is_hurwitz(A)

    monkeypatch.setattr(gridftc.reconfig, "is_hurwitz", counting)
    got = rftc_select(4, lin, 100.0, 50.0, j_max=0.0).to_dict()
    assert len(got["candidates"]) == 2 ** (n - 1) - 1
    assert sum(judged) <= n * (n - 1) + 1
    assert got == _ring12_oracle_plan()


def test_worst_case_search_takes_one_svd_per_ring_arc(monkeypatch):
    """The numeric screen hands the singular-value function one matrix per
    distinct arc it needs in each cardinality, 246 on this ring, where the
    whole-set Kalman test takes all 1,536 structurally observable sets; the
    plan is still the whole-set oracle's."""
    lin = ring_coupled_plant(12, 5)
    seen = []

    def counting(A, C, blocks=None):
        seen.append(len(A))
        return obsv_singular_values(A, C, blocks)

    monkeypatch.setattr(gridftc.reconfig, "obsv_singular_values", counting)
    got = rftc_select(4, lin, 100.0, 50.0, j_max=0.0).to_dict()
    structural = sum(rep["reason"] != "structurally unobservable"
                     for rep in got["candidates"])
    assert structural == 1536
    assert sum(seen) == 246
    assert got == _ring12_oracle_plan()


def _coupled_groups(lin, members):
    """The connected groups of ``members`` (0-based) over the ``Gint``
    blocks, either direction, as frozensets."""
    coupled = lin.Gint.any(axis=(2, 3))
    coupled |= coupled.T
    left, groups = set(members), []
    while left:
        group, todo = set(), [left.pop()]
        while todo:
            i = todo.pop()
            group.add(i)
            todo += [j for j in left if coupled[i, j]]
            left -= set(todo)
        groups.append(frozenset(group))
    return groups


def test_helper_arcs_skip_sets_whose_faulty_arc_fails(monkeypatch):
    """A set whose faulty member's arc fails its own Kalman test fails too,
    so no helper-only arc reaches the singular-value function for such a
    set: the helper arcs it receives are exactly those of structurally
    observable sets whose faulty arc passed."""
    lin = ring_coupled_plant(12, 5)
    f, tol = 3, 1e-9
    gather = gridftc.reconfig._gather
    last = []
    extremes = {}

    def remembering(lin, sub, *args):
        last[:] = [frozenset(row) for row in sub.tolist()]
        return gather(lin, sub, *args)

    def recording(A, C, blocks=None):
        s = obsv_singular_values(A, C, blocks)
        for arc, values in zip(last, s):
            extremes[blocks, arc] = values[0], values[-1]
        return s

    monkeypatch.setattr(gridftc.reconfig, "_gather", remembering)
    monkeypatch.setattr(gridftc.reconfig, "obsv_singular_values", recording)
    got = rftc_select(f + 1, lin, 100.0, 50.0, j_max=0.0, tol=tol)
    assert got.to_dict() == _ring12_oracle_plan()
    needed, spared = set(), set()
    for rep in got.candidates:
        if rep.reason == "structurally unobservable":
            continue
        blocks = 3 * len(rep.candidate)
        groups = _coupled_groups(lin, np.subtract(rep.candidate, 1))
        head = next(g for g in groups if f in g)
        s_max, s_min = extremes[blocks, head]
        helpers = {(blocks, g) for g in groups if g != head}
        (needed if s_min > tol * s_max else spared).update(helpers)
    assert {key for key in extremes if f not in key[1]} == needed
    assert spared - needed
@SEARCH
@given(data=st.data(),
       lin=plants | st.sampled_from([DESK4, DESK5]),
       j_max=st.sampled_from([0.0, 20.0, np.inf]))
def test_every_augmentation_plan_runs(data, lin, j_max):
    faulty = data.draw(st.integers(1, lin.n))
    plan = rftc_select(faulty, lin, 100.0, 50.0, j_max=j_max)
    if plan.mode != "augmentation":
        assert plan.chain is None and plan.output_weights is None
        return
    ids = plan.augment_set
    assert ids[0] == faulty and plan.chain.n == 3 * len(ids)
    p = lin.Csub.shape[1]
    assert plan.output_weights.shape == (p * len(ids),)
    assert not plan.output_weights[:p].any()
    xhat = np.random.default_rng(faulty).normal(size=(lin.n, 3))
    merged = _MergedObserver(plan, xhat)
    assert merged.L == 1.0
    assert np.allclose(merged.estimates(), xhat[np.subtract(ids, 1)].ravel(),
                       rtol=1e-6, atol=1e-6)


def _stack(rng, K, n, real_share):
    """K random n x n matrices, about ``real_share`` of them symmetric (real
    spectrum), each shifted so that some are Hurwitz and some are not."""
    A = rng.normal(size=(K, n, n))
    sym = rng.random(K) < real_share
    A[sym] = A[sym] + A[sym].transpose(0, 2, 1)
    return A - rng.uniform(-1.0, 3.0, size=(K, 1, 1)) * np.eye(n)


@QUICK
@given(K=st.integers(1, 6), n=st.integers(1, 8), p=st.integers(1, 3),
       real_share=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_screens_match_single_calls(K, n, p, real_share, seed):
    rng = np.random.default_rng(seed)
    A = _stack(rng, K, n, real_share)
    C = rng.normal(size=(K, p, n)) * (rng.random((K, p, n)) < 0.6)
    C[0] = 0.0   # an all-zero output map: s[0] == 0, rank 0
    patt = ZeroPattern(A=rng.random((K, n, n)) < 0.3, C=C != 0)

    stable = is_hurwitz(A)
    rank, ok = kalman_rank(A, C)
    O = obsv_matrix(A, C)
    reach = structurally_observable(patt)
    for got in (stable, ok, reach):
        assert got.shape == (K,) and got.dtype == bool
    for k in range(K):
        single = is_hurwitz(A[k])
        assert type(single) is bool and stable[k] == single
        r, o = kalman_rank(A[k], C[k])
        assert type(r) is int and type(o) is bool
        assert (rank[k], ok[k]) == (r, o)
        assert O[k].tobytes() == obsv_matrix(A[k], C[k]).tobytes()
        single = structurally_observable(ZeroPattern(A=patt.A[k],
                                                     C=patt.C[k]))
        assert type(single) is bool and reach[k] == single
    assert rank[0] == 0 and not ok[0]
