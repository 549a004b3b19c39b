"""Candidate screening against the loop-built reference implementations.

``rftc_select`` gathers each cardinality's candidates out of the cached
full-plant matrices as one stack and runs every screen once on it: the
structural screen walks whole frontiers, ``is_hurwitz`` and the Kalman test
take stacks, and ``obsv_matrix`` fills a preallocated array.  Each must give
exactly what the block-copy, depth-first, ``vstack`` and
one-matrix-at-a-time versions give, down to the last bit of every reported
cost.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import _oracles as orc
import gridftc.observability
from gridftc.desk_models import desk4_plant, desk5_plant
from gridftc.observability import (
    ZeroPattern,
    is_hurwitz,
    kalman_rank,
    obsv_matrix,
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
    u = rng.uniform
    G = np.diag(u(0.25, 0.30, n))
    B = np.diag(-u(1.40, 1.60, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
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
