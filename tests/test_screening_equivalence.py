"""Candidate screening against the loop-built reference implementations.

``augment`` slices candidates out of the cached full-plant matrices, the
structural screen walks whole frontiers, the cascade gate reads contiguous
slices and ``obsv_matrix`` fills a preallocated array.  Each must give
exactly what the block-copy, depth-first, ``np.ix_`` and ``vstack`` versions
in ``_oracles`` give, down to the last bit of every reported cost.
"""

import functools
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import _oracles as orc
import gridftc.observability
import gridftc.reconfig
from gridftc.observability import (
    ZeroPattern,
    cascade_observable,
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
    """Random blocks with one-way couplings and ``p`` outputs per member, so
    the cascade branch of the numeric test is taken for some candidates."""
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


plants = st.one_of(
    st.builds(coupled_plant, st.integers(3, 8), st.integers(0, 2**32 - 1),
              st.sampled_from([0.25, 0.5, 1.0])),
    st.builds(directed_plant, st.integers(3, 8), st.integers(0, 2**32 - 1),
              st.sampled_from([0.15, 0.3, 0.6])),
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


def _oracle_search(*args, **kwargs):
    """``rftc_select`` with the block-copy, depth-first, ``np.ix_`` and
    ``vstack`` implementations patched in."""
    numeric = functools.partial(orc.numeric_observable_ix,
                                cascade_observable=cascade_observable,
                                kalman_rank=kalman_rank)
    with mock.patch.object(gridftc.reconfig, "augment", orc.augment_loops), \
            mock.patch.object(gridftc.reconfig, "structurally_observable",
                              orc.structurally_observable_dfs), \
            mock.patch.object(gridftc.reconfig, "_numeric_observable",
                              numeric), \
            mock.patch.object(gridftc.observability, "obsv_matrix",
                              orc.obsv_matrix_plain):
        return rftc_select(*args, **kwargs)


@SEARCH
@given(data=st.data(), lin=plants,
       j_max=st.sampled_from([0.0, np.inf]))
def test_select_plans_match_oracle_search(data, lin, j_max):
    faulty = data.draw(st.integers(1, lin.n))
    got = rftc_select(faulty, lin, 100.0, 50.0, j_max=j_max).to_dict()
    ref = _oracle_search(faulty, lin, 100.0, 50.0, j_max=j_max).to_dict()
    assert got == ref
    if j_max == 0.0:
        assert len(got["candidates"]) == 2 ** (lin.n - 1) - 1
