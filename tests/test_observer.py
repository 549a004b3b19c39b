"""Chain transform, the chain-observer step and gain law, interaction
diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as orc
from gridftc.observability import StateSpace
from gridftc.observer import (
    DEFAULT_L_MAX,
    ChainScratch,
    chain_rk4,
    gain_law,
    interaction_bound_estimate,
    shaping_coefficients,
    to_chain_form,
)
from gridftc.power_model import derivatives


def random_observable_triple(rng, n=3):
    while True:
        A = rng.standard_normal((n, n))
        C = rng.standard_normal((1, n))
        if orc.svd_observable(A, C, 1e-6):
            return StateSpace(A=A, B=rng.standard_normal((n, 1)), C=C)


# ------------------------------------------------------------- chain form


def test_chain_form_fixed_point():
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    cf = to_chain_form(StateSpace(A=A, B=np.zeros((3, 1)),
                                  C=[[1.0, 0.0, 0.0]]))
    assert np.allclose(cf.T, np.eye(3), atol=1e-14)
    assert np.allclose((cf.T @ A @ cf.T_inv)[-1], 0.0, atol=1e-14)


def test_chain_form_companion_with_feedback():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    cf = to_chain_form(StateSpace(A=A, B=np.zeros((2, 1)), C=[[1.0, 0.0]]))
    assert np.allclose(cf.T, np.eye(2), atol=1e-14)
    assert np.allclose((cf.T @ A @ cf.T_inv)[-1], [-2.0, -3.0], atol=1e-13)


def test_chain_form_round_trip(rng):
    for _ in range(25):
        sub = random_observable_triple(rng)
        cf = to_chain_form(sub)
        chain = np.zeros((3, 3))
        chain[0, 1] = chain[1, 2] = 1.0
        chain[2] = (cf.T @ sub.A @ cf.T_inv)[-1]
        back = cf.T_inv @ chain @ cf.T
        assert np.max(np.abs(back - sub.A)) < 1e-10
        assert np.max(np.abs(cf.T @ cf.T_inv - np.eye(3))) <= 1e-10


def test_chain_form_rejects_unobservable():
    A = -np.eye(2)
    with pytest.raises(ValueError, match="unobservable"):
        to_chain_form(StateSpace(A=A, B=np.zeros((2, 1)), C=[[1.0, 0.0]]))


def test_chain_form_rejects_multi_output():
    with pytest.raises(ValueError, match="single output"):
        to_chain_form(StateSpace(A=-np.eye(2), B=np.zeros((2, 1)),
                                 C=np.eye(2)))


def test_shaping_modes():
    assert np.array_equal(shaping_coefficients(3), [3.0, 3.0, 1.0])
    assert np.array_equal(shaping_coefficients(5), [5.0, 10.0, 10.0, 5.0, 1.0])


# ----------------------------------------------------------- observer step


def test_step_zero_innovation_fixed_point():
    g = shaping_coefficients(3) * 2.0 ** np.arange(1, 4)
    out = chain_rk4(np.zeros(3), 0.0, g, np.zeros(3), 0.01)
    assert np.array_equal(out, np.zeros(3))


def test_step_single_state_rk4():
    # z' = g (y - z) from z = 0: RK4 multiplies the error by the degree-4
    # Taylor polynomial of exp(-g dt)
    h = 2.0 * 0.1
    out = chain_rk4(np.zeros(1), 1.0, np.array([2.0]), np.zeros(1), 0.1)
    assert out[0] == pytest.approx(1.0 - (1 - h + h**2 / 2 - h**3 / 6
                                          + h**4 / 24), abs=1e-15)


def _chain_case(rng, shape, n, m, l_mode, capped):
    """Random chain-step arguments for a merged (1-D) or bank (2-D) state;
    the bank is chain-axis first, one observer per column."""
    trail = () if shape == "merged" else (m,)
    Z = rng.uniform(-2.0, 2.0, (n,) + trail)
    y = rng.uniform(-2.0, 2.0, trail)
    L = rng.uniform(1.0, 20.0, trail)
    uch = rng.uniform(-1.0, 1.0, (n,) + trail)
    dt = float(rng.uniform(1e-4, 0.05))
    l_value = float(rng.uniform(0.5, 3.0)) if l_mode == "constant" else None
    if shape == "merged":
        y, L = float(y), float(L)
    e1 = y - Z[0]
    l = L if l_value is None else l_value
    L_max = 1e3
    if capped:  # halfway to the first uncapped update: the cap is reached
        L_max = float(np.ravel(L + 0.5 * dt * ((e1 * e1) / (l * l)))[0])
    return Z, y, L, uch, dt, L_max, l_value


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(shape=st.sampled_from(["merged", "bank"]), n=st.integers(1, 9),
       m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       l_mode=st.sampled_from(["self", "constant"]), capped=st.booleans())
def test_chain_step_matches_loop_oracle(shape, n, m, seed, l_mode, capped):
    rng = np.random.default_rng(seed)
    Z, y, L, uch, dt, L_max, l_value = _chain_case(rng, shape, n, m, l_mode,
                                                   capped)
    col = (slice(None),) + (None,) * (Z.ndim - 1)
    g = shaping_coefficients(n)[col] * np.asarray(L) \
        ** np.arange(1, n + 1, dtype=float)[col]
    Z_next = chain_rk4(Z, y, g, uch, dt)
    L_next = gain_law(L, y - Z[0], dt, L_max, l_value)
    assert Z_next.shape == Z.shape and np.shape(L_next) == np.shape(L)
    cols = [(Z, y, g, uch, L, Z_next, L_next)] if shape == "merged" else \
        zip(Z.T, y, g.T, uch.T, L, Z_next.T, L_next)
    for z, yr, gr, ur, Lr, z_next, L_row in cols:
        ref_z, ref_L = orc.chain_step_loops(z, yr, gr, ur, dt, float(Lr),
                                            L_max, l_value)
        assert np.asarray(ref_z).tobytes() == z_next.tobytes()
        assert float(L_row) == ref_L
    if capped:
        assert np.ravel(L_next)[0] == L_max

    # the same step through caller-owned buffers that a step from another
    # state has left behind writes the same bytes into them
    out, scratch = np.empty_like(Z), ChainScratch(Z.shape)
    L = np.array(L)
    L_out, ll = np.empty_like(L), np.empty_like(L)
    for state, gain in ((rng.uniform(-2.0, 2.0, Z.shape), L + 1.0), (Z, L)):
        assert chain_rk4(state, y, g, uch, dt, out=out,
                         scratch=scratch) is out
        assert gain_law(gain, y - state[0], dt, L_max, l_value, out=L_out,
                        scratch=ll) is L_out
    assert out.tobytes() == Z_next.tobytes()
    assert L_out.tobytes() == np.asarray(L_next).tobytes()


def test_desk2_convergence_with_random_offsets(desk2, rng):
    """Estimation error falls below 1e-2 inside 20 simulated seconds."""
    lin = desk2.linearize()
    chains = [to_chain_form(StateSpace(A=lin.A[i],
                                       B=lin.Bsub[i].reshape(3, 1),
                                       C=lin.Csub[i]))
              for i in range(2)]
    coeffs = shaping_coefficients(3)[:, None]
    powers = np.arange(1, 4, dtype=float)[:, None]
    no_input = np.zeros((3, 2))
    pa = desk2.generators
    dt = 1e-3
    for _ in range(3):
        x = np.zeros((2, 3))
        offs = rng.uniform(-1.0, 1.0, (2, 3))
        offs /= max(1.0, np.max(np.abs(offs)))
        Z = np.stack([chains[i].T @ offs[i] for i in range(2)], axis=1)
        L = np.ones(2)
        u0 = desk2.op.Ef0
        L_hist = []
        for k in range(20000):
            y = x[:, 0]
            e1 = y - Z[0]
            Z = chain_rk4(Z, y, coeffs * L ** powers, no_input, dt)
            L = gain_law(L, e1, dt, DEFAULT_L_MAX)
            L_hist.append(L)
            k1 = derivatives(x, u0, pa, desk2.op, desk2.network)
            k2 = derivatives(x + 0.5 * dt * k1, u0, pa, desk2.op,
                             desk2.network)
            k3 = derivatives(x + 0.5 * dt * k2, u0, pa, desk2.op,
                             desk2.network)
            k4 = derivatives(x + dt * k3, u0, pa, desk2.op, desk2.network)
            x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        err = max(np.max(np.abs(x[i] - chains[i].T_inv @ Z[:, i]))
                  for i in range(2))
        assert err < 1e-2
        L_hist = np.asarray(L_hist)
        assert np.all(np.diff(L_hist, axis=0) >= 0.0)


# ---------------------------------------------------------------- gain law


def test_gain_update_zero_innovation():
    assert gain_law(2.5, 0.0, 0.1, DEFAULT_L_MAX) == 2.5


def test_gain_update_direct_value():
    assert gain_law(1.0, 1.0, 0.1, DEFAULT_L_MAX) == pytest.approx(1.1,
                                                                   abs=1e-15)


def test_gain_update_constant_l_mode():
    assert gain_law(1.0, 1.0, 0.1, DEFAULT_L_MAX, l_value=2.0) \
        == pytest.approx(1.025, abs=1e-15)


def test_gain_saturates_at_cap():
    L = 1.0
    for _ in range(200):
        L = gain_law(L, 1.0, 0.1, 10.0, l_value=1.0)
    assert L == 10.0
    assert gain_law(L, 1.0, 0.1, 10.0, l_value=1.0) == 10.0


# ------------------------------------------------------ interaction bounds


class _FakeTraj:
    def __init__(self, interactions, chain_true):
        self.interactions = interactions
        self.chain_true = chain_true


def test_interaction_bound_decoupled_is_zero(rng):
    chain = rng.standard_normal((50, 3, 3))
    inter = np.zeros((50, 3, 3))
    assert np.array_equal(interaction_bound_estimate(_FakeTraj(inter, chain)),
                          np.zeros(3))


def test_interaction_bound_linear_coupling_is_tight_or_under(rng):
    # I_k = 0.3 * sum of |chain states up to k| is exactly at the bound;
    # shrinking the disturbance can only lower the estimate
    chain = rng.standard_normal((200, 4, 3))
    rhs = np.cumsum(np.sum(np.abs(chain), axis=1), axis=1)
    inter = 0.3 * np.repeat(rhs[:, None, :], 4, axis=1)
    est = interaction_bound_estimate(_FakeTraj(inter, chain))
    assert np.all(est <= 0.3 + 1e-12)
    assert np.all(est > 0.29)
    est2 = interaction_bound_estimate(_FakeTraj(0.5 * inter, chain))
    assert np.all(est2 <= 0.15 + 1e-12)


def test_interaction_bound_rejects_empty():
    with pytest.raises(ValueError, match="diagnostics"):
        interaction_bound_estimate(_FakeTraj(None, None))
