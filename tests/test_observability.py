"""Rank tests, structural tests, cascade conditions, Gramians, cost."""

import numpy as np
import pytest
import scipy.linalg

import _oracles as orc
from gridftc.observability import (
    CascadeReason,
    UnstableSystemError,
    ZeroPattern,
    cascade_observable,
    cost_J,
    ctrl_gramian,
    hf_norm_sq,
    kalman_rank,
    obs_gramian,
    structurally_observable,
)


def chain_matrix(n):
    A = np.zeros((n, n))
    A[np.arange(n - 1), np.arange(1, n)] = 1.0
    return A


# --------------------------------------------------------------- kalman rank


def test_kalman_rank_integrator_chain():
    A = chain_matrix(4)
    C = np.zeros((1, 4))
    C[0, 0] = 1.0
    rank, ok = kalman_rank(A, C, 1e-9)
    assert rank == 4 and ok


def test_kalman_rank_zero_output():
    rank, ok = kalman_rank(np.eye(3) * -1.0, np.zeros((1, 3)), 1e-9)
    assert rank == 0 and not ok


def test_kalman_rank_rejects_bad_tolerance():
    with pytest.raises(ValueError, match="positive"):
        kalman_rank(np.eye(2), np.ones((1, 2)), 0.0)


def test_kalman_rank_agrees_with_exact_arithmetic(rng):
    disagree = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        A = rng.integers(-3, 4, (n, n))
        C = rng.integers(-3, 4, (1, n))
        O = orc.obsv_matrix_plain(A.astype(float), C.astype(float))
        exact = orc.rational_rank(np.rint(O).astype(int))
        got, _ = kalman_rank(A.astype(float), C.astype(float), 1e-9)
        if got != exact:
            disagree += 1
    assert disagree == 0


# ----------------------------------------------------------- structural test


def test_structural_two_block_disconnect():
    # measured block cut off from the second block
    A = np.zeros((4, 4), dtype=bool)
    A[0, 1] = A[1, 0] = True      # block 1 internal
    A[2, 3] = A[3, 2] = True      # block 2 internal
    C = np.zeros((1, 4), dtype=bool)
    C[0, 0] = True
    assert not structurally_observable(ZeroPattern(A=A, C=C))


def test_structural_full_pattern():
    A = np.ones((5, 5), dtype=bool)
    C = np.zeros((1, 5), dtype=bool)
    C[0, 3] = True
    assert structurally_observable(ZeroPattern(A=A, C=C))


def test_structural_failure_forces_numeric_deficiency(rng):
    checked = 0
    for _ in range(500):
        n = int(rng.integers(2, 8))
        A = rng.random((n, n)) < 0.25
        C = rng.random((1, n)) < 0.3
        patt = ZeroPattern(A=A, C=C)
        if structurally_observable(patt):
            continue
        checked += 1
        for _ in range(20):
            A_num = np.where(A, rng.uniform(0.2, 2.0, (n, n)), 0.0)
            C_num = np.where(C, rng.uniform(0.2, 2.0, (1, n)), 0.0)
            rank, ok = kalman_rank(A_num, C_num, 1e-9)
            assert not ok
    assert checked > 50  # the draw produces plenty of disconnected patterns


# ------------------------------------------------------------- cascade test


def test_cascade_zero_coupling_unobservable():
    A11 = np.array([[-1.0, 1.0], [0.0, -2.0]])
    A22 = np.array([[-3.0]])
    A12 = np.zeros((2, 1))
    C1 = np.array([[1.0, 0.0]])
    ok, reason = cascade_observable(A11, A12, A22, C1)
    assert not ok
    assert reason is CascadeReason.INTERACTION_CANCELLED


def test_cascade_two_state_example():
    ok, reason = cascade_observable([[-1.0]], [[1.0]], [[-2.0]], [[1.0]])
    assert ok and reason is CascadeReason.OBSERVABLE


def test_cascade_rejects_output_on_second_block():
    with pytest.raises(ValueError):
        cascade_observable(np.eye(2) * -1, np.ones((2, 1)), [[-3.0]],
                           np.ones((1, 3)))


def test_cascade_agrees_with_kalman_oracle(rng):
    disagreements = 0
    for _ in range(1000):
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, 4))
        A11, A12, A22, C1 = orc.random_separated_cascade(rng, n1, n2)
        ok, _ = cascade_observable(A11, A12, A22, C1)
        A = np.block([[A11, A12], [np.zeros((n2, n1)), A22]])
        C = np.hstack([C1, np.zeros((1, n2))])
        if ok != orc.svd_observable(A, C, 1e-9):
            disagreements += 1
    assert disagreements == 0


def test_uncoupled_blocks_fail_both_tests(rng):
    # zero coupling: structural and numeric verdicts must both reject,
    # whatever the block parameters are
    for _ in range(100):
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, 4))
        A11 = orc.random_hurwitz(rng, n1)
        A22 = orc.random_hurwitz(rng, n2)
        A = np.block([[A11, np.zeros((n1, n2))],
                      [np.zeros((n2, n1)), A22]])
        C = np.hstack([rng.standard_normal((1, n1)), np.zeros((1, n2))])
        assert not structurally_observable(ZeroPattern(A=A != 0, C=C != 0))
        _, ok = kalman_rank(A, C, 1e-9)
        assert not ok
        ok_c, _ = cascade_observable(A11, np.zeros((n1, n2)), A22, C[:, :n1])
        assert not ok_c


# ------------------------------------------------------------------ Gramians


def test_obs_gramian_scalar():
    W = obs_gramian([[-1.0]], [[1.0]])
    assert W[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_obs_gramian_diagonal():
    W = obs_gramian(-np.eye(3), np.eye(3))
    assert np.allclose(W, 0.5 * np.eye(3), atol=1e-14)


def test_obs_gramian_rejects_unstable():
    with pytest.raises(UnstableSystemError) as err:
        obs_gramian([[1.0]], [[1.0]])
    assert err.value.eigenvalue.real >= 0.0


def test_gramian_residual_and_shape(rng):
    for _ in range(50):
        n = int(rng.integers(2, 11))
        A = orc.random_hurwitz(rng, n)
        C = rng.standard_normal((rng.integers(1, 3), n))
        W = obs_gramian(A, C)
        Q = C.T @ C
        res = np.linalg.norm(A.T @ W + W @ A + Q)
        assert res <= 1e-10 * np.linalg.norm(Q)
        assert np.linalg.norm(W - W.T) <= 1e-12
        assert np.min(np.linalg.eigvalsh(0.5 * (W + W.T))) >= -1e-10


def test_gramian_trace_matches_quadrature(rng):
    for _ in range(8):
        n = int(rng.integers(2, 7))
        A = orc.random_hurwitz(rng, n)
        C = rng.standard_normal((1, n))
        W = obs_gramian(A, C)
        ref = orc.gramian_trace_quad(A, C)
        assert np.trace(W) == pytest.approx(ref, rel=1e-6)


# ------------------------------------------------------------------ H2 norms


def h2_sq(A, B, C):
    """Squared H2 norm of (A, B, C): the functionality gap to a dead output."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return hf_norm_sq(A, B, C, np.zeros_like(C))


def test_h2_scalar_closed_form():
    assert h2_sq([[-2.0]], [[1.0]], [[3.0]]) == pytest.approx(2.25, abs=1e-12)


def test_h2_zero_input():
    assert h2_sq(-np.eye(3), np.zeros((3, 1)), np.ones((1, 3))) == 0.0


def test_h2_dual_identity(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = orc.random_hurwitz(rng, n)
        B = rng.standard_normal((n, 2))
        C = rng.standard_normal((2, n))
        via_ctrl = h2_sq(A, B, C)
        Wo = obs_gramian(A, C)
        via_obs = float(np.trace(B.T @ Wo @ B))
        assert via_ctrl == pytest.approx(via_obs, rel=1e-10)


def test_hf_identical_outputs_zero(rng):
    A = orc.random_hurwitz(rng, 4)
    B = rng.standard_normal((4, 1))
    C = rng.standard_normal((2, 4))
    assert hf_norm_sq(A, B, C, C) == pytest.approx(0.0, abs=1e-14)


def test_hf_dead_output_equals_h2(rng):
    A = orc.random_hurwitz(rng, 4)
    B = rng.standard_normal((4, 1))
    C = rng.standard_normal((2, 4))
    Wc = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.T)
    full = float(np.trace(C @ Wc @ C.T))
    assert hf_norm_sq(A, B, C, np.zeros_like(C)) == pytest.approx(
        full, rel=1e-12)


def test_hf_row_zeroing_matches_two_evaluations(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = orc.random_hurwitz(rng, n)
        B = rng.standard_normal((n, 1))
        C = rng.standard_normal((3, n))
        C_f = C.copy()
        C_f[1, :] = 0.0
        direct = hf_norm_sq(A, B, C, C_f)
        split = h2_sq(A, B, C) - h2_sq(A, B, C_f)
        assert direct == pytest.approx(split, rel=1e-10, abs=1e-14)


def test_gramians_match_scipy_lyapunov(rng):
    # scipy's Bartels-Stewart solver is an independent reference for the
    # package's Kronecker-form solve.
    def rel_err(W, ref):
        return np.linalg.norm(W - ref, "fro") / np.linalg.norm(ref, "fro")

    for n in range(1, 11):
        for p in (1, 2, 3):
            A = orc.random_hurwitz(rng, n)
            C = rng.standard_normal((p, n))
            B = rng.standard_normal((n, p))
            ref_o = scipy.linalg.solve_continuous_lyapunov(A.T, -C.T @ C)
            ref_c = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.T)
            assert rel_err(obs_gramian(A, C), ref_o) <= 1e-9, (n, p)
            assert rel_err(ctrl_gramian(A, B), ref_c) <= 1e-9, (n, p)


# ---------------------------------------------------------------------- cost


def test_cost_reproduces_published_pair():
    assert cost_J(3.1151, 0.1802, 100.0, 50.0) == pytest.approx(
        11.929, abs=1e-3)
    assert cost_J(6.4649, 0.2182, 100.0, 50.0) == pytest.approx(
        4.773, abs=1e-3)


def test_cost_gap_term_vanishes():
    assert cost_J(2.0, 0.0, 7.0, 50.0) == pytest.approx(7.0 / 4.0, abs=1e-15)


def test_cost_rejects_nonpositive_trace():
    with pytest.raises(ValueError, match="trace"):
        cost_J(0.0, 0.1, 100.0, 50.0)


def test_cost_argmin_invariant_under_weight_scaling(rng):
    traces = rng.uniform(0.5, 8.0, 12)
    gaps = rng.uniform(0.0, 0.5, 12)
    base = [cost_J(t, g, 100.0, 50.0) for t, g in zip(traces, gaps)]
    scaled = [cost_J(t, g, 700.0, 350.0) for t, g in zip(traces, gaps)]
    assert int(np.argmin(base)) == int(np.argmin(scaled))
