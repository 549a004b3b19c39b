"""Virtual sensors, augmentation blocks, candidate search."""

import logging

import numpy as np
import pytest

import _oracles as orc
from gridftc.observability import ZeroPattern, cost_J, is_hurwitz, \
    kalman_rank, structurally_observable
from gridftc.power_model import NetworkModel, construct_equilibrium, linearize
from gridftc.reconfig import (
    FaultEvent,
    augment,
    default_P,
    fault_output_map,
    rftc_select,
    virtual_sensor,
)
from test_power_model import make_params
from test_screening_equivalence import coupled_plant, directed_plant


def symmetric_triangle():
    """Three identical machines on identical ties (exact candidate ties)."""
    g, b, gc, bc = 0.30, -1.55, 0.05, 0.45
    J3 = np.ones((3, 3))
    net = NetworkModel(G=g * np.eye(3) + gc * (J3 - np.eye(3)),
                       B=b * np.eye(3) + bc * (J3 - np.eye(3)))
    params = make_params(3)
    params, op = construct_equilibrium([0.4] * 3, [1.05] * 3, params, net)
    return linearize(op, params, net)


# ----------------------------------------------------------------- fault map


def test_fault_event_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent(t_fault=1.0, subsystem=1, kind="bias", fdi_delay=0.0)
    with pytest.raises(ValueError, match="factor"):
        FaultEvent(t_fault=1.0, subsystem=1, kind="gain", fdi_delay=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        FaultEvent(t_fault=-1.0, subsystem=1, kind="total-loss", fdi_delay=0.0)


def test_fault_output_map_kinds():
    C = np.array([[1.0, 0.0, 0.0]])
    gain = FaultEvent(t_fault=0.0, subsystem=1, kind="gain", fdi_delay=0.0,
                      factor=0.5)
    assert np.array_equal(fault_output_map(gain, C), [[0.5, 0.0, 0.0]])
    dead = FaultEvent(t_fault=0.0, subsystem=1, kind="total-loss",
                      fdi_delay=0.0)
    assert np.array_equal(fault_output_map(dead, C), np.zeros((1, 3)))
    bad_row = FaultEvent(t_fault=0.0, subsystem=1, kind="total-loss",
                         fdi_delay=0.0, sensor_row=3)
    with pytest.raises(ValueError, match="row"):
        fault_output_map(bad_row, C)


# ------------------------------------------------------------ virtual sensor


def test_default_P_zeroes_faulty_rows():
    C = np.eye(3)
    assert np.array_equal(default_P(C, [1]), np.diag([1.0, 0.0, 1.0]))
    assert np.array_equal(default_P(C, []), np.eye(3))
    assert np.array_equal(default_P(C, [0, 1, 2]), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="out of range"):
        default_P(C, [3])


def test_virtual_sensor_pass_through(rng):
    C = rng.standard_normal((2, 4))
    y = rng.standard_normal(2)
    assert np.array_equal(virtual_sensor(y, rng.standard_normal(4),
                                         C, C, np.eye(2)), y)


def test_virtual_sensor_pure_estimate(rng):
    C = rng.standard_normal((2, 4))
    x_hat = rng.standard_normal(4)
    out = virtual_sensor(rng.standard_normal(2), x_hat, C, C,
                         np.zeros((2, 2)))
    assert np.allclose(out, C @ x_hat, atol=1e-14)


def test_virtual_sensor_hides_gain_fault(rng):
    C = rng.standard_normal((3, 5))
    C_f = C.copy()
    C_f[1, :] *= 0.5
    P = default_P(C, [1])
    x = rng.standard_normal(5)
    y_f = C_f @ x
    y = virtual_sensor(y_f, x, C, C_f, P)
    assert np.max(np.abs(y - C @ x)) <= 1e-12


def test_virtual_sensor_dimension_errors(rng):
    C = np.eye(3)
    with pytest.raises(ValueError, match="shape"):
        virtual_sensor(np.zeros(3), np.zeros(3), C, np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="entries"):
        virtual_sensor(np.zeros(2), np.zeros(3), C, C, np.eye(3))


# -------------------------------------------------------------- augmentation


def test_augment_degenerate_single(desk5_lin):
    aug = augment((3,), desk5_lin, 3, faulty_rows=())
    assert aug.dim == 3
    assert np.array_equal(aug.A, desk5_lin.A[2])
    assert np.array_equal(aug.C, desk5_lin.Csub[2])


def test_augment_zero_coupling_is_structurally_dead():
    net = NetworkModel(G=np.diag([0.3, 0.26]), B=np.diag([-1.6, -1.4]))
    params = make_params(2)
    params, op = construct_equilibrium([0.2, 0.3], [1.05, 1.02], params, net)
    lin = linearize(op, params, net)
    aug = augment((1, 2), lin, 1)
    patt = ZeroPattern(A=aug.A != 0, C=aug.C != 0)
    assert not structurally_observable(patt)


def test_augment_desk_pair_blocks(desk5_lin):
    aug = augment((5, 2), desk5_lin, 5)
    assert aug.dim == 6
    assert aug.index_map[5] == slice(0, 3)
    assert aug.index_map[2] == slice(3, 6)
    assert np.array_equal(aug.A[0:3, 0:3], desk5_lin.A[4])
    assert np.array_equal(aug.A[3:6, 3:6], desk5_lin.A[1])
    assert np.array_equal(aug.A[0:3, 3:6], desk5_lin.Gint[4, 1])
    assert np.array_equal(aug.A[3:6, 0:3], desk5_lin.Gint[1, 4])
    assert np.all(aug.C[0] == 0.0)           # dead sensor row
    assert np.any(aug.C_healthy[0] != 0.0)   # kept for the gap term
    assert aug.C[1, 3] == 1.0


def test_augment_input_errors(desk5_lin):
    with pytest.raises(ValueError, match="unknown subsystem"):
        augment((5, 9), desk5_lin, 5)
    with pytest.raises(ValueError, match="duplicate"):
        augment((5, 5), desk5_lin, 5)
    with pytest.raises(ValueError, match="missing"):
        augment((1, 2), desk5_lin, 5)


# ----------------------------------------------------------------- selection


def test_select_gain_fault_keeps_virtual_sensor(desk5_lin):
    faulty_C = 0.4 * desk5_lin.Csub[4]
    plan = rftc_select(5, desk5_lin, 100.0, 50.0, faulty_C=faulty_C,
                       j_max=20.0)
    assert plan.mode == "virtual-sensor"
    assert plan.P.shape == (1, 1) and plan.P[0, 0] == 0.0
    # the invariant behind the mode: the post-fault pair is observable
    _, ok = kalman_rank(desk5_lin.A[4], faulty_C, 1e-9)
    assert ok


def test_select_total_loss_picks_cheapest_pair(desk5_lin):
    plan = rftc_select(5, desk5_lin, 100.0, 50.0, j_max=20.0)
    assert plan.mode == "augmentation"
    assert plan.augment_set == (5, 2)
    assert plan.J == pytest.approx(4.7732, abs=1e-3)
    by_set = {tuple(r.candidate): r for r in plan.candidates}
    assert by_set[(5, 1)].J == pytest.approx(11.9290, abs=1e-3)
    # the plan's cost must be the cost function of its own report fields
    rep = by_set[plan.augment_set]
    assert plan.J == cost_J(rep.trace_Wo, rep.hf_norm, 100.0, 50.0)


def test_select_admissibility_invariants(desk5_lin):
    plan = rftc_select(5, desk5_lin, 100.0, 50.0, j_max=20.0)
    aug = augment(plan.augment_set, desk5_lin, 5)
    assert is_hurwitz(aug.A)
    _, ok = kalman_rank(aug.A, aug.C, 1e-9)
    assert ok
    assert plan.chain is not None and plan.chain.n == aug.dim
    assert plan.output_weights.tolist() == [0.0, 1.0]


def test_select_honors_exclusions(desk5_lin):
    plan = rftc_select(5, desk5_lin, 100.0, 50.0, j_max=20.0,
                       excluded_ids=(2,))
    assert 2 not in plan.augment_set
    assert plan.augment_set == (5, 1)


def test_select_warns_without_cost_cap(desk5_lin, caplog):
    with caplog.at_level(logging.WARNING, logger="gridftc.reconfig"):
        rftc_select(5, desk5_lin, 100.0, 50.0)
    assert any("cost cap" in r.message for r in caplog.records)


def test_select_tie_breaks_lexicographically():
    lin = symmetric_triangle()
    plan = rftc_select(1, lin, 100.0, 50.0, j_max=np.inf)
    assert plan.mode == "augmentation"
    by_set = {tuple(r.candidate): r for r in plan.candidates}
    assert by_set[(1, 2)].J == by_set[(1, 3)].J   # exact tie by symmetry
    assert plan.augment_set == (1, 2)


def test_select_matches_exhaustive_enumeration(desk4_lin):
    plan = rftc_select(1, desk4_lin, 100.0, 50.0, j_max=np.inf)
    ref = orc.brute_force_plan(desk4_lin, 1, 100.0, 50.0)
    if ref is None:
        assert plan.mode == "unrecoverable"
    else:
        assert plan.mode == "augmentation"
        assert plan.augment_set == ref[0]
        assert plan.J == pytest.approx(ref[1], rel=1e-9)


def test_select_unrecoverable_on_decoupled_plant():
    net = NetworkModel(G=np.diag([0.3, 0.26]), B=np.diag([-1.6, -1.4]))
    params = make_params(2)
    params, op = construct_equilibrium([0.2, 0.3], [1.05, 1.02], params, net)
    lin = linearize(op, params, net)
    plan = rftc_select(1, lin, 100.0, 50.0, j_max=20.0)
    assert plan.mode == "unrecoverable"
    assert plan.augment_set is None
    assert all(not r.observable for r in plan.candidates)


def test_select_rejects_island_rotation_mode():
    # Set (2, 1) covers a whole connected island; its exact zero rotation
    # eigenvalue rounds to about -1e-16 and must not pass as stable.
    plan = rftc_select(2, coupled_plant(3, 2, 0.25), 100.0, 50.0,
                       j_max=np.inf)
    reasons = {c.candidate: c.reason for c in plan.candidates}
    assert reasons[(2, 1)] == "merged state matrix is not Hurwitz"


def test_select_skips_a_set_without_a_chain_form():
    # (5, 3) is observable, stable and the cheapest pair, but none of its
    # measured rows, alone or summed, gives a single-output chain form, so
    # the merged observer could not run on it.
    plan = rftc_select(5, coupled_plant(5, 27, 0.5), 100.0, 50.0,
                       j_max=np.inf)
    assert plan.mode == "augmentation" and plan.augment_set == (5, 4)
    assert plan.J == pytest.approx(8.5345, abs=1e-4)
    assert plan.chain is not None
    rep = {c.candidate: c for c in plan.candidates}[(5, 3)]
    assert rep.reason == "no single-output chain form"
    assert not rep.observable and rep.stable and rep.J is None


def test_select_keeps_the_faulty_members_live_rows():
    # Machine 3 has no entry in its helpers' columns, and only its row 0 is
    # dead: its live row 1 sees (3, 4), which a test on the helper outputs
    # alone would miss.
    plan = rftc_select(3, directed_plant(5, 2, 0.15, p=2), 100.0, 50.0,
                       faulty_rows=[0], j_max=np.inf)
    assert plan.mode == "augmentation" and plan.augment_set == (3, 4)
    assert plan.J == pytest.approx(36.6326, abs=1e-4)
    rep = {c.candidate: c for c in plan.candidates}[(3, 4)]
    assert rep.observable and rep.stable


def test_select_rejects_unknown_subsystem(desk5_lin):
    with pytest.raises(ValueError, match="unknown subsystem"):
        rftc_select(9, desk5_lin, 100.0, 50.0, j_max=20.0)

