"""Plant dynamics: current/power maps, derivatives, linearization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as orc
from gridftc.power_model import (
    EquilibriumError,
    GeneratorParams,
    NetworkModel,
    OperatingPoint,
    _RhsScratch,
    _rhs_constants,
    _rhs_core,
    construct_equilibrium,
    currents,
    derivatives,
    linearize,
    load_plant,
    save_plant,
    verify_equilibrium,
)
from test_screening_equivalence import coupled_plant

OMEGA0 = 100.0 * np.pi


def make_params(n, D=2.0, H=4.0, Tdo=6.0, Pm=0.0):
    return [GeneratorParams(D=D, H=H, omega0=OMEGA0, Pm=Pm, Tdo_prime=Tdo,
                            xd=1.6, xd_prime=0.32, xad=1.35)
            for _ in range(n)]


def single_machine(G11=0.1, B11=-0.5, delta0=0.3, E0=1.0):
    net = NetworkModel(G=[[G11]], B=[[B11]])
    params = make_params(1)
    params, op = construct_equilibrium([delta0], [E0], params, net)
    return params, op, net


# ---------------------------------------------------------------- currents


def test_currents_single_machine_self_terms():
    # self-angle difference is zero, so sin drops out and cos stays
    net = NetworkModel(G=[[0.1]], B=[[0.5]])
    op = OperatingPoint(delta0=[0.7], Eq_prime0=[1.0], Ef0=[1.0])
    Id, Iq = currents(np.zeros((1, 3)), op, net)
    assert Id[0] == pytest.approx(-0.5, abs=1e-15)
    assert Iq[0] == pytest.approx(0.1, abs=1e-15)


def test_currents_two_identical_machines_symmetric():
    net = NetworkModel(G=[[0.3, 0.05], [0.05, 0.3]],
                       B=[[-1.5, 0.5], [0.5, -1.5]])
    op = OperatingPoint(delta0=[0.4, 0.4], Eq_prime0=[1.05, 1.05],
                        Ef0=[1.0, 1.0])
    x = np.zeros((2, 3))
    x[:, 0] = 0.02
    x[:, 2] = -0.01
    Id, Iq = currents(x, op, net)
    assert Id[0] == pytest.approx(Id[1], abs=1e-14)
    assert Iq[0] == pytest.approx(Iq[1], abs=1e-14)


def test_currents_match_loop_oracle(rng):
    for _ in range(25):
        M = rng.uniform(-1.0, 1.0, (3, 3))
        G = 0.5 * (M + M.T)
        M = rng.uniform(-2.0, 0.0, (3, 3))
        B = 0.5 * (M + M.T)
        net = NetworkModel(G=G, B=B)
        op = OperatingPoint(delta0=rng.uniform(0, 1.2, 3),
                            Eq_prime0=rng.uniform(0.9, 1.1, 3),
                            Ef0=np.ones(3))
        x = rng.uniform(-0.5, 0.5, (3, 3))
        Id, Iq = currents(x, op, net)
        Id_ref, Iq_ref = orc.currents_loops(op.delta0 + x[:, 0],
                                            op.Eq_prime0 + x[:, 2], G, B)
        assert np.max(np.abs(Id - Id_ref)) < 1e-12
        assert np.max(np.abs(Iq - Iq_ref)) < 1e-12


def test_currents_rejects_wrong_state_size():
    net = NetworkModel(G=[[0.1]], B=[[0.5]])
    op = OperatingPoint(delta0=[0.0], Eq_prime0=[1.0], Ef0=[1.0])
    with pytest.raises(ValueError, match="expected 3"):
        currents(np.zeros(5), op, net)


# -------------------------------------------------------------- derivatives


def test_derivatives_zero_at_equilibrium(desk5):
    dx = derivatives(np.zeros((desk5.n, 3)), desk5.op.Ef0,
                     desk5.generators, desk5.op, desk5.network)
    assert np.max(np.abs(dx)) <= 1e-9


def test_derivatives_damping_term_isolated():
    # with Pm matched to the electrical power at the state, the speed
    # equation reduces to the pure damping term
    net = NetworkModel(G=[[0.2]], B=[[-0.8]])
    params = make_params(1, D=2.0, H=1.0)
    op = OperatingPoint(delta0=[0.5], Eq_prime0=[1.0], Ef0=[1.0])
    x = np.array([[0.0, 1.0, 0.0]])
    _, Iq = currents(x, op, net)
    Pe = op.Eq_prime0 * Iq      # E'_q Iq; x carries no EMF deviation
    params = [GeneratorParams(D=2.0, H=1.0, omega0=OMEGA0, Pm=float(Pe[0]),
                              Tdo_prime=6.0, xd=1.6, xd_prime=0.32, xad=1.35)]
    dx = derivatives(x, op.Ef0, params, op, net)
    assert dx[0, 1] == pytest.approx(-1.0, abs=1e-12)


def oracle_derivatives(x, u, params, op, net):
    return orc.derivatives_loops(
        x, u,
        [p.D for p in params], [p.H for p in params],
        [p.omega0 for p in params], [p.Pm for p in params],
        [p.Tdo_prime for p in params], [p.xd for p in params],
        [p.xd_prime for p in params],
        op.delta0, op.Eq_prime0, net.G, net.B)


def forty_machine_plant(seed=40):
    """A seeded, densely coupled 40-machine plant at an exact equilibrium,
    with distinct constants on every machine."""
    n = 40
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.0, 0.05, (n, n))
    G = 0.5 * (M + M.T)
    M = rng.uniform(0.0, 0.4, (n, n))
    B = 0.5 * (M + M.T)
    np.fill_diagonal(G, rng.uniform(0.25, 0.30, n))
    np.fill_diagonal(B, -rng.uniform(1.40, 1.60, n))
    net = NetworkModel(G=G, B=B)
    u = rng.uniform
    params = [GeneratorParams(D=u(1.5, 3.0), H=u(4.0, 6.0), omega0=OMEGA0,
                              Pm=0.0, Tdo_prime=u(5.0, 7.5), xd=u(1.4, 1.6),
                              xd_prime=u(0.27, 0.32), xad=u(1.2, 1.35))
              for _ in range(n)]
    params, op = construct_equilibrium(u(-0.5, 0.5, n), u(0.95, 1.10, n),
                                       params, net)
    return params, op, net


def assert_buffered_kernel_matches(buffers, x, u, k):
    """``_rhs_core`` at the (n, 3) state ``x`` writes into the caller-owned
    ``buffers`` (output, scratch), left over from a call at another state,
    the bytes of the allocating call, and returns that output; so does the
    form that passes the rows of state and output."""
    out, scratch = buffers
    xs = np.ascontiguousarray(x.T)
    fresh = _rhs_core(xs, u, k)
    assert _rhs_core(xs, u, k, out=out, scratch=scratch) is out
    assert out.tobytes() == fresh.tobytes()
    out[...] = np.nan
    _rhs_core(tuple(xs), u, k, tuple(out), scratch)
    assert out.tobytes() == fresh.tobytes()


def test_derivatives_match_loop_oracle(desk5, rng):
    pa = desk5.generators
    k = _rhs_constants(pa, desk5.op, desk5.network)
    buffers = np.empty((3, desk5.n)), _RhsScratch(desk5.n)
    for _ in range(10):
        x = rng.uniform(-0.3, 0.3, (desk5.n, 3))
        u = desk5.op.Ef0 + rng.uniform(-0.2, 0.2, desk5.n)
        dx = derivatives(x, u, pa, desk5.op, desk5.network)
        dx_ref = oracle_derivatives(x, u, pa, desk5.op, desk5.network)
        assert np.max(np.abs(dx - dx_ref)) < 1e-12
        assert_buffered_kernel_matches(buffers, x, u, k)


@pytest.mark.parametrize("angle_span", [0.3, np.pi])
def test_kernel_matches_loop_oracle_forty_machines(rng, angle_span):
    # angle deviations up to pi put every quadrant of exp(1j delta) in play,
    # where a sign slip in the phasor form would show
    params, op, net = forty_machine_plant()
    k = _rhs_constants(params, op, net)
    buffers = np.empty((3, op.n)), _RhsScratch(op.n)
    for _ in range(3):
        x = rng.uniform(-0.3, 0.3, (op.n, 3))
        x[:, 0] = rng.uniform(-angle_span, angle_span, op.n)
        u = op.Ef0 + rng.uniform(-0.2, 0.2, op.n)
        dx = derivatives(x, u, params, op, net)
        assert np.max(np.abs(dx - oracle_derivatives(x, u, params, op, net))) \
            < 1e-12
        assert_buffered_kernel_matches(buffers, x, u, k)
        Id, Iq = currents(x, op, net)
        Id_ref, Iq_ref = orc.currents_loops(op.delta0 + x[:, 0],
                                            op.Eq_prime0 + x[:, 2],
                                            net.G, net.B)
        assert np.max(np.abs(Id - Id_ref)) < 1e-12
        assert np.max(np.abs(Iq - Iq_ref)) < 1e-12


def test_derivatives_reject_nonfinite_state(desk5):
    x = np.zeros((desk5.n, 3))
    x[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        derivatives(x, desk5.op.Ef0, desk5.generators, desk5.op,
                    desk5.network)


# ------------------------------------------------------------- linearization


def test_linearize_speed_damping_entry():
    params, op, net = single_machine()
    params = [GeneratorParams(D=2.0, H=1.0, omega0=p.omega0, Pm=p.Pm,
                              Tdo_prime=p.Tdo_prime, xd=p.xd,
                              xd_prime=p.xd_prime, xad=p.xad)
              for p in params]
    lin = linearize(op, params, net)
    assert lin.A[0, 1, 1] == pytest.approx(-1.0, abs=1e-14)


def test_linearize_decoupled_network_has_zero_interactions():
    net = NetworkModel(G=np.diag([0.3, 0.25, 0.2]),
                       B=np.diag([-1.2, -1.5, -1.1]))
    params = make_params(3)
    params, op = construct_equilibrium([0.2, 0.4, 0.3], [1.0, 1.1, 1.05],
                                       params, net)
    lin = linearize(op, params, net)
    assert np.all(lin.Gint == 0.0)


def test_linearize_matches_finite_differences(desk5):
    lin = desk5.linearize()
    full = lin.full_matrix()
    u0 = desk5.op.Ef0

    def f(xflat):
        return derivatives(xflat.reshape(desk5.n, 3), u0, desk5.generators,
                           desk5.op, desk5.network).ravel()

    J_fd = orc.fd_jacobian(f, np.zeros(3 * desk5.n))
    rel = np.abs(full - J_fd) / np.maximum(np.abs(J_fd), 1.0)
    assert np.max(rel) <= 1e-5


def test_linearize_block_structure(desk5_lin):
    lin = desk5_lin
    for i in range(lin.n):
        assert np.array_equal(lin.A[i, 0], [0.0, 1.0, 0.0])
        assert np.all(lin.Gint[i, i] == 0.0)
    # no machine couples through a foreign speed, and no foreign state
    # enters an angle equation
    assert np.all(lin.Gint[:, :, :, 1] == 0.0)
    assert np.all(lin.Gint[:, :, 0, :] == 0.0)


def _assert_rotation_invariant(lin):
    """A uniform shift of every rotor angle leaves the RHS unchanged, so the
    angle columns of each speed and EMF row sum to zero."""
    full = lin.full_matrix()
    angle_sums = full[:, lin.state_index()[:, 0]].sum(axis=1)
    assert np.max(np.abs(angle_sums)) <= 1e-12 * np.max(np.abs(full))


@pytest.mark.parametrize("name", ["desk2", "desk4", "desk5"])
def test_linearize_rotation_invariance_desk(name, request):
    _assert_rotation_invariant(request.getfixturevalue(name).linearize())


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.25, 0.5, 1.0]))
def test_linearize_rotation_invariance_coupled(n, seed, density):
    _assert_rotation_invariant(coupled_plant(n, seed, density))


def test_linearize_rejects_non_equilibrium(desk5):
    # a single-machine angle bump (a uniform shift would stay an
    # equilibrium: only angle differences enter the power flow)
    bumped = desk5.op.delta0.copy()
    bumped[2] += 0.3
    bad_op = OperatingPoint(delta0=bumped,
                            Eq_prime0=desk5.op.Eq_prime0,
                            Ef0=desk5.op.Ef0)
    with pytest.raises(EquilibriumError) as err:
        linearize(bad_op, desk5.generators, desk5.network)
    assert err.value.residual > 1e-6


# -------------------------------------------------------------- equilibrium


def test_verify_equilibrium_constructed_point():
    params, op, net = single_machine()
    assert verify_equilibrium(op, params, net) <= 1e-12


def test_verify_equilibrium_detects_power_mismatch():
    params, op, net = single_machine()
    p = params[0]
    bumped = [GeneratorParams(D=p.D, H=p.H, omega0=p.omega0, Pm=p.Pm + 0.1,
                              Tdo_prime=p.Tdo_prime, xd=p.xd,
                              xd_prime=p.xd_prime, xad=p.xad)]
    assert verify_equilibrium(op, bumped, net) >= 0.01


def test_desk5_ships_at_equilibrium(desk5):
    assert verify_equilibrium(desk5.op, desk5.generators,
                              desk5.network) <= 1e-8


def test_identical_machines_permutation_invariant():
    g, b, gc, bc = 0.3, -1.5, 0.05, 0.4
    net = NetworkModel(G=[[g, gc], [gc, g]], B=[[b, bc], [bc, b]])
    params = make_params(2)
    params, op = construct_equilibrium([0.5, 0.5], [1.05, 1.05], params, net)
    x = np.array([[0.1, -0.2, 0.05], [0.1, -0.2, 0.05]])
    dx = derivatives(x, op.Ef0, params, op, net)
    assert np.max(np.abs(dx[0] - dx[1])) < 1e-14


def test_network_rejects_asymmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        NetworkModel(G=[[0.1, 0.2], [0.0, 0.1]], B=np.diag([-1.0, -1.0]))


def test_plant_file_round_trip(desk5, tmp_path):
    path = tmp_path / "plant.json"
    save_plant(desk5, path)
    back = load_plant(path)
    assert back.n == desk5.n
    assert np.array_equal(back.network.G, desk5.network.G)
    assert np.array_equal(back.op.delta0, desk5.op.delta0)
    assert back.generators[3].H == desk5.generators[3].H
    assert verify_equilibrium(back.op, back.generators, back.network) <= 1e-8
