"""Scenario plumbing, the shared-grid runner, recovery verdicts, writers."""

import json
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import _oracles as orc
from gridftc.power_model import (
    NetworkModel,
    PlantModel,
    construct_equilibrium,
)
from gridftc.desk_models import data_path
from gridftc.observability import StateSpace
from gridftc.observer import to_chain_form
from gridftc.reconfig import FaultEvent, ReconfigPlan
from gridftc.sim_engine import (
    ROW_BLOCK,
    ControllerConfig,
    ObserverConfig,
    EventMarker,
    Scenario,
    ScenarioError,
    TrajectoryLog,
    _RecoveryWindows,
    _attach_interaction_diagnostics,
    _chain_coupling,
    _diag_stride,
    _grid_index,
    _row_peaks,
    build_report,
    load_scenario,
    reading_map,
    recovery_summary,
    run_scenario,
    write_events_json,
    write_report_json,
    write_trajectory_csv,
)
from test_power_model import make_params


def island_plant(n=2):
    """Machines with no ties at all: nothing can help a blinded one."""
    g = [0.30, 0.26, 0.28][:n]
    b = [-1.6, -1.4, -1.5][:n]
    params = make_params(n)
    params, op = construct_equilibrium([0.2, 0.3, 0.25][:n],
                                       [1.05, 1.02, 1.04][:n],
                                       params, NetworkModel(G=np.diag(g),
                                                            B=np.diag(b)))
    return PlantModel(generators=tuple(params),
                      network=NetworkModel(G=np.diag(g), B=np.diag(b)),
                      op=op, name="island")


@pytest.fixture(scope="module")
def two_fault_log(desk5):
    """A compressed double-fault run reused by the marker/writer tests."""
    scn = Scenario(
        plant=desk5, horizon=40.0, dt=1e-3,
        faults=(
            FaultEvent(t_fault=15.0, subsystem=5, kind="gain",
                       factor=0.4, fdi_delay=3.0),
            FaultEvent(t_fault=25.0, subsystem=5, kind="total-loss",
                       fdi_delay=1.0),
        ),
        controller=ControllerConfig(gains=[[-0.003, -0.03, 0.0]] * 5),
        j_max=20.0, settling_window=10.0, name="compressed-double")
    scn.validate()
    return scn, run_scenario(scn, seed=0)


# ------------------------------------------------------------- validation


def test_validate_names_offending_field(desk2):
    with pytest.raises(ScenarioError) as err:
        Scenario(plant=desk2, horizon=10.0, dt=0.0).validate()
    assert err.value.field == "dt"
    with pytest.raises(ScenarioError) as err:
        Scenario(plant=desk2, horizon=-1.0, dt=1e-3).validate()
    assert err.value.field == "horizon"
    with pytest.raises(ScenarioError) as err:
        Scenario(plant=desk2, horizon=10.0, dt=1e-3,
                 settling_window=-1.0).validate()
    assert err.value.field == "settling_window"


def test_validate_fault_timeline(desk2):
    late = FaultEvent(t_fault=5.0, subsystem=1, kind="total-loss",
                      fdi_delay=1.0)
    early = FaultEvent(t_fault=2.0, subsystem=2, kind="total-loss",
                       fdi_delay=1.0)
    with pytest.raises(ScenarioError) as err:
        Scenario(plant=desk2, horizon=30.0, dt=1e-3,
                 faults=(late, early)).validate()
    assert err.value.field == "faults"
    with pytest.raises(ScenarioError) as err:
        Scenario(plant=desk2, horizon=10.0, dt=1e-3, faults=(late,),
                 settling_window=10.0).validate()
    assert err.value.field == "horizon"
    with pytest.raises(ScenarioError) as err:
        Scenario(plant=desk2, horizon=30.0, dt=1e-3,
                 faults=(FaultEvent(t_fault=1.0, subsystem=7,
                                    kind="total-loss", fdi_delay=0.0),)
                 ).validate()
    assert err.value.field == "faults[0].subsystem"



def test_validate_rejects_a_second_merged_observer(desk5):
    """A dead sensor on a second machine would replace the one merged
    observer and freeze the first machine's estimate, so validation names
    the fault that asks for it."""
    dead5 = FaultEvent(t_fault=1.0, subsystem=5, kind="total-loss",
                       fdi_delay=0.5)
    dead3 = FaultEvent(t_fault=4.0, subsystem=3, kind="total-loss",
                       fdi_delay=0.5)
    stuck3 = FaultEvent(t_fault=4.0, subsystem=3, kind="stuck",
                        fdi_delay=0.5)
    for second in (dead3, stuck3):
        scn = Scenario(plant=desk5, horizon=20.0, dt=1e-3,
                       faults=(dead5, second))
        with pytest.raises(ScenarioError) as err:
            scn.validate()
        assert err.value.field == "faults[1]"
        with pytest.raises(ScenarioError):
            run_scenario(scn)
        # with reconfiguration off no observer is ever merged
        Scenario(plant=desk5, horizon=20.0, dt=1e-3, faults=(dead5, second),
                 reconfigure=False).validate()
    # one merged machine plus virtual sensors elsewhere stays valid, and so
    # does the shipped study's gain fault followed by a total loss on 5
    gain3 = FaultEvent(t_fault=4.0, subsystem=3, kind="gain", factor=0.5,
                       fdi_delay=0.2)
    gain5 = FaultEvent(t_fault=0.5, subsystem=5, kind="gain", factor=0.4,
                       fdi_delay=0.2)
    for faults in ((dead5, gain3), (gain5, dead5), (dead5, dead5)):
        Scenario(plant=desk5, horizon=20.0, dt=1e-3, faults=faults).validate()
    load_scenario(data_path("desk5_scenario.json")).validate()

def test_controller_config_checks(desk2):
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({"plant": desk2.to_dict(), "horizon": 5.0,
                            "dt": 1e-3,
                            "controller": {"poles": [-1.2, -1.7, -2.4]}})
    assert err.value.field == "controller.poles"
    with pytest.raises(ScenarioError) as err:
        ControllerConfig(gains=np.zeros((2, 4)))
    assert err.value.field == "controller.gains"
    with pytest.raises(ScenarioError) as err:
        Scenario(plant=desk2, horizon=5.0, dt=1e-3,
                 controller=ControllerConfig(gains=np.zeros((3, 3)))
                 ).validate()
    assert err.value.field == "controller.gains"


def test_observer_config_checks():
    with pytest.raises(ScenarioError) as err:
        ObserverConfig(l_mode="adaptive")
    assert err.value.field == "observer.l_mode"
    with pytest.raises(ScenarioError) as err:
        ObserverConfig(l_mode="constant")
    assert err.value.field == "observer.l_value"
    with pytest.raises(ScenarioError) as err:
        ObserverConfig(L_max=0.5)
    assert err.value.field == "observer.L_max"
    # a non-finite offset or constant-mode divisor is refused here, not
    # left to end the run at row 0 or to freeze every gain
    for kwargs, name in (({"initial_offset": float("nan")}, "initial_offset"),
                         ({"initial_offset": float("inf")}, "initial_offset"),
                         ({"initial_offset": -float("inf")}, "initial_offset"),
                         ({"l_mode": "constant", "l_value": float("inf")},
                          "l_value"),
                         ({"l_mode": "constant", "l_value": float("nan")},
                          "l_value")):
        with pytest.raises(ScenarioError) as err:
            ObserverConfig(**kwargs)
        assert err.value.field == f"observer.{name}"
    assert ObserverConfig(L_max=float("inf")).L_max == float("inf")


def test_from_dict_rejects_unknown_fields(desk5):
    base = {"plant": desk5.to_dict(), "horizon": 5.0, "dt": 1e-3}
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({**base, "frobnicate": 1})
    assert err.value.field == "frobnicate"
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({"plant": desk5.to_dict(), "horizon": 5.0})
    assert err.value.field == "dt"
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({**base, "observer": {"speed": 2}})
    assert err.value.field == "observer.speed"
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({**base, "weights": {"beta": 1.0}})
    assert err.value.field == "weights.beta"
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({**base, "outputs": {"traj": "mytraj.csv"}})
    assert err.value.field == "outputs.traj"
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({**base, "outputs": {"events": 3}})
    assert err.value.field == "outputs.events"


@pytest.mark.parametrize("name", ["../x.csv", "sub/x.csv", "/tmp/x.csv",
                                  "..", ".", ""])
def test_outputs_must_be_bare_file_names(desk5, name):
    base = {"plant": desk5.to_dict(), "horizon": 5.0, "dt": 1e-3}
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({**base, "outputs": {"report": name}})
    assert err.value.field == "outputs.report"


@pytest.mark.parametrize("outputs, field", [
    ({"trajectory": "run.out", "report": "run.out"}, "outputs.report"),
    ({"events": "trajectory.csv"}, "outputs.events"),      # a default name
])
def test_outputs_must_not_collide(desk5, outputs, field):
    base = {"plant": desk5.to_dict(), "horizon": 5.0, "dt": 1e-3}
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({**base, "outputs": outputs})
    assert err.value.field == field
    assert "also the trajectory file" in str(err.value)


def test_dict_round_trip(desk5):
    d = {
        "name": "loop", "plant": desk5.to_dict(), "horizon": 12.0,
        "dt": 0.002,
        "faults": [{"t_fault": 1.0, "subsystem": 5, "kind": "gain",
                    "factor": 0.4, "fdi_delay": 0.5}],
        "observer": {"l_mode": "constant", "l_value": 2.0},
        "controller": {"gains": [[-0.003, -0.03, 0.0]] * 5},
        "weights": {"alpha": 10.0, "xi": 5.0},
        "j_max": 20.0, "settling_window": 4.0,
    }
    scn = Scenario.from_dict(d)
    again = Scenario.from_dict(scn.to_dict())
    assert again.to_dict() == scn.to_dict()


# ------------------------------------------------------------ output map


def _read(rmap, y_abs, y_ref):
    """The reported readings and the consumed signal of one row, applied as
    ``_Engine.advance`` applies the reading map ``rmap``."""
    scales, fixed, vs = rmap
    y = y_abs.copy()
    for scale in scales:
        np.multiply(y, scale, y)
    if fixed is not None:
        y.put(*fixed)
    return y, (y - y_ref if vs is None else (y - vs[0]) / vs[1])


def test_reading_map_plain_and_faulted(rng):
    y_ref, y = rng.uniform(0.1, 1.0, (2, 4))
    f1, f2 = 0.7, 1.3
    # a reading where scaling twice and scaling by the product differ
    while (y[1] * f1) * f2 == y[1] * (f1 * f2):
        y[1] = rng.uniform(0.1, 1.0)

    def event(sub, kind, factor=None):
        return FaultEvent(t_fault=0.0, subsystem=sub, kind=kind,
                          factor=factor, fdi_delay=0.0)

    def read(active, vs_gain=None):
        rmap = reading_map(active, vs_gain or {}, y_ref)
        out, used = _read(rmap, y, y_ref)
        # bit for bit the faults applied one by one, in order
        assert out.tobytes() == orc._measure_rows(y, active).tobytes()
        return rmap, out, used

    rmap, out, used = read([])
    assert rmap == ([], None, None)     # a healthy row applies nothing
    assert np.array_equal(out, y) and np.array_equal(used, y - y_ref)

    gain, twice = event(2, "gain", f1), event(2, "gain", f2)
    _, out, _ = read([(gain, None)])
    assert out[1] == f1 * y[1] and out[0] == y[0] and out[2] == y[2]
    # two gains are two layers: y f1 f2, not y (f1 f2)
    rmap, out, _ = read([(gain, None), (twice, None)])
    assert len(rmap[0]) == 2 and out[1] == (y[1] * f1) * f2
    # equal events hash alike, yet each listed pair applies once more
    again = event(2, "gain", f1)
    assert again == gain
    assert read([(gain, None), (again, None)])[1][1] == (y[1] * f1) * f1

    stuck = event(1, "stuck")
    assert read([(stuck, 0.77)])[1][0] == 0.77
    dead = event(3, "total-loss")
    _, out, _ = read([(gain, None), (dead, y[2])])
    assert out[2] == 0.0 and out[1] == f1 * y[1]

    # gain -> stuck -> gain on one machine: the held reading times the later
    # gain, written over the reading, so a non-finite one cannot leak in
    late = event(1, "gain", f2)
    active = [(event(1, "gain", f1), None), (stuck, 0.77), (late, None)]
    rmap, out, _ = read(active)
    assert rmap[0] == [] and out[0] == 0.77 * f2
    y[0] = np.nan
    assert _read(rmap, y, y_ref)[0][0] == 0.77 * f2

    # the virtual-sensor correction: (y - f ref) / f at its machine, the
    # deviation itself, bit for bit, everywhere else
    _, out, used = read([(gain, None)], {1: f1})
    assert used[1] == (out[1] - f1 * y_ref[1]) / f1
    dev = out - y_ref
    assert used[[0, 2, 3]].tobytes() == dev[[0, 2, 3]].tobytes()


def test_grid_index_rounding():
    assert _grid_index(150.0, 0.025) == 6000
    assert _grid_index(0.1 + 0.1 + 0.1, 0.1) == 3   # representation noise
    assert _grid_index(0.31, 0.1) == 4              # genuine offset: next node


# ------------------------------------------------------------- controller


def test_no_controller_means_no_feedback(desk2, desk4, desk5):
    # A scenario without gains holds every field voltage at Ef0; from a
    # small estimate offset the plant then stays at its equilibrium.
    for plant in (desk2, desk4, desk5):
        scn = Scenario.from_dict({"plant": plant.to_dict(), "horizon": 5.0,
                                  "dt": 1e-3,
                                  "observer": {"initial_offset": 0.01}})
        assert scn.controller.gains is None
        assert scn.to_dict()["controller"] == {}
        log = run_scenario(scn)
        assert not log.diverged and log.events == [], plant.name
        assert len(log.t) == 5001
        assert np.max(np.abs(log.x)) <= 1e-12


# ------------------------------------------------------------------- runs


def test_healthy_run_holds_equilibrium(desk2):
    scn = Scenario(plant=desk2, horizon=2.0, dt=1e-3,
                   controller=ControllerConfig(gains=np.zeros((2, 3))))
    log = run_scenario(scn, seed=0)
    assert log.t.shape == (2001,)
    assert np.max(np.abs(log.x)) <= 1e-8
    assert np.max(np.abs(log.xhat)) <= 1e-6
    assert np.all(log.L == 1.0)
    assert log.events == [] and not log.unrecoverable


def test_initial_offset_enters_and_decays(desk2):
    scn = Scenario(plant=desk2, horizon=6.0, dt=1e-3,
                   observer=ObserverConfig(initial_offset=0.2),
                   controller=ControllerConfig(gains=np.zeros((2, 3))))
    log = run_scenario(scn, seed=0)
    assert np.allclose(log.xhat[0], 0.2, atol=1e-12)
    err = np.max(np.abs(log.xhat - log.x), axis=(1, 2))
    assert err[-1] < 0.5 * err[0]
    assert np.all(np.diff(log.L, axis=0) >= 0.0)


@pytest.mark.parametrize("stuck_value", [0.123, None])
def test_stuck_fault_holds_reading(desk2, stuck_value):
    fault = FaultEvent(t_fault=0.5, subsystem=1, kind="stuck", fdi_delay=0.2,
                       stuck_value=stuck_value)
    # the shipped study's gains act on the offset estimate, so the plant
    # and the readings move before the fault
    scn = Scenario(plant=desk2, horizon=1.5, dt=1e-3, faults=(fault,),
                   observer=ObserverConfig(initial_offset=0.2),
                   controller=ControllerConfig(
                       gains=np.tile([-0.003, -0.03, 0.0], (2, 1))),
                   settling_window=1.0, reconfigure=False)
    log = run_scenario(scn, seed=0)
    k0 = 500
    held = log.y_meas[k0:, 0]
    if stuck_value is None:
        assert np.all(held == log.y_meas[k0 - 1, 0])
    else:
        assert np.all(held == stuck_value - desk2.op.delta0[0])
    assert not np.all(log.y_meas[:k0, 0] == held[0])
    # the healthy sensor keeps tracking its angle
    assert np.allclose(log.y_meas[:, 1], log.x[:, 1, 0], rtol=0.0, atol=1e-12)


def _reduced_einsum(Gint, Tn, X):
    """The interaction peak and chain activity of the (samples, n, 3) rows
    ``X``, from the full einsum-built interactions and chain states."""
    inter = np.einsum("ikl,sil->sik", Tn, np.einsum("ijkl,sjl->sik", Gint, X))
    z_true = np.einsum("ikl,sil->sik", Tn, X)
    return (np.abs(inter).max(axis=1),
            np.cumsum(np.abs(z_true).sum(axis=1), axis=1))


@pytest.mark.parametrize("n, rows, max_samples, stride",
                         [(5, 40, 2000, 1), (5, 41, 10, 4),
                          (12, 40, 2000, 1), (12, 41, 10, 4),
                          (5, 1201, 400, 3), (40, 601, 200, 3)])
def test_interaction_diagnostics_match_einsum(n, rows, max_samples, stride):
    """The reductions, taken over the samples cut at uneven points (as the
    run's segments cut them), match the full arrays reduced here."""
    rng = np.random.default_rng([n, rows, max_samples])
    Gint = rng.normal(size=(n, n, 3, 3))
    Gint[np.arange(n), np.arange(n)] = 0.0
    Tn = rng.normal(size=(n, 3, 3))
    x = rng.normal(size=(rows, n, 3))
    assert _diag_stride(rows, max_samples) == stride
    X = x[::stride]
    peak_ref, activity_ref = _reduced_einsum(Gint, Tn, X)
    coupling = _chain_coupling(Gint, Tn)
    peak, activity = np.full((2, len(X), 3), np.nan)
    cuts = sorted({0, 1, 4, len(X) // 3 + 1, len(X) - 2, len(X)})
    for j0, j1 in zip(cuts, cuts[1:]):
        _attach_interaction_diagnostics(X[j0:j1], coupling, Tn, peak[j0:j1],
                                        activity[j0:j1])
    assert np.max(np.abs(peak - peak_ref)) < 1e-12
    assert np.max(np.abs(activity - activity_ref)) < 1e-12


def test_run_reduces_its_rows_on_the_stride(desk5):
    """A run whose events cut segments at odd rows, on a stride of 2, keeps
    the reductions of exactly its sampled rows."""
    faults = (FaultEvent(t_fault=1.2345, subsystem=5, kind="gain",
                         factor=0.7, fdi_delay=0.2),
              FaultEvent(t_fault=3.0005, subsystem=5, kind="total-loss",
                         fdi_delay=0.3))
    scn = Scenario(plant=desk5, horizon=4.5, dt=1e-3, faults=faults,
                   settling_window=1.0, controller=ControllerConfig(
                       gains=np.tile([-0.003, -0.03, 0.0], (desk5.n, 1))))
    log = run_scenario(scn)
    assert log.diag_stride == 2
    assert [m.step % 2 for m in log.events] == [1, 1, 1, 1]
    lin = desk5.linearize()
    Tn = np.stack([to_chain_form(StateSpace(
        lin.A[i], lin.Bsub[i].reshape(3, 1), lin.Csub[i])).T
        for i in range(desk5.n)])
    peak_ref, activity_ref = _reduced_einsum(lin.Gint, Tn, log.x[::2])
    assert log.interaction_peak.shape == peak_ref.shape == (2251, 3)
    scale = max(np.max(peak_ref), np.max(activity_ref))
    assert np.max(np.abs(log.interaction_peak - peak_ref)) < 1e-12 * scale
    assert np.max(np.abs(log.chain_activity - activity_ref)) < 1e-12 * scale


def test_two_fault_markers(two_fault_log):
    scn, log = two_fault_log
    assert not log.unrecoverable
    assert [m.label for m in log.events] == [
        "fault:sub5:gain",
        "fdi:sub5:virtual-sensor",
        "fault:sub5:total-loss",
        "fdi:sub5:augmentation",
    ]
    assert [m.step for m in log.events] == [15000, 18000, 25000, 26000]
    assert [m.kind for m in log.events] == ["fault", "fdi", "fault", "fdi"]
    assert all(m.subsystem == 5 for m in log.events)
    for m in log.events:
        assert m.t == pytest.approx(m.step * scn.dt, abs=1e-9)
    assert [p.mode for _, p in log.plans] == ["virtual-sensor",
                                              "augmentation"]
    assert log.plans[1][1].augment_set == (5, 2)


def test_two_fault_recovery_rows(two_fault_log):
    scn, log = two_fault_log
    rows = recovery_summary(scn, log)
    assert [r["subsystem"] for r in rows] == [5, 5]
    assert [r["kind"] for r in rows] == ["gain", "total-loss"]
    assert [r["plan_mode"] for r in rows] == ["virtual-sensor",
                                              "augmentation"]
    for r in rows:
        assert r["verdict"] in ("recovered", "not-recovered")
        assert r["peak"] > 0.0 and r["tail_max"] >= 0.0


def fold_windows(log, scn, planned=None, chunk=97):
    """``log`` with the recovery windows of ``scn`` folded from its rows
    ``chunk`` at a time, as a run of ``planned`` rows (default: the log's)
    folds its checked segments."""
    rows = len(log.x)
    windows = _RecoveryWindows(scn, planned or rows)
    for k0 in range(0, rows, chunk):
        windows.add(k0, log.x[k0:k0 + chunk])
    log.rows, log.windows = rows, windows.close(rows)
    return log


def synthetic_log(scn, profile, plans=()):
    t = np.linspace(0.0, 20.0, 2001)
    x = np.zeros((t.size, 1, 3))
    x[:, 0, 0] = profile(t)
    zeros = np.zeros((t.size, 1))
    return fold_windows(TrajectoryLog(
        scenario_name="synthetic", t=t, x=x, xhat=np.zeros_like(x),
        y_meas=zeros, y_used=zeros, L=np.ones((t.size, 1)),
        plans=list(plans)), scn)


def test_recovery_summary_verdicts(desk2):
    fault = FaultEvent(t_fault=5.0, subsystem=1, kind="total-loss",
                       fdi_delay=1.0)
    scn = Scenario(plant=desk2, horizon=20.0, dt=0.01, faults=(fault,),
                   settling_window=5.0)

    decay = synthetic_log(scn, lambda t: np.where(t >= 5.0,
                                                  np.exp(-(t - 5.0)), 0.0))
    assert recovery_summary(scn, decay)[0]["verdict"] == "recovered"

    flat = synthetic_log(scn, lambda t: np.where(t >= 5.0, 1.0, 0.0))
    assert recovery_summary(scn, flat)[0]["verdict"] == "not-recovered"

    doomed = synthetic_log(
        scn, lambda t: np.where(t >= 5.0, np.exp(-(t - 5.0)), 0.0),
        plans=[(6.0, ReconfigPlan(mode="unrecoverable", faulty_id=1))])
    assert recovery_summary(scn, doomed)[0]["verdict"] == "unrecoverable"


def test_isolated_machine_is_unrecoverable():
    plant = island_plant()
    scn = Scenario(
        plant=plant, horizon=15.0, dt=1e-3,
        faults=(FaultEvent(t_fault=3.0, subsystem=1, kind="total-loss",
                           fdi_delay=1.0),),
        controller=ControllerConfig(gains=np.zeros((2, 3))),
        j_max=20.0)
    log = run_scenario(scn, seed=0)
    assert log.unrecoverable
    assert log.t.shape == (15001,)    # the run still completes
    assert [m.label for m in log.events] == ["fault:sub1:total-loss",
                                             "fdi:sub1:unrecoverable"]
    assert recovery_summary(scn, log)[0]["verdict"] == "unrecoverable"


def blocked_log(rows, edit=None, diverged=False, plans=(), dt=1.0):
    """A seeded two-machine log, on a unit grid (t equals the row index)
    unless ``dt`` says otherwise."""
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(rows, 2, 3)) \
        * np.exp(-8.0 * np.arange(rows) / rows)[:, None, None]
    if edit is not None:
        edit(x)
    zeros = np.zeros((rows, 2))
    return TrajectoryLog(scenario_name="blocked", t=np.arange(rows) * dt,
                         x=x, xhat=np.zeros_like(x), y_meas=zeros,
                         y_used=zeros, L=np.ones((rows, 2)),
                         plans=list(plans), diverged=diverged)


def faults_at(*times, settling=100.0, dt=1.0):
    return types.SimpleNamespace(
        faults=[FaultEvent(t_fault=float(t), subsystem=1 + k % 2,
                           kind="total-loss", fdi_delay=0.5)
                for k, t in enumerate(times)],
        settling_window=settling, dt=dt)


def _nonfinite(x):
    x[7, 1, 2] = np.nan                     # inside the first window
    x[ROW_BLOCK, 0, 0] = np.inf             # first row of a block
    x[ROW_BLOCK - 1, 1, 1] = -np.inf        # last row of the block before
    x[2 * ROW_BLOCK + 30, 0, 1] = np.nan    # only in the last window's tail


def _zero_window(x):
    x[ROW_BLOCK - 50:2 * ROW_BLOCK + 50] = -0.0    # a window across blocks


B = ROW_BLOCK
RECOVERY_CASES = {
    # windows that start on, end on, and cross block edges
    "block-edges": (lambda: blocked_log(3 * B + 17),
                    faults_at(5, B - 1, B, 2 * B - 1, 2 * B + 0.5, 3 * B)),
    "nan-and-inf": (lambda: blocked_log(2 * B + 40, _nonfinite),
                    faults_at(3, B - 1, 2 * B + 1, settling=20.0)),
    "all-zero-window": (lambda: blocked_log(2 * B + 100, _zero_window),
                        faults_at(10, B - 40, 2 * B + 40)),
    # equal fault times and a fault at the last row give one-row windows
    "one-row-windows": (lambda: blocked_log(B + 9),
                        faults_at(10, 10, 300, B + 8)),
    "one-row-log": (lambda: blocked_log(1), faults_at(0, 0)),
    "whole-blocks": (lambda: blocked_log(2 * B), faults_at(0, B)),
    # 43 * 0.1 / 0.1 rounds to 42.99..., yet the last tail is all 44 rows:
    # the ring's spare row holds the first, the log's peak
    "tail-past-int": (lambda: blocked_log(44, dt=0.1),
                      faults_at(0, settling=43 * 0.1, dt=0.1)),
    # cut short by a divergence verdict: the last window runs to the cut and
    # a fault after the cut has an empty window
    "diverged": (lambda: blocked_log(
        2 * B + 5, diverged=True,
        plans=[(B + 10.0, ReconfigPlan(mode="unrecoverable", faulty_id=2))]),
        faults_at(B // 2, B + 3, 2 * B + 2, 3 * B)),
}


@pytest.mark.parametrize("case", sorted(RECOVERY_CASES))
def test_recovery_summary_matches_full_array_oracle(case):
    make_log, scn = RECOVERY_CASES[case]
    log = make_log()
    fold_windows(log, scn, planned=len(log.x) + (B if log.diverged else 0))
    got = recovery_summary(scn, log)
    # json text, so -0.0 against 0.0 and NaN against a number both differ
    assert json.dumps(got) == json.dumps(orc.recovery_summary_full(scn, log))
    assert len(got) == len(scn.faults)


def test_recovery_summary_oracle_cases_reach_every_branch():
    verdicts, peaks = set(), []
    for make_log, scn in RECOVERY_CASES.values():
        rows = recovery_summary(scn, fold_windows(make_log(), scn))
        verdicts |= {r["verdict"] for r in rows}
        peaks += [r["peak"] for r in rows]
    assert verdicts == {"recovered", "not-recovered", "diverged",
                        "unrecoverable"}
    assert any(np.isnan(p) for p in peaks) and np.inf in peaks
    assert 0.0 in peaks


STATE_VALUES = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0]),
    st.floats(-4.0, 4.0))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dt=st.sampled_from([1.0, 0.3, 0.1, 1e-3]))
def test_recovery_windows_fold_like_the_full_array_oracle(data, dt):
    """Any chunking of a run's rows, NaN, inf and -0.0 among them and cut
    short of its planned rows by a divergence trip, folds into the windows
    that the full-array oracle reads off the whole log."""
    planned = data.draw(st.integers(1, 120), label="planned rows")
    rows = data.draw(st.integers(1, planned), label="rows before a trip")
    x = data.draw(arrays(np.float64, (rows, 2, 3), elements=STATE_VALUES))
    ends = data.draw(st.lists(st.integers(1, rows), max_size=5))
    times = data.draw(st.lists(st.floats(0.0, (planned + 3) * dt),
                               max_size=4))
    # whole multiples of dt round either way, and a tail then needs the
    # ring's spare row
    settling = data.draw(st.one_of(st.floats(0.0, planned * dt),
                                   st.integers(0, planned).map(
                                       lambda m: m * dt)))
    scn = types.SimpleNamespace(
        faults=[FaultEvent(t_fault=t, subsystem=1, kind="total-loss",
                           fdi_delay=0.5) for t in sorted(times)],
        settling_window=settling, dt=dt)
    windows = _RecoveryWindows(scn, planned)
    for k0, k1 in zip([0] + sorted(set(ends)), sorted(set(ends) | {rows})):
        windows.add(k0, x[k0:k1])
    zeros = np.zeros((rows, 2))
    log = TrajectoryLog(scenario_name="folded", t=np.arange(rows) * dt, x=x,
                        xhat=x, y_meas=zeros, y_used=zeros, L=zeros,
                        diverged=rows < planned, rows=rows,
                        windows=windows.close(rows))
    assert (json.dumps(recovery_summary(scn, log))
            == json.dumps(orc.recovery_summary_full(scn, log)))
    assert np.array_equal(_row_peaks(x), np.max(np.abs(x), axis=(1, 2)),
                          equal_nan=True)


def test_build_report_memory_stays_within_blocks(desk5):
    """The passes after a run hold block-sized temporaries, not a second
    copy of the dense state log."""
    rows, n = 200_001, 5
    t = np.arange(rows) * 1e-3
    x = np.empty((rows, n, 3))
    x[...] = np.exp(-t)[:, None, None]
    zeros = np.zeros((rows, n))
    rng = np.random.default_rng(5)
    log = TrajectoryLog(scenario_name="memory", t=t, x=x, xhat=x,
                        y_meas=zeros, y_used=zeros, L=zeros,
                        interaction_peak=np.abs(rng.normal(size=(2000, 3))),
                        chain_activity=np.cumsum(
                            np.abs(rng.normal(size=(2000, 3))), axis=1),
                        diag_stride=100)
    scn = Scenario(plant=desk5, horizon=200.0, dt=1e-3, name="memory",
                   faults=(FaultEvent(t_fault=100.0, subsystem=5,
                                      kind="total-loss", fdi_delay=1.0),
                           FaultEvent(t_fault=150.0, subsystem=4,
                                      kind="total-loss", fdi_delay=1.0)))
    fold_windows(log, scn, chunk=1000)
    tracemalloc.start()
    try:
        report = build_report(scn, log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r["verdict"] for r in report.recovery] == ["recovered"] * 2
    limit = x.nbytes / 4
    assert peak < limit, f"traced peak {peak} B, limit {limit:.0f} B"


def diverging_scenario(plant, gains):
    """Five seconds of desk2 under feedback gains that do not hold it, with
    a gain fault that the divergence verdict comes before."""
    late = FaultEvent(t_fault=4.0, subsystem=1, kind="gain", factor=0.5,
                      fdi_delay=0.5)
    return Scenario(plant=plant, horizon=5.0, dt=1e-3, faults=(late,),
                    settling_window=1.0,
                    observer=ObserverConfig(initial_offset=0.05),
                    controller=ControllerConfig(
                        gains=np.tile(gains, (plant.n, 1))),
                    name="diverging")


@pytest.mark.parametrize("gains, first_bad", [
    # the angles pass pi at row 862; without the check the state turns
    # non-finite at row 1301 and the run goes on to the horizon
    ([-200.0, 0.0, 0.0], 862),
    # the machines slip, to 9.17 rad by the horizon without the check
    ([-5.0, -5.0, -5.0], 2864),
])
def test_divergence_verdict_ends_the_run(desk2, gains, first_bad):
    scn = diverging_scenario(desk2, gains)
    log = run_scenario(scn, seed=0)
    assert log.diverged and not log.unrecoverable
    # the check runs after a segment of rows; the log ends at the first bad
    # row, not at the end of its segment
    rows = first_bad + 1
    assert log.t.shape == (rows,) and log.x.shape == (rows, 2, 3)
    marker = log.events[-1]
    assert (marker.kind, marker.step) == ("diverged", first_bad)
    assert marker.label == f"diverged:sub{marker.subsystem}"
    assert "exceeds pi" in marker.detail["reason"]
    assert np.max(np.abs(log.x[:first_bad, :, 0])) <= np.pi
    assert np.max(np.abs(log.x[first_bad, :, 0])) > np.pi
    report = build_report(scn, log).to_dict()
    assert report["diverged"] is True
    # the run ended before the fault it scheduled: its verdict says why
    assert [m.kind for m in log.events] == ["diverged"]
    assert [r["verdict"] for r in report["recovery"]] == ["diverged"]


def test_diverged_log_ends_at_the_tripping_row(desk5):
    # Past the tripping row (256) the state turns non-finite before the
    # segment's check at row 1,000; overflow is the verdict's to report, so
    # the run raises no numpy warning, and no row past row 256 is kept.
    scn = Scenario(plant=desk5, horizon=3.0, dt=1e-3,
                   observer=ObserverConfig(initial_offset=0.5),
                   controller=ControllerConfig(
                       gains=np.tile([50.0, 50.0, 50.0], (desk5.n, 1))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = run_scenario(scn, seed=0)
        report = build_report(scn, log)
    marker = log.events[-1]
    assert marker.kind == "diverged" and marker.step == 256
    assert len(log.t) == marker.step + 1
    assert np.all(np.isfinite(log.x)) and np.all(np.isfinite(log.xhat))
    assert report.diverged and np.all(np.isfinite(report.interaction_bounds))


def test_noise_is_seeded(desk2, tmp_path):
    scn = Scenario(plant=desk2, horizon=1.0, dt=1e-3, noise_amplitude=1e-3,
                   controller=ControllerConfig(gains=np.zeros((2, 3))))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(run_scenario(scn, seed=7), a)
    write_trajectory_csv(run_scenario(scn, seed=7), b)
    assert a.read_bytes() == b.read_bytes()
    other = run_scenario(scn, seed=8)
    assert np.max(np.abs(other.y_meas - run_scenario(scn, seed=7).y_meas)) > 0


@pytest.mark.parametrize("noise", [0.0, 1e-3])
@pytest.mark.parametrize("seed, error", [(-1, ValueError),
                                         (1.5, TypeError),
                                         (None, TypeError)])
def test_every_run_checks_its_seed(desk2, noise, seed, error):
    """A noise-free run draws nothing, yet takes a seed only where a noisy
    run would: a nonnegative integer."""
    scn = Scenario(plant=desk2, horizon=0.01, dt=1e-3, noise_amplitude=noise)
    with pytest.raises(error):
        run_scenario(scn, seed=seed)
    assert len(run_scenario(scn, seed=np.int64(3)).t) == 11


# ---------------------------------------------------------------- writers


def test_trajectory_csv_layout(two_fault_log, tmp_path):
    scn, log = two_fault_log
    path = tmp_path / "traj.csv"
    write_trajectory_csv(log, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 40002    # header + horizon/dt + 1 rows

    header = ["t"]
    for i in range(1, 6):
        header += [f"sub{i}_x{j}" for j in (1, 2, 3)]
        header += [f"sub{i}_xhat{j}" for j in (1, 2, 3)]
        header += [f"sub{i}_y", f"sub{i}_L"]
    header.append("event")
    assert lines[0] == ",".join(header)

    assert lines[1 + 18000].endswith("fdi:sub5:virtual-sensor")
    data = np.loadtxt(path, delimiter=",", skiprows=1,
                      usecols=range(41), max_rows=100)
    assert np.allclose(data[:, 0], log.t[:100])
    assert np.allclose(data[:, 1], log.x[:100, 0, 0])


@pytest.mark.parametrize("rows", [1, 1023, 1024, 2500])
def test_trajectory_csv_rows_match_row_oracle(rows, tmp_path):
    # the scratch array is reused: a short last block must not carry rows
    # over from the block before it
    log = blocked_log(rows)
    log.xhat = -0.5 * log.x
    log.y_used = log.x[:, :, 0] + 1.0
    log.L = np.full((rows, 2), 3.25)
    log.events = [EventMarker(t=float(r), step=r, kind="fault", subsystem=1,
                              label=f"mark{r}") for r in (0, rows - 1)]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(log, path)
    lines = path.read_text().splitlines()
    assert len(lines) == rows + 1
    assert lines[1:] == orc.trajectory_csv_rows(log)


def test_event_and_report_json(two_fault_log, tmp_path):
    scn, log = two_fault_log
    epath = tmp_path / "events.json"
    write_events_json(log, epath)
    payload = json.loads(epath.read_text())
    assert payload["scenario"] == "compressed-double"
    assert [e["label"] for e in payload["events"]] == \
        [m.label for m in log.events]
    assert [p["plan"]["mode"] for p in payload["plans"]] == \
        ["virtual-sensor", "augmentation"]

    report = build_report(scn, log, wall_time_s=1.25,
                          outputs={"trajectory": "traj.csv"})
    rpath = tmp_path / "report.json"
    write_report_json(report, rpath)
    loaded = json.loads(rpath.read_text())
    assert loaded["scenario"] == "compressed-double"
    assert loaded["wall_time_s"] == 1.25
    assert len(loaded["recovery"]) == 2
    assert loaded["outputs"] == {"trajectory": "traj.csv"}
    assert loaded["unrecoverable"] is False
    # one disturbance bound per chain coordinate; the measured row sees none
    assert len(loaded["interaction_bounds"]) == 3
    assert loaded["interaction_bounds"][0] == 0.0
