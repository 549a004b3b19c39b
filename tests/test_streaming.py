"""``gridftc run`` streams its rows to disk one checked segment at a time:
its files against the dense library path, and its memory against the
dense log's."""

import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings

import _oracles as orc
import gridftc.cli
from gridftc.cli import main
from gridftc.desk_models import desk2_plant, desk4_plant, desk5_plant
from gridftc.power_model import currents, derivatives
from gridftc.sim_engine import (
    DIVERGENCE_CHECK_STEPS,
    Scenario,
    build_report,
    load_scenario,
    run_scenario,
    write_events_json,
    write_report_json,
    write_trajectory_csv,
)
from test_engine_timelines import timelines

GENTLE = [[-0.003, -0.03, 0.0]]


def _scenario(plant, horizon, dt=1e-3, faults=(), gains=GENTLE, **extra):
    return {"name": "stream", "plant": plant.to_dict(), "horizon": horizon,
            "dt": dt, "faults": list(faults),
            "controller": {"gains": gains * plant.n}, **extra}


def _fault(t, sub, kind, delay, **extra):
    return {"t_fault": t, "subsystem": sub, "kind": kind, "fdi_delay": delay,
            **extra}


def _masked(report_bytes: bytes) -> bytes:
    report = json.loads(report_bytes)
    report["wall_time_s"] = None
    return (json.dumps(report, indent=2) + "\n").encode()


def assert_stream_matches_dense(scn_dict, tmp_path, seed=0):
    """``gridftc run`` writes the bytes that the dense log gives through the
    library writers, ``wall_time_s`` aside, and both runs return the same
    summaries; returns the run's exit code and its scenario."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn_dict))
    streamed, dense = tmp_path / "streamed", tmp_path / "dense"
    dense.mkdir()
    returned = []

    def run_and_keep(*args, **kwargs):
        returned.append(run_scenario(*args, **kwargs))
        return returned[-1]

    with mock.patch.object(gridftc.cli, "run_scenario", run_and_keep):
        code = main(["run", str(path), "--out", str(streamed), "--seed",
                     str(seed)])

    scn = load_scenario(path)
    log = run_scenario(scn, seed=seed)
    names = scn.outputs
    write_trajectory_csv(log, dense / names["trajectory"])
    write_events_json(log, dense / names["events"])
    report = build_report(scn, log, outputs={
        key: str(streamed / name) for key, name in names.items()})
    write_report_json(report, dense / names["report"])

    assert code == (3 if log.diverged or log.unrecoverable else 0)
    for key in ("trajectory", "events"):
        assert ((streamed / names[key]).read_bytes()
                == (dense / names[key]).read_bytes()), key
    assert (_masked((streamed / names["report"]).read_bytes())
            == (dense / names["report"]).read_bytes())
    for key in ("interaction_peak", "chain_activity"):
        got, want = getattr(returned[0], key), getattr(log, key)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), key
    # json text, so -0.0 against 0.0 and NaN against a number both differ
    assert returned[0].rows == log.rows == len(log.t)
    assert json.dumps(returned[0].windows) == json.dumps(log.windows)
    assert json.dumps(log.windows) == json.dumps(
        [(r["peak"], r["tail_max"])
         for r in orc.recovery_summary_full(scn, log)])
    return code, scn


CASES = {
    # 2,501 rows; the fault lands on a block edge, its diagnosis mid-block
    "block-edge-gain": _scenario(
        desk2_plant(), 2.5, faults=[_fault(1.0, 1, "gain", 0.25,
                                           factor=0.6)],
        settling_window=1.0),
    # a stuck sensor mid-block with noise on and no reconfiguration
    "stuck-noise-passive": _scenario(
        desk4_plant(), 1.7, faults=[_fault(0.5, 3, "stuck", 0.2)],
        noise_amplitude=1e-3, reconfigure=False, settling_window=1.0),
    # a dead sensor on a block edge, merged with a helper mid-block
    "total-loss-merged": _scenario(
        desk5_plant(), 3.3, faults=[_fault(2.0, 5, "total-loss", 0.3)],
        settling_window=1.0),
    # a virtual sensor, then a merged observer, while the consumer evaluates
    # the run's own plant after every segment
    "shared-plant-calls": _scenario(
        desk5_plant(), 3.3, faults=[_fault(0.6, 5, "gain", 0.2, factor=0.7),
                                    _fault(2.0, 5, "total-loss", 0.3)],
        settling_window=1.0),
}


def _evaluate_plant_between_segments(monkeypatch) -> list:
    """Make ``gridftc run`` call ``derivatives`` and ``currents`` on the
    plant it runs after writing each segment, at the segment's last state;
    returns the list that counts the calls."""
    loaded, calls = [], []
    load, write = gridftc.cli.load_scenario, gridftc.cli.write_trajectory_csv

    def load_and_keep(path):
        loaded.append(load(path))
        return loaded[-1]

    def write_and_evaluate(segment, path):
        write(segment, path)
        plant = loaded[-1].plant
        x = segment.x[-1] + 0.01
        derivatives(x, plant.op.Ef0 + 0.1, plant.generators, plant.op,
                    plant.network)
        currents(x, plant.op, plant.network)
        calls.append(segment.row0)

    monkeypatch.setattr(gridftc.cli, "load_scenario", load_and_keep)
    monkeypatch.setattr(gridftc.cli, "write_trajectory_csv",
                        write_and_evaluate)
    return calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_streamed_run_matches_dense_outputs(case, tmp_path, monkeypatch):
    seed = 4 if case == "stuck-noise-passive" else 0
    calls = []
    if case == "shared-plant-calls":
        # the run's scratch is its own: calls on the plant that every run of
        # it shares, between the run's segments, leave its bytes alone
        calls = _evaluate_plant_between_segments(monkeypatch)
    assert_stream_matches_dense(CASES[case], tmp_path, seed=seed)
    assert len(calls) == (7 if case == "shared-plant-calls" else 0)


def test_streamed_divergence_ends_csv_at_tripping_row(tmp_path):
    scn = _scenario(desk2_plant(), 5.0, gains=[[-5.0, -5.0, -5.0]],
                    observer={"initial_offset": 0.05})
    code, _ = assert_stream_matches_dense(scn, tmp_path)
    assert code == 3
    events = json.loads((tmp_path / "streamed" / "events.json").read_text())
    marker = events["events"][-1]
    assert marker["kind"] == "diverged"
    assert marker["step"] % DIVERGENCE_CHECK_STEPS != 0     # mid-block
    lines = (tmp_path / "streamed" / "trajectory.csv").read_text() \
        .splitlines()
    assert len(lines) == 2 + marker["step"]
    assert lines[-1].endswith("," + marker["label"])


@settings(max_examples=4, deadline=None)
@given(scn=timelines())
def test_streamed_timelines_match_dense(scn, tmp_path_factory):
    assert_stream_matches_dense(scn.to_dict(),
                                tmp_path_factory.mktemp("timeline"))


def _run(tmp_path, rows: int) -> None:
    path = tmp_path / f"rows{rows}.json"
    path.write_text(json.dumps(_scenario(desk5_plant(), (rows - 1) * 1e-3)))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0


def _traced_peak(tmp_path, rows: int) -> int:
    tracemalloc.start()
    try:
        _run(tmp_path, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_run_memory_is_flat_in_rows(tmp_path, capsys):
    """Past one block, ``gridftc run`` holds no more per row of its
    horizon, let alone a dense log of ``(1 + 9 n) * 8`` bytes per row."""
    short, long = 5_001, 20_001
    _run(tmp_path, 11)      # one-time imports and caches, untraced
    peak_short = _traced_peak(tmp_path, short)
    peak_long = _traced_peak(tmp_path, long)
    growth = peak_long - peak_short
    # the slack is mostly the CSV writer's formatted block, whose numbers
    # take exponents as the state decays: 119.5 kB of growth here, and
    # 237.8 kB with 8 bytes of row peaks per row
    assert growth < 160_000, \
        f"traced peak grew {growth} B over {long - short} rows"
    dense_log = (1 + 9 * desk5_plant().n) * 8 * long
    assert peak_long < dense_log / 4, \
        f"traced peak {peak_long} B, dense log {dense_log} B"


def test_dense_run_memory_is_its_rows_and_summaries():
    """A dense run holds its rows (``t`` and nine doubles per machine), the
    recovery windows' ring of row peaks (none without faults) and the two
    (samples, 3) interaction reductions, plus a slack for set-up and
    scratch: no per-row peaks, no copy of the diagnostic's samples, no
    (samples, n, 3) diagnostic array and no second block of rows.  At 3,001
    rows the stride is 1, so each would add 360 kB."""
    scn = Scenario.from_dict(_scenario(desk5_plant(), 3.0))
    run_scenario(scn)       # one-time imports and caches, untraced
    tracemalloc.start()
    try:
        log = run_scenario(scn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows, n = log.x.shape[:2]
    assert log.diag_stride == 1
    # the slack: about 72 kB traced here (the reductions' block scratch
    # included), against 360 kB for each waste
    ring = (8 * min(rows, int(scn.settling_window / scn.dt) + 2)
            if scn.faults else 0)
    bound = ((1 + 9 * n) * 8 * rows + ring + log.interaction_peak.nbytes
             + log.chain_activity.nbytes + 128_000)
    assert peak < bound, f"traced peak {peak} B, bound {bound} B"
