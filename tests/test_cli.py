"""End-to-end command-line checks driven through ``main(argv)``."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import _oracles as orc
import gridftc
from gridftc.cli import _series, main
from gridftc.desk_models import data_path
from test_sim_engine import island_plant


@pytest.fixture(scope="module")
def desk5_plant_path():
    return str(data_path("desk5_plant.json"))


@pytest.fixture(scope="module")
def short_run(tmp_path_factory, desk2):
    """One tiny healthy run shared by the output-consuming tests."""
    root = tmp_path_factory.mktemp("cli-short")
    scn_path = root / "scenario.json"
    scn_path.write_text(json.dumps({
        "name": "short",
        "plant": desk2.to_dict(),
        "horizon": 2.0,
        "dt": 1e-3,
        "controller": {"gains": [[0.0, 0.0, 0.0]] * 2},
    }))
    out = root / "out"
    assert main(["run", str(scn_path), "--out", str(out)]) == 0
    return scn_path, out


# ------------------------------------------------------------------- run


def test_run_writes_all_outputs(short_run):
    _, out = short_run
    traj = out / "trajectory.csv"
    assert traj.exists()
    assert len(traj.read_text().splitlines()) == 2002  # header + steps + 1
    events = json.loads((out / "events.json").read_text())
    assert events["scenario"] == "short" and events["events"] == []
    report = json.loads((out / "report.json").read_text())
    assert report["unrecoverable"] is False
    assert report["wall_time_s"] > 0


def test_run_missing_scenario(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_run_reports_bad_field(short_run, tmp_path, capsys):
    scn_path, _ = short_run
    # Machine 2 measures one row (row 0); a fault on row 1 is diagnosed
    # within the horizon, so only validation can catch it.
    row1 = {"faults": [{"t_fault": 1.0, "subsystem": 2, "kind": "total-loss",
                        "sensor_row": 1, "fdi_delay": 0.5}],
            "settling_window": 0.5}

    def fault(**fields):
        event = {"t_fault": 1.0, "subsystem": 2, "kind": "gain",
                 "factor": 0.5, "fdi_delay": 0.5}
        event.update(fields)
        return {"faults": [event], "settling_window": 0.5}

    # a fault entry's own fields, each named with what it must be
    entry = [(fault(t_fault="150"), "faults[0].t_fault"),
             (fault(fdi_delay="3"), "faults[0].fdi_delay"),
             (fault(fdi_delay=None), "faults[0].fdi_delay"),
             (fault(subsystem="5"), "faults[0].subsystem"),
             (fault(sensor_row="0"), "faults[0].sensor_row"),
             (fault(t_fault=-1.0), "faults[0].t_fault"),
             (fault(kind="Gain"), "faults[0].kind"),
             (fault(factor=None), "faults[0].factor"),
             (fault(subsystem=0), "faults[0].subsystem")]
    for update, field in [
            ({"dt": 0.0}, "dt"),
            ({"controller": {"poles": [-1.2, -1.7, -2.4]}}, "controller.poles"),
            ({"outputs": {"traj": "mytraj.csv"}}, "outputs.traj"),
            ({"outputs": {"report": "../escaped.json"}}, "outputs.report"),
            ({"outputs": {"events": "trajectory.csv"}}, "outputs.events"),
            ({"observer": None}, "observer"),
            ({"weights": [1, 2]}, "weights"),
            ({"horizon": "abc"}, "horizon"),
            ({"j_max": "x"}, "j_max"),
            ({"reconfigure": "false"}, "reconfigure"),
            (row1, "faults[0].sensor_row"),
            ({"horizon": math.inf}, "horizon"),
            ({"dt": math.inf}, "dt"),
            ({"noise_amplitude": math.nan}, "noise_amplitude"),
            ({"settling_window": math.inf}, "settling_window"),
            ({"weights": {"alpha": math.inf}}, "weights.alpha"),
            ({"weights": {"xi": math.inf}}, "weights.xi"),
            (fault(t_fault=math.nan), "faults[0].t_fault"),
            (fault(t_fault=math.inf), "faults[0].t_fault"),
            (fault(fdi_delay=math.nan), "faults[0].fdi_delay"),
            (fault(fdi_delay=math.inf), "faults[0].fdi_delay"),
            (fault(factor=math.nan), "faults[0].factor"),
            (fault(factor=math.inf), "faults[0].factor"),
            (fault(factor="x"), "faults[0].factor"),
            (fault(kind="stuck", factor=None, stuck_value=math.nan),
             "faults[0].stuck_value"),
            (fault(subsystem=1.5), "faults[0].subsystem"),
            (fault(subsystem=True), "faults[0].subsystem"),
            (fault(sensor_row=0.0), "faults[0].sensor_row"),
            (fault(factor=True), "faults[0].factor"),
            ({"horizon": True}, "horizon"),
            (fault(factor="0.4"), "faults[0].factor"),
            (fault(kind="stuck", factor=None, stuck_value="0.5"),
             "faults[0].stuck_value"),
            ({"horizon": "20"}, "horizon"),
            ({"j_max": "20"}, "j_max"),
            ({"horizon": 10 ** 400}, "horizon")] + entry:
        d = json.loads(scn_path.read_text())
        d.update(update)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"'{field}'" in err
        if (update, field) in entry:
            assert f"{field}: must be " in err and ", got " in err, err
    assert not (tmp_path / "mytraj.csv").exists()


def test_run_unrecoverable_exit_code(tmp_path, capsys):
    scn = {
        "name": "island",
        "plant": island_plant().to_dict(),
        "horizon": 9.0,
        "dt": 1e-3,
        "faults": [{"t_fault": 3.0, "subsystem": 1, "kind": "total-loss",
                    "fdi_delay": 1.0}],
        "controller": {"gains": [[0.0, 0.0, 0.0]] * 2},
        "settling_window": 5.0,
        "j_max": 20.0,
        "outputs": {"trajectory": "island.csv"},
    }
    path = tmp_path / "island.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 3
    assert "unrecoverable" in capsys.readouterr().err
    # the custom name is honored and the other files keep their defaults
    assert (tmp_path / "island.csv").exists()
    assert (tmp_path / "events.json").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["outputs"] == {
        key: str(tmp_path / name) for key, name in [
            ("trajectory", "island.csv"), ("events", "events.json"),
            ("report", "report.json")]}
    assert report["unrecoverable"] is True
    assert report["recovery"][0]["verdict"] == "unrecoverable"


def test_run_summary_counts_steps(short_run, tmp_path, capsys):
    scn_path, _ = short_run
    assert main(["run", str(scn_path), "--out", str(tmp_path)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("scenario short: 2000 steps in ")
    assert first.endswith(" us/step)")


def test_run_divergence_exit_code(tmp_path, desk2, capsys):
    scn = {
        "name": "slip",
        "plant": desk2.to_dict(),
        "horizon": 5.0,
        "dt": 1e-3,
        "observer": {"initial_offset": 0.05},
        "controller": {"gains": [[-5.0, -5.0, -5.0]] * 2},
    }
    path = tmp_path / "slip.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert "diverged" in captured.err
    assert captured.out.startswith("scenario slip: 2864 steps in ")
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["diverged"] is True and report["unrecoverable"] is False
    events = json.loads((tmp_path / "events.json").read_text())["events"]
    assert [e["kind"] for e in events] == ["diverged"]
    # the trajectory ends at the row that tripped the check
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2 + events[0]["step"] == 2866
    assert lines[-1].endswith("," + events[0]["label"])


def test_subcommands_reject_flags_they_ignore(short_run, desk5_plant_path,
                                              tmp_path):
    scn_path, out = short_run
    scn, traj = str(scn_path), str(out / "trajectory.csv")
    fault = ["--fault", "gain", "--subsystem", "5", "--factor", "0.4"]
    for argv in (["run", scn, "--tol", "3"],
                 ["analyze", desk5_plant_path, "--seed", "9"],
                 ["analyze", desk5_plant_path, "--out", str(tmp_path)],
                 ["plan", desk5_plant_path, *fault, "--seed", "9"],
                 ["plan", desk5_plant_path, *fault, "--out", str(tmp_path)],
                 ["plotdata", traj, "sub1_x1", "--tol", "3"],
                 ["plotdata", traj, "sub1_x1", "--seed", "9"],
                 ["plotdata", traj, "sub1_x1", "--fault", "gain"],
                 ["validate", scn, "--seed", "9"],
                 ["validate", scn, "--tol", "3"],
                 ["validate", scn, "--out", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_import_leaves_scipy_out():
    src = Path(gridftc.__file__).resolve().parents[1]
    code = ("import sys, gridftc, gridftc.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_out_env_var_fallback(short_run, tmp_path, monkeypatch):
    scn_path, _ = short_run
    monkeypatch.setenv("GRIDFTC_OUT", str(tmp_path))
    assert main(["run", str(scn_path)]) == 0
    assert (tmp_path / "trajectory.csv").exists()


# --------------------------------------------------------------- analyze


def test_analyze_healthy_plant(desk5_plant_path, capsys):
    assert main(["analyze", desk5_plant_path]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["subsystems"] == 5
    rows = result["nominal_observability"]
    assert [r["subsystem"] for r in rows] == [1, 2, 3, 4, 5]
    assert all(r["observable"] and r["rank"] == 3 for r in rows)
    assert "candidates" not in result


def test_analyze_fault_marks_cheapest(desk5_plant_path, capsys):
    assert main(["analyze", desk5_plant_path, "--fault", "total-loss",
                 "--subsystem", "5", "--j-max", "20"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["plan"]["mode"] == "augmentation"
    assert result["plan"]["augment_set"] == [5, 2]

    rows = result["candidates"]
    chosen = [r for r in rows if r["chosen"]]
    assert len(chosen) == 1 and chosen[0]["candidate"] == [5, 2]
    priced = [r["J"] for r in rows if r["J"] is not None]
    assert chosen[0]["J"] == min(priced)
    by_cand = {tuple(r["candidate"]): r for r in rows}
    assert by_cand[(5, 1)]["J"] == pytest.approx(11.9290, abs=1e-3)
    assert by_cand[(5, 2)]["J"] == pytest.approx(4.7732, abs=1e-3)


def test_analyze_rejects_bad_subsystem(desk5_plant_path, capsys):
    assert main(["analyze", desk5_plant_path, "--fault", "total-loss",
                 "--subsystem", "9"]) == 2
    assert "outside 1..5" in capsys.readouterr().err


def test_plan_rejects_sensor_row_outside_output_map(desk5_plant_path, capsys):
    assert main(["plan", desk5_plant_path, "--fault", "total-loss",
                 "--subsystem", "5", "--sensor-row", "1"]) == 2
    assert "sensor row 1" in capsys.readouterr().err


def test_bad_fault_kind_is_an_argparse_error(desk5_plant_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", desk5_plant_path, "--fault", "bias",
              "--subsystem", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--tol", "0"],
    ["analyze", "--tol", "-0.001"],
    ["analyze", "--tol", "nan"],
    ["plan", "--fault", "total-loss", "--subsystem", "5", "--alpha", "-5"],
    ["plan", "--fault", "gain", "--subsystem", "5", "--factor", "nan"],
    ["plan", "--fault", "gain", "--subsystem", "5", "--factor", "inf"],
    ["plan", "--fault", "total-loss", "--subsystem", "5", "--j-max", "nan"],
    ["run", "--seed", "-1"],
    ["run", "--seed", "1.5"],
])
def test_fault_options_reject_bad_numbers(desk5_plant_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], desk5_plant_path, *argv[1:]])
    assert exc.value.code == 2
    assert f"error: argument {argv[-2]}: must be" in capsys.readouterr().err


# ------------------------------------------------------------------ plan


def test_plan_gain_fault_is_virtual_sensor(desk5_plant_path, capsys):
    assert main(["plan", desk5_plant_path, "--fault", "gain",
                 "--subsystem", "5", "--factor", "0.4"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["mode"] == "virtual-sensor"
    assert plan["faulty_id"] == 5
    assert plan["P"] == [[0.0]]
    assert plan["augment_set"] is None


# -------------------------------------------------------------- plotdata


def test_plotdata_extracts_series(short_run, tmp_path):
    _, out = short_run
    traj = out / "trajectory.csv"
    assert main(["plotdata", str(traj), "sub1_x1", "errnorm",
                 "--stride", "7", "--out", str(tmp_path)]) == 0

    data = np.loadtxt(traj, delimiter=",", skiprows=1, usecols=range(17))
    strided = data[::7]
    assert math.ceil(data.shape[0] / 7) == strided.shape[0]

    raw = np.loadtxt(tmp_path / "sub1_x1.dat")
    assert raw.shape == (strided.shape[0], 2)
    assert np.allclose(raw[:, 0], strided[:, 0], rtol=1e-9, atol=1e-12)
    assert np.allclose(raw[:, 1], strided[:, 1], rtol=1e-9, atol=1e-12)

    err = np.loadtxt(tmp_path / "errnorm.dat")
    diffs = [np.abs(data[:, 1 + 8 * i + j] - data[:, 4 + 8 * i + j])
             for i in range(2) for j in range(3)]
    expect = np.max(np.stack(diffs), axis=0)[::7]
    assert np.allclose(err[:, 1], expect, rtol=1e-9, atol=1e-12)


def test_errnorm_matches_stacked_oracle():
    header = ["t"]
    for i in (1, 2):
        header += [f"sub{i}_x{j}" for j in (1, 2, 3)]
        header += [f"sub{i}_xhat{j}" for j in (1, 2, 3)]
        header += [f"sub{i}_y", f"sub{i}_L"]
    data = np.random.default_rng(13).normal(size=(40, len(header)))
    data[3, 2] = np.nan
    data[5, 12] = np.inf
    data[6, 1:] = -0.0
    data[7, 1:4] = data[7, 4:7]          # zero error on sub1 only
    for selector, subs in (("errnorm", ["sub1", "sub2"]),
                           ("sub1_errnorm", ["sub1"]),
                           ("sub2_errnorm", ["sub2"])):
        got = _series(selector, header, data)
        want = orc.errnorm_stacked(subs, header, data)
        assert got.tobytes() == want.tobytes(), selector


def test_plotdata_unknown_selector(short_run, tmp_path, capsys):
    _, out = short_run
    assert main(["plotdata", str(out / "trajectory.csv"), "sub9_x9",
                 "--out", str(tmp_path)]) == 2
    msg = capsys.readouterr().err
    assert "unknown selector" in msg and "errnorm" in msg


# -------------------------------------------------------------- validate


def test_validate_round_trips(short_run, capsys):
    scn_path, _ = short_run
    assert main(["validate", str(scn_path)]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["horizon"] == 2.0
    assert echoed["dt"] == 1e-3
    assert echoed["outputs"]["trajectory"] == "trajectory.csv"
