"""Command-line frontend for scenario runs and fault analysis.

Five subcommands cover the workflow end to end:

``run``
    Simulate a scenario file and write the trajectory CSV, the event JSON
    and the run report JSON into the output directory.
``analyze``
    Observability and candidate-cost study of a plant, healthy or under a
    described sensor fault, emitted as JSON.
``plan``
    Just the chosen reconfiguration plan for a described fault.
``plotdata``
    Extract two-column (time, value) series from a trajectory CSV for
    external plotting, with optional stride downsampling.
``validate``
    Parse, validate and round-trip a scenario file.

Exit codes: 0 success, 2 bad input (file, field or argument), 3 when a run
finishes with an unrecoverable-fault verdict or is ended by the divergence
check.  The default output directory
comes from ``--out``, falling back to the ``GRIDFTC_OUT`` environment
variable and then the working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .observability import kalman_rank
from .power_model import N_OUTPUTS, load_plant
from .reconfig import FAULT_KINDS, FaultEvent, fault_output_map, rftc_select
from .sim_engine import (
    ScenarioError,
    build_report,
    load_scenario,
    run_scenario,
    write_events_json,
    write_report_json,
    write_trajectory_csv,
)

OUT_ENV_VAR = "GRIDFTC_OUT"


class _CliError(Exception):
    """Input problem that maps to exit code 2."""


def _number_arg(ok, what: str, convert=float):
    """argparse ``type`` for a number that ``convert`` parses (a float by
    default) and ``ok`` accepts; anything else is a usage error (exit code
    2) that says the value must be ``what``."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
    return parse


_POSITIVE = _number_arg(lambda v: 0.0 < v < math.inf,
                        "a positive finite number")
_NONNEGATIVE = _number_arg(lambda v: 0.0 <= v < math.inf,
                           "a nonnegative finite number")
_FINITE = _number_arg(math.isfinite, "a finite number")
_CAP = _number_arg(lambda v: not math.isnan(v), "a number or inf")
_SEED = _number_arg(lambda v: v >= 0, "a nonnegative integer", int)


def _out_dir(args) -> Path:
    if args.out is not None:
        d = Path(args.out)
    else:
        d = Path(os.environ.get(OUT_ENV_VAR, "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _load_scenario(path) -> "Scenario":
    if not Path(path).exists():
        raise _CliError(f"scenario file not found: {path}")
    try:
        return load_scenario(path)
    except ScenarioError as exc:
        raise _CliError(f"invalid scenario field '{exc.field}': {exc}") from exc


def _load_plant(path):
    if not Path(path).exists():
        raise _CliError(f"plant file not found: {path}")
    try:
        return load_plant(path)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise _CliError(f"invalid plant file: {exc}") from exc


def _fault_from_args(args, n: int) -> FaultEvent:
    if args.subsystem is None:
        raise _CliError("--subsystem is required together with --fault")
    if not 1 <= args.subsystem <= n:
        raise _CliError(
            f"subsystem {args.subsystem} outside 1..{n} for this plant")
    if args.sensor_row >= N_OUTPUTS:
        raise _CliError(f"sensor row {args.sensor_row} is not one of the "
                        f"machine's {N_OUTPUTS} output rows")
    try:
        return FaultEvent(kind=args.fault, subsystem=args.subsystem,
                          t_fault=0.0, factor=args.factor,
                          sensor_row=args.sensor_row, fdi_delay=0.0)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def cmd_run(args) -> int:
    """Run streamed: each checked segment of rows is appended to the
    trajectory CSV as the run goes.  ``wall_time_s`` is the simulation time,
    the run's time less the time spent in the trajectory writer."""
    scn = _load_scenario(args.scenario)
    out = _out_dir(args)
    paths = {key: out / name for key, name in scn.outputs.items()}
    writer_s = 0.0

    def write_segment(segment) -> None:
        nonlocal writer_s
        t = time.perf_counter()
        write_trajectory_csv(segment, paths["trajectory"])
        writer_s += time.perf_counter() - t

    t0 = time.perf_counter()
    log = run_scenario(scn, seed=args.seed, consumer=write_segment)
    wall = time.perf_counter() - t0 - writer_s

    write_events_json(log, paths["events"])
    report = build_report(scn, log, wall_time_s=wall,
                          outputs={k: str(p) for k, p in paths.items()})
    write_report_json(report, paths["report"])

    steps = log.rows - 1
    print(f"scenario {scn.name}: {steps} steps in {wall:.1f} s "
          f"({1e6 * wall / max(steps, 1):.1f} us/step)")
    for ev in log.events:
        print(f"  t={ev.t:9.3f}  {ev.label}")
    for r in report.recovery:
        print(f"  fault at t={r['t_fault']:.0f} ({r['kind']}): {r['verdict']}")
    for key, p in paths.items():
        print(f"  {key}: {p}")
    if log.diverged:
        print("verdict: the run diverged; see report", file=sys.stderr)
    if log.unrecoverable:
        print("verdict: unrecoverable fault; see report", file=sys.stderr)
    return 3 if log.diverged or log.unrecoverable else 0


def cmd_analyze(args) -> int:
    plant = _load_plant(args.plant)
    lin = plant.linearize()
    n = lin.n
    result: dict = {"plant": plant.name, "subsystems": n}

    ranks, oks = kalman_rank(lin.A, lin.Csub, args.tol)
    result["nominal_observability"] = [
        {"subsystem": i, "observable": ok, "rank": rank}
        for i, (rank, ok) in enumerate(zip(ranks.tolist(), oks.tolist()), 1)]

    if args.fault is not None:
        fault = _fault_from_args(args, n)
        c_faulty = fault_output_map(fault, lin.Csub[fault.subsystem - 1])
        plan = rftc_select(fault.subsystem, lin, args.alpha, args.xi,
                           faulty_C=c_faulty, j_max=args.j_max, tol=args.tol)
        chosen = plan.augment_set
        table = []
        for rep in plan.candidates:
            row = rep.to_dict()
            row["chosen"] = (chosen is not None
                             and tuple(rep.candidate) == tuple(chosen))
            table.append(row)
        result["fault"] = {"kind": fault.kind, "subsystem": fault.subsystem,
                           "factor": fault.factor}
        result["candidates"] = table
        result["plan"] = plan.to_dict()

    json.dump(result, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_plan(args) -> int:
    plant = _load_plant(args.plant)
    lin = plant.linearize()
    fault = _fault_from_args(args, lin.n)
    c_faulty = fault_output_map(fault, lin.Csub[fault.subsystem - 1])
    plan = rftc_select(fault.subsystem, lin, args.alpha, args.xi,
                       faulty_C=c_faulty, j_max=args.j_max, tol=args.tol)
    json.dump(plan.to_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _read_trajectory(path, selectors):
    """The columns that ``selectors`` read, ``t`` first, as a header list
    and a numeric block; an unknown selector fails before any data is read.
    """
    if not Path(path).exists():
        raise _CliError(f"trajectory file not found: {path}")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    numeric = header[:-1] if header and header[-1] == "event" else header
    need = {"t"}
    for selector in selectors:
        if selector in numeric:
            need.add(selector)
        else:
            need.update(f"{s}_{q}{j}"
                        for s in _error_subsystems(selector, numeric)
                        for q in ("x", "xhat") for j in (1, 2, 3))
    cols = [c for c in numeric if c in need]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      usecols=[numeric.index(c) for c in cols])
    return cols, data


def _errnorm(subs: list, header: list, data: np.ndarray) -> np.ndarray:
    """Per-row max |x - xhat| over the state columns of ``subs``.

    A running maximum over the columns, so the temporaries are two columns
    long rather than one per state column.
    """
    acc = np.zeros(len(data))
    err = np.empty(len(data))
    for s in subs:
        for j in (1, 2, 3):
            np.subtract(data[:, header.index(f"{s}_x{j}")],
                        data[:, header.index(f"{s}_xhat{j}")], out=err)
            np.maximum(acc, np.abs(err, out=err), out=acc)
    return acc


def _error_subsystems(selector: str, header: list) -> list:
    """The subsystems whose estimate error an error-norm selector reads."""
    subs = sorted({h.split("_")[0] for h in header if h.startswith("sub")})
    if selector == "errnorm":
        return subs
    if selector.endswith("_errnorm") and selector[:-8] in subs:
        return [selector[:-8]]
    available = header[1:] + ["errnorm"] + [f"{s}_errnorm" for s in subs]
    raise _CliError(
        f"unknown selector '{selector}'; available: {', '.join(available)}")


def _series(selector: str, header: list, data: np.ndarray) -> np.ndarray:
    """One derived or raw column as a vector."""
    if selector in header:
        return data[:, header.index(selector)]
    # error-norm selectors are recomputed from the raw state columns
    return _errnorm(_error_subsystems(selector, header), header, data)


def cmd_plotdata(args) -> int:
    if args.stride < 1:
        raise _CliError(f"stride must be at least 1, got {args.stride}")
    header, data = _read_trajectory(args.trajectory, args.selector)
    data = data[::args.stride]
    out = _out_dir(args)
    t = data[:, 0]
    for selector in args.selector:
        series = np.column_stack([t, _series(selector, header, data)])
        path = out / f"{selector}.dat"
        np.savetxt(path, series, fmt="%.12g")
        print(f"{selector}: {series.shape[0]} rows -> {path}")
    return 0


def cmd_validate(args) -> int:
    scn = _load_scenario(args.scenario)
    base = Path(args.scenario).parent
    first = scn.to_dict()
    from .sim_engine import Scenario

    second = Scenario.from_dict(json.loads(json.dumps(first)),
                                base_dir=base).to_dict()
    if first != second:
        raise _CliError("scenario does not round-trip cleanly")
    json.dump(first, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridftc",
        description="Sensor-fault-tolerant reconfiguration simulator")
    # Each subcommand takes only the flags it reads.
    out_opt = argparse.ArgumentParser(add_help=False)
    out_opt.add_argument("--out", default=None,
                         help=f"output directory (default: ${OUT_ENV_VAR} "
                         "or the working directory)")

    fault_opts = argparse.ArgumentParser(add_help=False)
    fault_opts.add_argument("--tol", type=_POSITIVE, default=1e-9,
                            help="numeric rank / screening tolerance")
    fault_opts.add_argument("--fault", default=None,
                            choices=FAULT_KINDS,
                            help="sensor fault kind to analyze")
    fault_opts.add_argument("--subsystem", type=int, default=None,
                            help="1-based faulty subsystem id")
    fault_opts.add_argument("--factor", type=_FINITE, default=1.0,
                            help="gain-fault scale factor")
    fault_opts.add_argument("--sensor-row", type=int, default=0,
                            help="faulty output row of the subsystem")
    fault_opts.add_argument("--alpha", type=_NONNEGATIVE, default=100.0,
                            help="observability-weakness weight")
    fault_opts.add_argument("--xi", type=_NONNEGATIVE, default=50.0,
                            help="functionality-gap weight")
    fault_opts.add_argument("--j-max", type=_CAP, default=None,
                            help="cost cap for admissible candidates")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[out_opt],
                       help="simulate a scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--seed", type=_SEED, default=0,
                   help="seed for the measurement-noise generator, a "
                   "nonnegative integer; a noise-free run ignores it")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analyze", parents=[fault_opts],
                       help="observability and candidate-cost study")
    p.add_argument("plant", help="plant JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plan", parents=[fault_opts],
                       help="chosen reconfiguration plan for one fault")
    p.add_argument("plant", help="plant JSON file")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("plotdata", parents=[out_opt],
                       help="extract plot series from a trajectory CSV")
    p.add_argument("trajectory", help="trajectory CSV from a run")
    p.add_argument("selector", nargs="+",
                   help="column name (sub5_x1), errnorm, or sub<i>_errnorm")
    p.add_argument("--stride", type=int, default=1,
                   help="keep every stride-th row")
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("validate",
                       help="validate and round-trip a scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScenarioError as exc:
        print(f"error: invalid scenario field '{exc.field}': {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
