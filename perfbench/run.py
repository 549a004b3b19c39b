"""Benchmark launcher: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload study --seed 1 --seconds 8 --trace 0

Run it from the root of a gridftc checkout.  The launcher imports no numpy
itself: it pins every BLAS/OpenMP thread variable to 1 and starts each
measured process fresh, so every workload runs single-threaded in its own
interpreter.

``--trace 0`` prints the end-to-end metrics (setup_s, wall_s, us_per_op,
peak_rss_mb).  Set-up is taken in three separate processes (the measured run
plus two that stop after set-up) and reported as their median.

``--trace 1`` runs the workload's minimum number of batches twice at the
same time, untraced and traced, one process per core, and prints the
per-layer metrics of the traced run plus ``trace.overhead_s``, the traced
``wall_s`` minus the untraced one.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it give the same figures by name and unit, the run
environment and any failures.  Each run's full record goes to
``perfbench/runs/``.  See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
WORKER = HERE / "worker.py"
WORKLOADS = ("search", "wide", "ensemble", "study")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 170
ROTATE_S = 0.5


class WorkerError(RuntimeError):
    pass


def _start(args, env) -> subprocess.Popen:
    cmd = [sys.executable, str(WORKER), *args, "--runs-dir", str(RUNS),
           "--spawned-at", repr(time.monotonic())]
    return subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _rotate(procs, turn, cpus) -> None:
    """Move worker i to CPU ``turn + i``.

    On a shared machine each CPU can run at its own, changing speed, so a
    worker left on one CPU would read that CPU's speed.  Rotating every
    ``ROTATE_S`` spreads every run evenly over all of them.
    """
    for i, proc in enumerate(procs):
        try:
            os.sched_setaffinity(proc.pid, {cpus[(turn + i) % len(cpus)]})
        except OSError:     # the worker has just exited
            pass


def _collect(procs) -> list:
    """Wait for every worker; kill them all if one fails or runs over."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    cpus = sorted(os.sched_getaffinity(0))
    done = {}
    turn = 0
    try:
        while len(done) < len(procs):
            if time.monotonic() > deadline:
                raise WorkerError(f"worker ran over {WORKER_TIMEOUT_S} s")
            if len(cpus) > 1:
                _rotate(procs, turn, cpus)
            turn += 1
            for proc in procs:
                if proc.pid in done:
                    continue
                try:
                    done[proc.pid] = proc.communicate(timeout=ROTATE_S)
                except subprocess.TimeoutExpired:
                    continue
                if proc.returncode != 0 or not done[proc.pid][0].strip():
                    raise WorkerError(f"worker exited with {proc.returncode}:"
                                      f"\n{done[proc.pid][1].strip()}")
                break       # rotate again before waiting on the next one
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return [json.loads(done[p.pid][0].strip().splitlines()[-1])
            for p in procs]


def _spawn(args, env) -> dict:
    return _collect([_start(args, env)])[0]


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=8.0,
                   help="fill this long with batches (untraced runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "gridftc" / "__init__.py").is_file():
        print(f"error: no gridftc sources under {ROOT / 'src'}; run from a "
              "gridftc checkout", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        if args.trace:
            # Side by side, one per core, so both see the same machine load;
            # both run the workload's minimum number of batches.
            common += ["--seconds", "0"]
            untraced, main_run = _collect([
                _start(common + ["--trace", "0"], env),
                _start(common + ["--trace", "1"], env)])
            runs = [untraced, main_run]
            metrics = dict(main_run["layers"])
            metrics["trace.overhead_s"] = _metric(
                main_run["wall_s"] - untraced["wall_s"], "s")
        else:
            common += ["--seconds", str(args.seconds)]
            main_run = _spawn(common + ["--trace", "0"], env)
            runs = [main_run]
            setups = [main_run["setup_s"]] + [
                _spawn(common + ["--probe"], env)["setup_s"]
                for _ in range(SETUP_PROBES)]
            op_scale = 1e6 if main_run["op_unit"] == "s" else 1.0
            metrics = {
                "setup_s": _metric(statistics.median(setups), "s"),
                "wall_s": _metric(main_run["wall_s"], "s"),
                "us_per_op": _metric((main_run["op_value"] or 0.0) * op_scale,
                                     "us"),
                "peak_rss_mb": _metric(main_run["peak_rss_mb"], "MB"),
            }
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    env_info = main_run["env"]
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{main_run['describe']}")
    print(f"# env: python {env_info['python']}, numpy {env_info['numpy']}, "
          f"scipy {env_info['scipy']}, nproc {env_info['nproc']}, "
          f"cpu {env_info['cpu_model']}, threads {env_info['threads']}")
    print(f"# batches: {len(main_run['batches'])}, "
          f"{main_run['op_name']} median of {main_run['op_samples']} samples")
    if not args.trace:
        print(f"# setup_s median of {len(setups)} process starts: "
              f"{', '.join(f'{s:.4f}' for s in setups)}")
        print(f"# {main_run['op_name']} {main_run['op_value']} "
              f"{main_run['op_unit']} (reported as us_per_op)")
    else:
        print(f"# spans: {main_run['spans_file']}; absent: "
              f"{main_run['absent'] or 'none'}")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(f"# failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for run in runs:
        for msg in run["failures"]:
            print(f"# FAILED {msg}")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "metrics": metrics, "failed_ratio": failed / attempted,
              "runs": runs}
    if not args.trace:
        record["setup_samples"] = setups
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
