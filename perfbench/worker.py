"""One benchmark process: set up a workload, time its batches, check them.

Started by ``run.py`` with the thread variables already pinned, so numpy
loads single-threaded.  Prints one JSON object as its last stdout line.

With ``--probe`` the process stops once set-up is done and reports only the
set-up time, which is measured from ``--spawned-at`` (a ``time.monotonic``
reading the launcher took just before starting this process) to the moment
before the first timed call.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _env_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {k: os.environ.get(k) for k in sorted(os.environ)
                    if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--runs-dir", required=True)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import gridftc
    if Path(gridftc.__file__).resolve().parent != SRC / "gridftc":
        raise SystemExit(f"gridftc imported from {gridftc.__file__}, "
                         f"not from {SRC}")
    from tracing import Tracer
    from workloads import WORKLOADS

    runs_dir = Path(args.runs_dir)
    work_dir = runs_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir, SRC)
        setup_s = time.monotonic() - args.spawned_at
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = Tracer() if args.trace else None
        outcomes = []
        started = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            while (len(outcomes) < workload.min_batches
                   or time.perf_counter() - started < args.seconds):
                outcomes.append(workload.batch(tracer))
        for res in outcomes:
            workload.finish(res)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    samples = [s for res in outcomes for s in res.samples]
    result = {
        "workload": workload.name,
        "describe": workload.describe(),
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "batches": [res.seconds for res in outcomes],
        "wall_s": statistics.median(res.seconds for res in outcomes),
        "op_name": workload.op_name,
        "op_unit": workload.op_unit,
        "op_samples": len(samples),
        "op_value": statistics.median(samples) if samples else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": sum(res.attempted for res in outcomes),
        "failed": sum(len(res.failures) for res in outcomes),
        "failures": [f"{op}: {msg}" for res in outcomes
                     for op, msgs in res.failures.items() for msg in msgs],
        "env": _env_info(),
    }
    if tracer:
        layers, absent = tracer.layer_metrics(len(outcomes))
        result["layers"] = layers
        result["absent"] = absent
        spans_path = runs_dir / f"{workload.name}-seed{args.seed}-spans.json"
        tracer.dump(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
