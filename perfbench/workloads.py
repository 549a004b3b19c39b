"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed batch job.  Its constructor is the set-up (loading
or generating inputs from the seed); ``batch`` runs one batch of timed
operations and checks each output after its timer has stopped; ``finish``
runs the checks that call gridftc themselves, after any tracing hooks are
gone.  Every operation that raises or fails a check is counted as failed.
README.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import gridftc.cli
import gridftc.reconfig
import gridftc.sim_engine
from gridftc.desk_models import desk5_plant
from gridftc.sim_engine import ControllerConfig, ObserverConfig, Scenario

from plants import ring_plant
from tracing import SEARCH_SIZES, plan_counts

ALPHA, XI = 100.0, 50.0
# Desk5's shipped feedback row: angle and speed estimates only, gently.
GENTLE_GAINS = (-0.003, -0.03, 0.0)


class Outcome:
    """Timed operations of one batch and the failures seen in it."""

    def __init__(self):
        self.seconds = 0.0       # sum of the timed operations
        self.samples = []        # per-operation figures behind ``us_per_op``
        self.attempted = 0
        self.failures = {}       # operation -> what went wrong with it
        self.pending = []        # outputs ``finish`` still has to check

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, []).append(message)


def _steps(log) -> int:
    return len(log.t) - 1


class Workload:
    """Defaults: one batch at least, and ``us_per_op`` is µs per RK4 step."""

    name = ""
    min_batches = 1
    op_name = "us_per_step"
    op_unit = "us"

    def finish(self, res: Outcome) -> None:
        pass


class Study(Workload):
    """The shipped desk5 two-fault study through ``gridftc run``."""

    name = "study"
    ROWS = 340_001
    EVENTS = (("fault:sub5:gain", 150.0), ("fdi:sub5:virtual-sensor", 153.0),
              ("fault:sub5:total-loss", 250.0), ("fdi:sub5:augmentation", 251.0))
    AUGMENT_SET = [5, 2]
    AUGMENT_J = 4.7732

    def __init__(self, seed: int, work_dir: Path, src_dir: Path):
        self.seed = seed
        self.scenario_path = src_dir / "gridftc" / "data" / "desk5_scenario.json"
        if not self.scenario_path.is_file():
            raise FileNotFoundError(self.scenario_path)
        self.out = work_dir / "study-out"

    def batch(self, tracer) -> Outcome:
        res = Outcome()
        res.attempted = 1
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["run", str(self.scenario_path), "--out", str(self.out),
                "--seed", str(self.seed)]
        sink = io.StringIO()
        try:
            with _span(tracer, "cli.main"), contextlib.redirect_stdout(sink):
                t0 = perf_counter()
                code = gridftc.cli.main(argv)
                res.seconds = perf_counter() - t0
        except Exception as exc:  # a failed run is counted, not fatal
            res.fail("study", f"raised {exc!r}")
            return res
        try:
            self._check(code, res)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        return res

    def _check(self, code, res: Outcome) -> None:
        if code != 0:
            res.fail("study", f"gridftc run exited with {code}")
            return
        report = json.loads((self.out / "report.json").read_text())
        events = json.loads((self.out / "events.json").read_text())
        got = [(e["label"], e["t"]) for e in report["events"]]
        if ([g[0] for g in got] != [e[0] for e in self.EVENTS]
                or any(abs(g[1] - e[1]) > 1e-6
                       for g, e in zip(got, self.EVENTS))):
            res.fail("study", f"events {got}")
        verdicts = [r["verdict"] for r in report["recovery"]]
        if verdicts != ["recovered", "recovered"]:
            res.fail("study", f"verdicts {verdicts}")
        aug = [p["plan"] for p in events["plans"]
               if p["plan"]["mode"] == "augmentation"]
        if (len(aug) != 1 or aug[0]["augment_set"] != self.AUGMENT_SET
                or not abs(aug[0]["J"] - self.AUGMENT_J) <= 1e-3):
            res.fail("study", f"augmentation plans {aug}")
        rows = _count_lines(self.out / "trajectory.csv") - 1
        if rows != self.ROWS:
            res.fail("study", f"trajectory.csv has {rows} rows")
        sim_s = report["wall_time_s"]
        res.samples.append(1e6 * sim_s / (self.ROWS - 1))

    def describe(self) -> str:
        return f"{self.scenario_path.name}, {self.ROWS} rows, writers on"


def _count_lines(path: Path) -> int:
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
    return lines


class Ensemble(Workload):
    """Short desk5 runs from seeded initial estimate offsets (AC5's shape)."""

    name = "ensemble"
    MEMBERS = 10
    HORIZON, DT = 20.0, 2e-3
    FINAL_ERR = 1e-2

    def __init__(self, seed: int, work_dir: Path, src_dir: Path):
        plant = desk5_plant()
        offsets = np.random.default_rng(seed).uniform(-1.0, 1.0, self.MEMBERS)
        gains = ControllerConfig(gains=np.zeros((plant.n, 3)))
        self.scenarios = [
            Scenario(plant=plant, horizon=self.HORIZON, dt=self.DT,
                     observer=ObserverConfig(initial_offset=float(off)),
                     controller=gains, name=f"ensemble-{k}")
            for k, off in enumerate(offsets)]

    def batch(self, tracer) -> Outcome:
        res = Outcome()
        for scn in self.scenarios:
            res.attempted += 1
            try:
                with _span(tracer, "sim_engine.run"):
                    t0 = perf_counter()
                    log = gridftc.sim_engine.run_scenario(scn, seed=0)
                    dt = perf_counter() - t0
            except Exception as exc:
                res.fail(scn.name, f"raised {exc!r}")
                continue
            res.seconds += dt
            res.samples.append(1e6 * dt / _steps(log))
            err = float(np.max(np.abs(log.xhat[-1] - log.x[-1])))
            if not err < self.FINAL_ERR:
                res.fail(scn.name, f"final estimate error {err:.3g}")
            if not np.all(np.diff(log.L, axis=0) >= 0.0):
                res.fail(scn.name, "gain L decreased")
        return res

    def describe(self) -> str:
        return (f"{self.MEMBERS} desk5 members, {self.HORIZON:g} s at "
                f"dt {self.DT:g}")


class Search(Workload):
    """Reconfiguration decisions on seeded ring plants, no simulation."""

    name = "search"
    min_batches = 3
    op_name = "decision_s"
    op_unit = "s"
    # No cost is at or below 0, so every candidate set gets screened.
    WORST_J_MAX = 0.0

    def __init__(self, seed: int, work_dir: Path, src_dir: Path):
        rng = np.random.default_rng(seed)
        self.cases = []
        for n in SEARCH_SIZES:
            lin = ring_plant(n, seed).linearize()
            self.cases.append((n, int(rng.integers(1, n + 1)), lin))

    def batch(self, tracer) -> Outcome:
        res = Outcome()
        for n, faulty, lin in self.cases:
            for case, j_max in (("worst", self.WORST_J_MAX),
                                ("typical", math.inf)):
                res.attempted += 1
                try:
                    with _span(tracer, "reconfig.select", n=n, case=case) \
                            as attrs:
                        t0 = perf_counter()
                        plan = gridftc.reconfig.rftc_select(
                            faulty, lin, ALPHA, XI, j_max=j_max)
                        dt = perf_counter() - t0
                        if attrs is not None:
                            attrs.update(plan_counts(plan, j_max))
                except Exception as exc:
                    res.fail(f"n={n} {case}", f"raised {exc!r}")
                    continue
                res.seconds += dt
                if case == "worst":
                    want = 2 ** (n - 1) - 1
                    if (plan.mode != gridftc.reconfig.MODE_UNRECOVERABLE
                            or len(plan.candidates) != want):
                        res.fail(f"n={n} worst", f"{plan.mode} after "
                                 f"{len(plan.candidates)} of {want} sets")
                    if n == SEARCH_SIZES[-1]:
                        res.samples.append(dt)
                else:
                    res.pending.append((n, faulty, lin, plan))
        return res

    def finish(self, res: Outcome) -> None:
        """The typical plan must be the cheapest admissible set of the
        smallest workable cardinality, worked out here from ``augment`` and
        ``evaluate_candidate``."""
        refs = {}
        for n, faulty, lin, plan in res.pending:
            if n not in refs:
                refs[n] = _cheapest_smallest(faulty, lin)
            ref = refs[n]
            if ref is None:
                ok = plan.mode == gridftc.reconfig.MODE_UNRECOVERABLE
            else:
                ok = (plan.mode == gridftc.reconfig.MODE_AUGMENTATION
                      and tuple(plan.augment_set) == ref[0]
                      and math.isclose(plan.J, ref[1], rel_tol=1e-7))
            if not ok:
                res.fail(f"n={n} typical", f"{plan.mode} {plan.augment_set} "
                         f"J={plan.J}, expected {ref}")

    def describe(self) -> str:
        return (f"ring plants n={SEARCH_SIZES[0]}..{SEARCH_SIZES[-1]}, "
                "worst and typical pass each")


def _cheapest_smallest(faulty: int, lin):
    helpers = [i for i in range(1, lin.n + 1) if i != faulty]
    for card in range(1, len(helpers) + 1):
        best = None
        for combo in itertools.combinations(helpers, card):
            ids = (faulty,) + combo
            aug = gridftc.reconfig.augment(ids, lin, faulty)
            rep = gridftc.reconfig.evaluate_candidate(aug, ALPHA, XI)
            if rep.J is not None and (best is None or rep.J < best[1]):
                best = (ids, rep.J)
        if best is not None:
            return best
    return None


class Wide(Workload):
    """One healthy 40-machine ring, where the n^2 trig RHS dominates."""

    name = "wide"
    min_batches = 3
    MACHINES = 40
    HORIZON, DT = 2.0, 1e-3

    def __init__(self, seed: int, work_dir: Path, src_dir: Path):
        plant = ring_plant(self.MACHINES, seed)
        rng = np.random.default_rng(seed)
        offset = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.3))
        self.scenario = Scenario(
            plant=plant, horizon=self.HORIZON, dt=self.DT,
            observer=ObserverConfig(initial_offset=offset),
            controller=ControllerConfig(
                gains=np.tile(GENTLE_GAINS, (plant.n, 1))),
            name=f"wide-{self.MACHINES}")

    def batch(self, tracer) -> Outcome:
        res = Outcome()
        res.attempted = 1
        try:
            with _span(tracer, "sim_engine.run"):
                t0 = perf_counter()
                log = gridftc.sim_engine.run_scenario(self.scenario, seed=0)
                dt = perf_counter() - t0
        except Exception as exc:
            res.fail("wide", f"raised {exc!r}")
            return res
        res.seconds = dt
        res.samples.append(1e6 * dt / _steps(log))
        if not (np.all(np.isfinite(log.x)) and np.all(np.isfinite(log.xhat))):
            res.fail("wide", "non-finite state or estimate")
        return res

    def describe(self) -> str:
        return (f"{self.MACHINES}-machine ring, {self.HORIZON:g} s at "
                f"dt {self.DT:g}")


def _span(tracer, name, **attrs):
    """The tracer's span, or a null context (yielding None) when untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, **attrs)


WORKLOADS = {w.name: w for w in (Search, Wide, Ensemble, Study)}
