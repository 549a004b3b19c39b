"""Per-layer tracing for the benchmark's traced run.

The tracer rebinds the module attributes through which one gridftc layer
calls the next (for example ``gridftc.sim_engine._rhs_core``) to timing
wrappers, and restores them afterwards.  Nothing under ``src/`` knows about
it, and the untraced run never installs it.

Every wrapped call becomes a span: name, parent span, start, end, self time
and a few attributes.  Spans stay in memory and are written out when the run
ends.  The two per-step calls (the plant RHS and the chain-observer RK4
step) run hundreds of thousands of times per batch, so they are counted
instead: calls and seconds per name, with their time still charged to the
enclosing span so that its self time stays right.

A hook whose target is missing (say a later change moves ``_rk4_chain``
into ``gridftc.observer``) is skipped; every metric that needs it is then
reported as absent, and the run goes on.
"""

from __future__ import annotations

import importlib
import json
import math
import os
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name, hot).  Hot targets must not call any other
# hooked target, because they are not pushed on the span stack.
HOOKS = (
    ("gridftc.sim_engine", "_rhs_core", "power_model.rhs", True),
    ("gridftc.sim_engine", "_rk4_chain", "sim_engine.chain_step", True),
    ("gridftc.sim_engine", "rftc_select", "reconfig.select", False),
    ("gridftc.sim_engine", "to_chain_form", "observer.to_chain_form", False),
    ("gridftc.sim_engine", "place_poles", "sim_engine.place_poles", False),
    ("gridftc.sim_engine", "_attach_interaction_diagnostics",
     "sim_engine.diagnostics", False),
    ("gridftc.power_model", "linearize", "power_model.linearize", False),
    ("gridftc.cli", "run_scenario", "sim_engine.run", False),
    ("gridftc.cli", "write_trajectory_csv", "sim_engine.write_csv", False),
    ("gridftc.cli", "write_events_json", "sim_engine.write_json", False),
    ("gridftc.cli", "write_report_json", "sim_engine.write_json", False),
    ("gridftc.cli", "build_report", "sim_engine.report", False),
    ("gridftc.observer", "interaction_bound_estimate",
     "observer.interaction_bound", False),
    ("gridftc.reconfig", "augment", "reconfig.augment", False),
    ("gridftc.reconfig", "evaluate_candidate", "reconfig.evaluate", False),
    ("gridftc.reconfig", "to_chain_form", "observer.to_chain_form", False),
    ("gridftc.reconfig", "structurally_observable",
     "observability.structural", False),
    ("gridftc.reconfig", "kalman_rank", "observability.kalman", False),
    ("gridftc.reconfig", "cascade_observable", "observability.cascade", False),
    ("gridftc.reconfig", "is_hurwitz", "observability.hurwitz", False),
    ("gridftc.reconfig", "obs_gramian", "observability.obs_gramian", False),
    ("gridftc.reconfig", "hf_norm_sq", "observability.hf_norm", False),
)

SEARCH_SIZES = tuple(range(6, 13))


def plan_counts(plan, j_max) -> dict:
    """Candidate outcomes of one ``rftc_select`` plan, from its public
    ``candidates`` reports."""
    j_max = math.inf if j_max is None else j_max
    out = {"candidates": len(plan.candidates), "admissible": 0,
           "rejected_structural": 0, "rejected_numeric": 0,
           "rejected_unstable": 0, "rejected_over_jmax": 0}
    for rep in plan.candidates:
        if not rep.observable:
            key = ("rejected_structural" if "structural" in rep.reason
                   else "rejected_numeric")
            out[key] += 1
        elif not rep.stable:
            out["rejected_unstable"] += 1
        elif rep.J <= j_max:
            out["admissible"] += 1
        else:
            out["rejected_over_jmax"] += 1
    return out


def _select_attrs(plan, args, kwargs) -> dict:
    return plan_counts(plan, kwargs.get("j_max"))


def _csv_attrs(_result, args, kwargs) -> dict:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path is None or not os.path.isfile(path):
        return {}
    return {"mb": os.path.getsize(path) / 1e6}


ON_RESULT = {
    "reconfig.select": _select_attrs,
    "sim_engine.write_csv": _csv_attrs,
}


class Tracer:
    """Span recorder; ``install`` and ``uninstall`` rebind the hooks."""

    def __init__(self):
        self.spans: list = []          # [name, parent, start, end, self, attrs]
        self.hot: dict = {}            # name -> [calls, seconds]
        self.absent: set = set()       # span names whose hook is missing
        self._stack = [[-1, 0.0]]      # [span index, child seconds]
        self._saved: list = []

    # -- spans -------------------------------------------------------------
    def _open(self, name, attrs):
        idx = len(self.spans)
        parent = self._stack[-1][0]
        t0 = perf_counter()
        self.spans.append([name, parent, t0, None, None, attrs])
        self._stack.append([idx, 0.0])
        return idx

    def _close(self, idx):
        t1 = perf_counter()
        _, child = self._stack.pop()
        rec = self.spans[idx]
        dur = t1 - rec[2]
        rec[3] = t1
        rec[4] = dur - child
        self._stack[-1][1] += dur

    @contextmanager
    def span(self, name, **attrs):
        """Span around a call the benchmark makes itself; yields its attrs."""
        idx = self._open(name, attrs)
        try:
            yield attrs
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        on_result = ON_RESULT.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                self.spans[idx][5].update(on_result(result, args, kwargs))
            return result

        return traced

    def _wrap_hot(self, fn, name):
        counter = self.hot.setdefault(name, [0, 0.0])
        stack = self._stack

        def counted(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            counter[0] += 1
            counter[1] += dt
            stack[-1][1] += dt
            return result

        return counted

    def _wrap_chain(self, fn):
        """The chain RK4 step serves both observers: a 2-D state is the
        nominal bank, a 1-D state the merged observer."""
        nominal = self.hot.setdefault("sim_engine.chain_step_nominal", [0, 0.0])
        merged = self.hot.setdefault("sim_engine.chain_step_merged", [0, 0.0])
        stack = self._stack

        def counted(Z, *args, **kwargs):
            t0 = perf_counter()
            result = fn(Z, *args, **kwargs)
            dt = perf_counter() - t0
            counter = merged if getattr(Z, "ndim", 2) == 1 else nominal
            counter[0] += 1
            counter[1] += dt
            stack[-1][1] += dt
            return result

        return counted

    # -- hooks -------------------------------------------------------------
    def install(self) -> None:
        for module_name, attr, name, hot in HOOKS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            if name == "sim_engine.chain_step":
                wrapped = self._wrap_chain(fn)
            elif hot:
                wrapped = self._wrap_hot(fn, name)
            else:
                wrapped = self._wrap(fn, name)
            setattr(module, attr, wrapped)
            self._saved.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span and counter as JSON."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "self_s",
                                  "attrs"],
                       "spans": self.spans, "counters": self.hot,
                       "absent": sorted(self.absent)}, fh)
            fh.write("\n")

    def layer_metrics(self, batches: int):
        """Per-layer metrics, each per batch, and the names that are absent.

        Absent metrics are reported as 0 and listed in the second value.
        """
        tot, calls, self_s, attrs = {}, {}, {}, {}
        for name, _parent, start, end, own, extra in self.spans:
            tot[name] = tot.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            bucket = attrs.setdefault(name, {})
            for key, value in extra.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    bucket[key] = bucket.get(key, 0) + value
        for name, (count, secs) in self.hot.items():
            tot[name] = secs
            calls[name] = count

        def t(name):
            return tot.get(name, 0.0)

        def c(name):
            return calls.get(name, 0)

        def a(name, key):
            return attrs.get(name, {}).get(key, 0)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        def worst_select(n):
            return sum(end - start for name, _p, start, end, _o, extra
                       in self.spans if name == "reconfig.select"
                       and extra.get("n") == n and extra.get("case") == "worst")

        rhs, nom, mer = ("power_model.rhs", "sim_engine.chain_step_nominal",
                         "sim_engine.chain_step_merged")
        sel = "reconfig.select"
        # metric -> (value for the whole run, spans it needs, unit, per batch)
        table = {
            "power_model.rhs_calls": (c(rhs), [rhs], "count", True),
            "power_model.rhs_s": (t(rhs), [rhs], "s", True),
            "power_model.rhs_us_per_call": (ratio(t(rhs), c(rhs), 1e6), [rhs],
                                            "us", False),
            "power_model.linearize_s": (t("power_model.linearize"),
                                        ["power_model.linearize"], "s", True),
            "sim_engine.chain_step_nominal_s": (
                t(nom), ["sim_engine.chain_step"], "s", True),
            "sim_engine.chain_step_nominal_calls": (
                c(nom), ["sim_engine.chain_step"], "count", True),
            "sim_engine.chain_step_merged_s": (
                t(mer), ["sim_engine.chain_step"], "s", True),
            "sim_engine.chain_step_merged_calls": (
                c(mer), ["sim_engine.chain_step"], "count", True),
            "sim_engine.self_s": (
                self_s.get("sim_engine.run", 0.0),
                ["sim_engine.run", rhs, "sim_engine.chain_step", sel,
                 "observer.to_chain_form", "sim_engine.place_poles",
                 "sim_engine.diagnostics", "power_model.linearize"], "s", True),
            "sim_engine.diagnostics_s": (t("sim_engine.diagnostics"),
                                         ["sim_engine.diagnostics"], "s", True),
            "sim_engine.place_poles_s": (t("sim_engine.place_poles"),
                                         ["sim_engine.place_poles"], "s", True),
            "sim_engine.write_csv_s": (t("sim_engine.write_csv"),
                                       ["sim_engine.write_csv"], "s", True),
            "sim_engine.csv_mb": (a("sim_engine.write_csv", "mb"),
                                  ["sim_engine.write_csv"], "MB", True),
            "sim_engine.write_json_s": (t("sim_engine.write_json"),
                                        ["sim_engine.write_json"], "s", True),
            "sim_engine.report_s": (t("sim_engine.report"),
                                    ["sim_engine.report"], "s", True),
            "cli.self_s": (
                self_s.get("cli.main", 0.0),
                ["sim_engine.run", "sim_engine.write_csv",
                 "sim_engine.write_json", "sim_engine.report"], "s", True),
            "observer.to_chain_form_s": (t("observer.to_chain_form"),
                                         ["observer.to_chain_form"], "s", True),
            "observer.to_chain_form_calls": (
                c("observer.to_chain_form"), ["observer.to_chain_form"],
                "count", True),
            "observer.interaction_bound_s": (
                t("observer.interaction_bound"),
                ["observer.interaction_bound"], "s", True),
            "reconfig.select_s": (t(sel), [sel], "s", True),
            "reconfig.select_calls": (c(sel), [sel], "count", True),
        }
        for n in SEARCH_SIZES:
            table[f"reconfig.select_s.n{n}"] = (worst_select(n), [sel], "s",
                                                True)
        cands = a(sel, "candidates")
        table.update({
            "reconfig.candidates": (cands, [sel], "count", True),
            "reconfig.us_per_candidate": (ratio(t(sel), cands, 1e6), [sel],
                                          "us", False),
            "reconfig.augment_s": (t("reconfig.augment"), ["reconfig.augment"],
                                   "s", True),
        })
        for key in ("rejected_structural", "rejected_numeric",
                    "rejected_unstable", "rejected_over_jmax"):
            table[f"reconfig.{key}"] = (a(sel, key), [sel], "count", True)
        table["reconfig.admissible_ratio"] = (
            ratio(a(sel, "admissible"), cands), [sel], "ratio", False)
        for short in ("structural", "kalman", "cascade", "hurwitz",
                      "obs_gramian", "hf_norm"):
            name = f"observability.{short}"
            table[f"{name}_s"] = (t(name), [name], "s", True)
            table[f"{name}_calls"] = (c(name), [name], "count", True)

        metrics, absent = {}, []
        for metric, (value, needs, unit, per_batch) in table.items():
            if any(n in self.absent for n in needs):
                absent.append(metric)
                value = 0.0
            elif per_batch:
                value = value / batches
            metrics[metric] = {"value": value, "unit": unit}
        return metrics, absent
