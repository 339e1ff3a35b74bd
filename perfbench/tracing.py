"""Spans around the public functions of every osclab module, installed from
outside the program.

``Tracer.install`` replaces each wrapped function in every loaded ``osclab``
module that holds it, including names other modules imported (such as
``connection.basis_brackets``), wraps the callable ``FlowProblem.rhs``
returns and every other right-hand side handed to ``ode.solve_rk45``, and
reads ``n_steps``/``n_rejected`` from the ``IntegrationResult`` the solver
returns.  Nothing in ``src/`` changes; ``uninstall`` puts every name back.

A span records (name, start, end, parent, task id).  Spans are kept in
memory and written out when the run ends.  Right-hand sides and brackets
run hundreds of thousands of times per pass, so they are folded into their
parent span as a call count and a total time instead of one record each.
Self time is a span's duration minus the time of its children.

A wrapped function that no task reached is reported as "not reached", never
as a zero, so a change that routes around a public function shows up.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from functools import cached_property

# Public functions wrapped per module; span names are "<module>.<function>".
TARGETS = {
    "algebra": ("bracket", "ad", "basis_brackets", "center", "derived_ideal",
                "cartan", "ker_ad"),
    "metrics": ("metric_from_iso", "ad_invariance_residual", "completeness_criteria"),
    "connection": ("levi_civita", "local_symmetry_residual", "connection_report"),
    "flows": ("integrate", "first_integrals", "trajectory_csv", "completeness_probe"),
    "ode": ("solve_rk45",),
    "isometry": ("polar", "g_exp", "g_log", "triple_bracket_residual",
                 "geodesic_exponential"),
    "cli": ("main",),
}
RHS = "flows.rhs"              # the callable FlowProblem.rhs returns
RHS_OTHER = "ode.rhs_other"    # any other right-hand side given to the solver
FOLDED = frozenset({"algebra.bracket", RHS, RHS_OTHER})
SUBSPACES = frozenset({"algebra.center", "algebra.derived_ideal",
                       "algebra.cartan", "algebra.ker_ad"})
NOT_REACHED = "not reached"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, task, folded]
        # Keyed by (name, n), n being the oscillator count of the task.
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.task: tuple[int, int] | None = None   # (task id, n)
        self._stack: list[list] = []  # [start, child time, span index, folded]
        self._undo: list[tuple] = []
        self.names: list[str] = []

    # -- recording ------------------------------------------------------------

    def _enter(self, name):
        start = time.perf_counter()
        index = len(self.spans)
        self.spans.append([name, start, None, self._stack[-1][2] if self._stack else None,
                           self.task[0] if self.task else None, None])
        frame = [start, 0.0, index, None]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        start, child, index, folded = frame
        span = self.spans[index]
        span[2], span[5] = end, folded
        self._record(span[0], end - start, child)

    def _leaf(self, name, dur):
        """A folded span.  It calls no wrapped function, so it has no children."""
        self._record(name, dur, 0.0)
        if self._stack:
            folded = self._stack[-1][3]
            if folded is None:
                folded = self._stack[-1][3] = {}
            count, seconds = folded.get(name, (0, 0.0))
            folded[name] = (count + 1, seconds + dur)

    def _record(self, name, dur, child):
        key = (name, self.task[1] if self.task else None)
        self.calls[key] += 1
        self.total[key] += dur
        self.self_time[key] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def count(self, name, value):
        self.counts[(name, self.task[1] if self.task else None)] += value

    def wrap(self, name, fn):
        tracer = self
        if name in FOLDED:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._leaf(name, time.perf_counter() - start)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)

        traced.span_name = name
        return traced

    def stats(self):
        """(calls, total, self, counts), each keyed by name and by (name, n)."""
        out = []
        for table in (self.calls, self.total, self.self_time, self.counts):
            merged = defaultdict(int)
            for (name, n), value in table.items():
                merged[name] += value
                merged[(name, n)] += value
            out.append(merged)
        return out

    def _wrap_solver(self, fn):
        tracer = self

        def solve(f, *args, **kwargs):
            if not hasattr(f, "span_name"):
                f = tracer.wrap(RHS_OTHER, f)
            res = fn(f, *args, **kwargs)
            tracer.count("ode.steps", res.n_steps)
            tracer.count("ode.rejected", res.n_rejected)
            return res

        return self.wrap("ode.solve_rk45", functools.wraps(fn)(solve))

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap every target in every loaded osclab module that holds it."""
        import osclab.flows as flows

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "osclab" or name.startswith("osclab."))]
        for mod_name, fnames in TARGETS.items():
            module = sys.modules[f"osclab.{mod_name}"]
            for fname in fnames:
                name = f"{mod_name}.{fname}"
                orig = getattr(module, fname)
                traced = (self._wrap_solver(orig) if name == "ode.solve_rk45"
                          else self.wrap(name, orig))
                self.names.append(name)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, traced)
                            self._undo.append((m, attr, orig))

        prop = flows.FlowProblem.__dict__["rhs"]
        tracer = self

        def rhs(problem):
            return tracer.wrap(RHS, prop.func(problem))

        traced_prop = cached_property(rhs)
        traced_prop.__set_name__(flows.FlowProblem, "rhs")
        flows.FlowProblem.rhs = traced_prop
        self._undo.append((flows.FlowProblem, "rhs", prop))
        self.names += [RHS, RHS_OTHER]

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def unwrap(self, name):
        """Put back the original of one wrapped function everywhere, as a
        change that routes around it would.  Its span stays registered."""
        keep = []
        for owner, attr, orig in self._undo:
            current = getattr(owner, attr, None)
            if getattr(current, "span_name", None) == name:
                setattr(owner, attr, orig)
            else:
                keep.append((owner, attr, orig))
        self._undo = keep

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per wrapped function: calls, total and self seconds, or NOT_REACHED."""
        calls, total, slf, _ = self.stats()
        out = {}
        for name in self.names:
            if calls[name] == 0:
                out[name] = NOT_REACHED
            else:
                out[name] = {"calls": calls[name], "total_s": total[name],
                             "self_s": slf[name]}
        return out

    def subspace_seconds(self) -> float:
        """Time in subspace computations, not counting nested ones twice."""
        total = 0.0
        for name, start, end, parent, _, _ in self.spans:
            if name in SUBSPACES and (parent is None or self.spans[parent][0] not in SUBSPACES):
                total += end - start
        return total

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task", "folded"],
                       "summary": self.summary(), "spans": self.spans}, fh)


# Per-layer metrics.  Counts, and times named "<layer>.self_ms" or
# "<layer>.<part>_ms", are per pass; "_us"/"_ms" named after a function are
# the mean inclusive time of one call; "<metric>.nK" splits a metric by the
# oscillator count n of the task.
SPLIT_N = {"ode.step_self_us": (1, 2, 3, 6), "flows.rhs_us": (1, 2, 3, 6),
           "connection.locsym_ms": (1, 2, 3, 4, 5, 6)}


def layer_metrics(tr: Tracer, passes: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}; value is None when the
    function the metric is measured on was not reached."""
    c, tot, slf, cnt = tr.stats()
    solve = "ode.solve_rk45"

    def ratio(a, b):
        return a / b if b else None

    def per_pass(value, source, scale=1.0):
        return value / passes * scale if c[source] else None

    def per_call(name, scale):
        return tot[name] / c[name] * scale if c[name] else None

    steps, rejected = cnt["ode.steps"], cnt["ode.rejected"]
    rhs_calls = c[RHS] + c[RHS_OTHER]
    m = {
        "ode.solve_calls": (per_pass(c[solve], solve), "count"),
        "ode.steps": (per_pass(steps, solve), "count"),
        "ode.rejected": (per_pass(rejected, solve), "count"),
        "ode.accept_ratio": (ratio(steps, steps + rejected), "ratio"),
        "ode.rhs_per_step": (ratio(rhs_calls, steps), "count"),
        "ode.self_ms": (per_pass(slf[solve], solve, 1e3), "ms"),
        "ode.step_self_us": (ratio(slf[solve] * 1e6, steps), "us"),
        "flows.rhs_calls": (per_pass(c[RHS], RHS), "count"),
        "flows.rhs_us": (per_call(RHS, 1e6), "us"),
        "flows.rhs_share": (ratio(tot[RHS] + tot[RHS_OTHER], tot[solve]), "ratio"),
        "flows.integrate_self_ms": (per_pass(slf["flows.integrate"], "flows.integrate", 1e3), "ms"),
        "flows.csv_ms": (per_pass(tot["flows.trajectory_csv"], "flows.trajectory_csv", 1e3), "ms"),
        "flows.first_integrals_ms": (per_pass(tot["flows.first_integrals"],
                                              "flows.first_integrals", 1e3), "ms"),
        "flows.probe_self_ms": (per_pass(slf["flows.completeness_probe"],
                                         "flows.completeness_probe", 1e3), "ms"),
        "connection.levi_civita_calls": (per_pass(c["connection.levi_civita"],
                                                  "connection.levi_civita"), "count"),
        "connection.levi_civita_us": (per_call("connection.levi_civita", 1e6), "us"),
        "connection.locsym_calls": (per_pass(c["connection.local_symmetry_residual"],
                                             "connection.local_symmetry_residual"), "count"),
        "connection.locsym_ms": (per_call("connection.local_symmetry_residual", 1e3), "ms"),
        "connection.report_self_ms": (per_pass(slf["connection.connection_report"],
                                               "connection.connection_report", 1e3), "ms"),
        "metrics.metric_from_iso_us": (per_call("metrics.metric_from_iso", 1e6), "us"),
        "metrics.ad_invariance_ms": (per_call("metrics.ad_invariance_residual", 1e3), "ms"),
        "metrics.completeness_criteria_us": (per_call("metrics.completeness_criteria", 1e6), "us"),
        "algebra.bracket_calls": (per_pass(c["algebra.bracket"], "algebra.bracket"), "count"),
        "algebra.bracket_us": (per_call("algebra.bracket", 1e6), "us"),
        "algebra.ad_calls": (per_pass(c["algebra.ad"], "algebra.ad"), "count"),
        "algebra.basis_brackets_calls": (per_pass(c["algebra.basis_brackets"],
                                                  "algebra.basis_brackets"), "count"),
        "algebra.basis_brackets_us": (per_call("algebra.basis_brackets", 1e6), "us"),
        "algebra.subspaces_ms": (tr.subspace_seconds() / passes * 1e3
                                 if any(c[s] for s in SUBSPACES) else None, "ms"),
        "isometry.polar_us": (per_call("isometry.polar", 1e6), "us"),
        "isometry.g_exp_us": (per_call("isometry.g_exp", 1e6), "us"),
        "isometry.g_log_us": (per_call("isometry.g_log", 1e6), "us"),
        "isometry.triple_bracket_ms": (per_call("isometry.triple_bracket_residual", 1e3), "ms"),
        "isometry.geodesic_exp_ms": (per_call("isometry.geodesic_exponential", 1e3), "ms"),
        "cli.self_ms": (per_pass(slf["cli.main"], "cli.main", 1e3), "ms"),
    }
    for n in SPLIT_N["ode.step_self_us"]:
        m[f"ode.step_self_us.n{n}"] = (ratio(slf[(solve, n)] * 1e6, cnt[("ode.steps", n)]), "us")
    for n in SPLIT_N["flows.rhs_us"]:
        m[f"flows.rhs_us.n{n}"] = (per_call((RHS, n), 1e6), "us")
    for n in SPLIT_N["connection.locsym_ms"]:
        m[f"connection.locsym_ms.n{n}"] = (
            per_call(("connection.local_symmetry_residual", n), 1e3), "ms")
    return m
