"""Outside-in tracing of dctforge's layers for the per-layer metrics.

Each wrapper replaces a public name in the module that looks it up
(`check_sat` inside `engine` and `solve`, `explore`/`project`/
`min_value`/`pc_sat` inside `detect`, `all_values`/`min_value`/`project`
inside `engine`, the `expr` functions and the `Encoder` methods).  A
wrapper opens a span (name, start, parent) for the outermost call of its
layer name only.  When the span ends it is folded into per-name totals
in memory: calls, duration, and self time, which is the duration minus
the time its child spans cover.  Solver queries are counted by kind
through the public `SolverLimits(dumper=...)` hook.

A name that no longer exists is skipped and reported as missing; the
metrics that need it are left out instead of failing the run.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import replace

STAGES = ("detect.stage1", "detect.stage2", "detect.stage3")


class QueryCounter:
    """A `CnfDumper` stand-in that counts queries by label, writing nothing."""

    def __init__(self):
        self.by_kind: dict[str, int] = defaultdict(int)

    def dump(self, formula, label: str) -> None:
        self.by_kind[label] += 1


class Tracer:
    def __init__(self):
        self.on = False
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.sat_vars: list[int] = []
        self.queries = QueryCounter()
        self._stack: list[list] = []    # open spans: [name, start, child time]
        self._depth: dict[str, int] = defaultdict(int)
        self._explore_calls = 0

    def _open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        """End the innermost span, fold it into its name's totals and
        charge its duration to its parent's child time."""
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def exclude(self, seconds: float) -> None:
        """Keep `seconds` just spent outside dctforge (a calibration
        probe) out of every open span."""
        for span in self._stack:
            span[1] += seconds

    def wrap(self, owner, attr: str, layer: str, label=None,
             after=None) -> None:
        """Replace owner.attr by a recording wrapper.  label(args, kwargs)
        may rename the span; after(args, kwargs, result) sees the result."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on or tracer._depth[layer]:
                return orig(*args, **kwargs)
            tracer._depth[layer] += 1
            tracer._open(layer if label is None else label(args, kwargs))
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close()
                tracer._depth[layer] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self.installed.add(layer)

    def run_analysis(self, fn, *args):
        """Call one analysis as the root span, with tracing on."""
        self._explore_calls = 0
        self.on = True
        self._open("analysis")
        try:
            return fn(*args)
        finally:
            self._close()
            self.on = False

    # Hooks on wrapped results.

    def _stage(self, args, kwargs) -> str:
        kind = kwargs.get("kind", args[3] if len(args) > 3 else None)
        first = self._explore_calls == 0
        self._explore_calls += 1
        if getattr(kind, "value", None) == "states":
            return "detect.stage2"
        return "detect.stage1" if first else "detect.stage3"

    def _explored(self, args, kwargs, meta) -> None:
        self.counts["paths_explored"] += meta.paths_explored
        self.counts["paths_pruned"] += meta.paths_pruned

    def _values(self, args, kwargs, values) -> None:
        self.counts["values_found"] += len(values)

    def _solved(self, args, kwargs, outcome) -> None:
        formula = kwargs.get("formula", args[0] if args else None)
        self.sat_vars.append(formula.num_vars)
        if outcome.is_unsat:
            self.counts["unsat"] += 1
        elif not outcome.is_sat:
            self.counts["resource_out"] += 1

    def _formula(self, args, kwargs, formula) -> None:
        self.counts["clauses_total"] += len(formula.clauses)
        self.counts["vars_max"] = max(self.counts["vars_max"],
                                      formula.num_vars)


def install(tracer: Tracer) -> None:
    from dctforge import cnf, detect, engine, expr, solve
    t = tracer
    t.wrap(detect, "explore", "engine.explore", label=t._stage,
           after=t._explored)
    t.wrap(detect, "project", "engine.project")
    t.wrap(engine, "project", "engine.project")
    t.wrap(detect, "min_value", "solve.min_value")
    t.wrap(engine, "min_value", "solve.min_value")
    t.wrap(detect, "pc_sat", "solve.pc_sat")
    t.wrap(engine, "all_values", "solve.all_values", after=t._values)
    t.wrap(engine, "check_sat", "sat.check_sat", after=t._solved)
    t.wrap(solve, "check_sat", "sat.check_sat", after=t._solved)
    for name in ("simplify", "substitute", "evaluate"):
        t.wrap(expr, name, f"expr.{name}")
    t.wrap(cnf.Encoder, "bits", "cnf.encode")
    t.wrap(cnf.Encoder, "to_formula", "cnf.to_formula", after=t._formula)


def count_queries(tracer: Tracer, cfg):
    """cfg with the query counter as its dumper, or cfg unchanged when
    the hook is gone."""
    try:
        from dctforge.solve import SolverLimits
        limits = SolverLimits(dumper=tracer.queries)
    except (ImportError, TypeError):
        tracer.missing.append("solve.SolverLimits(dumper=...)")
        return cfg
    tracer.installed.add("dumper")
    return replace(cfg, limits=limits)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: name -> (value, unit).  Every `_s` metric but
    the detect stages is self time; the detect stages are inclusive and,
    with report_s, add up to the analyses' traced wall time."""
    c, own, cnt, q = t.calls, t.self_time, t.counts, t.queries.by_kind
    stage_total = sum(t.total[s] for s in STAGES)
    rows = [
        ("engine.explore", "detect.stage1_s", t.total["detect.stage1"], "s"),
        ("engine.explore", "detect.stage2_s", t.total["detect.stage2"], "s"),
        ("engine.explore", "detect.stage3_s", t.total["detect.stage3"], "s"),
        ("engine.explore", "detect.report_s",
         t.total["analysis"] - stage_total, "s"),
        ("engine.explore", "engine.paths_explored", cnt["paths_explored"],
         "count"),
        ("engine.explore", "engine.paths_pruned", cnt["paths_pruned"],
         "count"),
        ("engine.project", "engine.project_calls", c["engine.project"],
         "count"),
        ("engine.project", "engine.project_s", own["engine.project"], "s"),
        ("dumper", "engine.feasibility_queries", q["step-feasibility"],
         "count"),
        (("dumper", "engine.explore"), "engine.queries_per_path",
         _ratio(q["step-feasibility"], cnt["paths_explored"]), "ratio"),
    ]
    for name in ("simplify", "substitute", "evaluate"):
        rows += [(f"expr.{name}", f"expr.{name}_calls", c[f"expr.{name}"],
                  "count"),
                 (f"expr.{name}", f"expr.{name}_s", own[f"expr.{name}"], "s")]
    rows += [
        ("cnf.encode", "cnf.encode_calls", c["cnf.encode"], "count"),
        ("cnf.encode", "cnf.encode_s", own["cnf.encode"], "s"),
        ("cnf.to_formula", "cnf.formulas", c["cnf.to_formula"], "count"),
        ("cnf.to_formula", "cnf.clauses_total", cnt["clauses_total"],
         "count"),
        ("cnf.to_formula", "cnf.vars_max", cnt["vars_max"], "count"),
        ("sat.check_sat", "sat.queries", c["sat.check_sat"], "count"),
        ("sat.check_sat", "sat.search_s", own["sat.check_sat"], "s"),
        ("sat.check_sat", "sat.unsat", cnt["unsat"], "count"),
        ("sat.check_sat", "sat.resource_out", cnt["resource_out"], "count"),
        ("sat.check_sat", "sat.vars_p50",
         statistics.median(t.sat_vars) if t.sat_vars else 0, "count"),
        ("solve.all_values", "solve.all_values_calls",
         c["solve.all_values"], "count"),
        ("solve.all_values", "solve.all_values_s", own["solve.all_values"],
         "s"),
        ("solve.all_values", "solve.values_found", cnt["values_found"],
         "count"),
        (("dumper", "solve.all_values"), "solve.queries_per_value",
         _ratio(q["all-values"], cnt["values_found"]), "ratio"),
        ("solve.min_value", "solve.min_value_calls", c["solve.min_value"],
         "count"),
        ("solve.min_value", "solve.min_value_s", own["solve.min_value"], "s"),
        ("solve.pc_sat", "solve.pc_sat_calls", c["solve.pc_sat"], "count"),
        ("solve.pc_sat", "solve.pc_sat_s", own["solve.pc_sat"], "s"),
    ]
    out = {}
    for needs, name, value, unit in rows:
        needs = needs if isinstance(needs, tuple) else (needs,)
        if all(n in t.installed for n in needs):
            out[name] = (value, unit)
    return out
