#!/usr/bin/env python3
"""Fast self-test of the benchmark itself (a few seconds).

    python3 perfbench/selftest.py

Runs the smallest instance of each workload, untraced and traced, and
checks that:
  * every analysis passes its reference checks;
  * the printed metric names are exactly those of BENCHMARK.json;
  * the count metrics repeat exactly between two traced passes;
  * a deliberately altered report digest is counted as a failure;
  * the detect stages and report_s add up to the traced analysis time;
  * a wrapped name that has gone away leaves its metrics out instead of
    failing.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("sat.queries", "cnf.formulas", "engine.paths_explored",
          "solve.values_found")


def _pass(workload: str, traced: bool, *extra: str) -> dict:
    return run.run_pass(workload, 0, traced, 120.0, ("--smallest", *extra))


def check_passes(problems: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for w in workloads.WORKLOADS:
        plain, traced = _pass(w, False), _pass(w, True)
        again = _pass(w, True)
        for r in (plain, traced, again):
            for name, kind, detail in r["failures"]:
                problems.append(f"{w}/{name}: {kind}: {detail}")
        names = set(run.summarize([(False, plain)], False))
        if names != end_to_end:
            problems.append(f"{w}: end-to-end names "
                            f"{sorted(names ^ end_to_end)} differ from "
                            "BENCHMARK.json")
        names = set(run.summarize([(False, plain), (True, traced)], True))
        if names != per_layer:
            problems.append(f"{w}: per-layer names {sorted(names ^ per_layer)}"
                            " differ from BENCHMARK.json")
        for name in COUNTS:
            if traced["layers"][name] != again["layers"][name]:
                problems.append(f"{w}: {name} differs between passes")
        altered = _pass(w, False, "--alter-digest")
        kinds = {kind for _, kind, _ in altered["failures"]}
        if altered["failed"] != 1 or kinds != {"digest-changed"}:
            problems.append(f"{w}: altered digest gave {altered['failed']} "
                            f"failures of kinds {sorted(kinds)}")


def check_stage_sum(problems: list[str]) -> None:
    from dctforge import detect_trojan
    a = workloads.build("trojan-deviance", 0, smallest=True)[0]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    cfg = tracing.count_queries(tracer, a.cfg)
    t0 = time.perf_counter()
    tracer.run_analysis(detect_trojan, a.circuit, cfg)
    wall = time.perf_counter() - t0
    m = tracing.layer_metrics(tracer)
    parts = sum(m[f"detect.{s}_s"][0]
                for s in ("stage1", "stage2", "stage3", "report"))
    if not (0.95 * wall <= parts <= wall):
        problems.append(f"detect stages add up to {parts:.4f} s of a "
                        f"{wall:.4f} s analysis")
    if m["detect.stage3_s"][0] <= 0:
        problems.append("detect_trojan recorded no stage-3 time")


def check_missing_name(problems: list[str]) -> None:
    tracer = tracing.Tracer()
    tracer.wrap(types.ModuleType("gone"), "check_sat", "sat.check_sat")
    m = tracing.layer_metrics(tracer)
    if tracer.missing != ["gone.check_sat"] or any(
            k.startswith("sat.") for k in m):
        problems.append("a missing name was not left out of the metrics")


def main() -> int:
    problems: list[str] = []
    check_passes(problems)
    check_stage_sum(problems)
    check_missing_name(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
