#!/usr/bin/env python3
"""dctforge benchmark: time analyses end to end, or trace them by layer.

    python3 perfbench/run.py --workload rtl-reach --seed 1 --seconds 40 \\
        --trace 0

Runs passes over the workload's fixed list of analyses (see workloads.py
and README.md), one pass per fresh interpreter, one after another, until
the next pass would end after --seconds.  Every analysis is checked
against its references after each pass.  The last line of standard
output is one JSON object with the medians over the passes, times in
reference seconds (see calibrate.py):

  --trace 0  setup_s, wall_s, largest_s, peak_rss_mb (end to end)
  --trace 1  the per-layer metrics of BENCHMARK.json; passes alternate
             untraced and traced, and tracing.overhead_frac compares
             their wall times

Exits 1 without a result when a pass cannot run at all (for example
when the dctforge sources are not next to this directory).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("largest_s", "s"),
              ("peak_rss_mb", "MB"))
MIN_PASSES = 3
# Stop starting passes this long after the start, whatever --seconds says.
HARD_LIMIT_S = 150.0


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, traced: bool, timeout: float,
             extra: tuple[str, ...] = ()) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as e:
        raise PassError(f"pass timed out after {e.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited with {proc.returncode}:\n"
                        f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float,
               trace: bool) -> list[tuple[bool, dict]]:
    """(traced, pass result) pairs, closed loop, until the next pass is
    predicted to end after `seconds`."""
    start = time.monotonic()
    done: list[tuple[bool, dict]] = []
    longest = {False: 0.0, True: 0.0}
    min_passes = 2 if trace else MIN_PASSES
    while True:
        traced = trace and len(done) % 2 == 1
        t = time.monotonic()
        result = run_pass(workload, seed, traced,
                          HARD_LIMIT_S + 25 - (t - start))
        longest[traced] = max(longest[traced], time.monotonic() - t)
        done.append((traced, result))
        elapsed = time.monotonic() - start
        upcoming = trace and len(done) % 2 == 1
        predicted = elapsed + (longest[upcoming] or longest[not upcoming])
        if len(done) >= min_passes and (predicted > seconds
                                         or predicted > HARD_LIMIT_S):
            return done


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def summarize(done: list[tuple[bool, dict]], trace: bool) -> dict:
    plain = [r for traced, r in done if not traced]
    metrics: dict[str, dict] = {}
    if not trace:
        for name, unit in END_TO_END:
            metrics[name] = {"value": _median(plain, name), "unit": unit}
        return metrics
    traced = [r for t, r in done if t]
    names = {}
    for r in traced:
        for name, (_, unit) in r["layers"].items():
            names[name] = unit
    for name, unit in names.items():
        values = [r["layers"][name][0] for r in traced if name in r["layers"]]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    traced_wall = _median(traced, "wall_s")
    plain_wall = _median(plain, "wall_s")
    metrics["tracing.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["tracing.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
    metrics["tracing.overhead_frac"] = {
        "value": traced_wall / plain_wall - 1.0, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "dctforge" / "__init__.py").is_file():
        print(f"no dctforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        done = run_passes(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    except PassError as e:
        print(e, file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for _, r in done)
    failed = sum(r["failed"] for _, r in done)
    seen = set()
    for _, r in done:
        for name, kind, detail in r["failures"]:
            if (name, kind) not in seen:
                seen.add((name, kind))
                print(f"FAIL {args.workload}/{name}: {kind}: {detail}")
    missing = sorted({m for _, r in done for m in r.get("missing", ())})
    if missing:
        print(f"missing traced names (their metrics are left out): "
              f"{', '.join(missing)}")
    metrics = summarize(done, bool(args.trace))
    print(f"{args.workload} seed={args.seed} passes={len(done)} "
          f"failed_frac={failed / attempted} ({failed}/{attempted})")
    raw = statistics.median(r["raw_wall_s"] for _, r in done)
    speed = statistics.median(r["speed"] for _, r in done)
    print(f"  host clock: wall_s {raw:.6g} s at speed factor {speed:.4g}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
