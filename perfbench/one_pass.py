"""One pass over a workload in a fresh interpreter.

The intern table of dctforge's expression DAG is process-global, so a
second pass in the same process would reuse nodes (and inherit the peak
memory) of the first; run.py therefore starts this script once per pass.

    python3 perfbench/one_pass.py --workload rtl-reach --seed 1 [--trace]

Prints one JSON object: setup and pass times, peak memory, the number of
analyses attempted and failed with one row per failure, and with
--trace the per-layer metrics.  Times are in reference seconds, without
the calibration probes that ran inside them (see calibrate.py);
raw_wall_s is the pass time on this host's clock, also without probes.
The reference checks run after the timed pass and the memory reading.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import calibrate  # noqa: E402  (plain modules next to this file)
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true",
                   help="wrap the layers and report per-layer metrics")
    p.add_argument("--smallest", action="store_true",
                   help="run only the smallest instance (self-test)")
    p.add_argument("--alter-digest", action="store_true",
                   help="corrupt the first recorded digest (self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, str(SRC))
    tracer = tracing.Tracer() if args.trace else None
    probes = calibrate.Probes(tracer.exclude if tracer else None)
    with probes:
        t0 = time.perf_counter()
        import dctforge
        from dctforge import compute_dct, detect_trojan
        analyses = workloads.build(args.workload, args.seed, args.smallest)
        setup_s, _ = probes.own(t0, time.perf_counter())
        if Path(dctforge.__file__).resolve().parent != SRC / "dctforge":
            print(f"dctforge imported from {dctforge.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        if tracer is not None:
            tracing.install(tracer)
            for a in analyses:
                a.cfg = tracing.count_queries(tracer, a.cfg)

        reports, failures = {}, []
        wall_s = largest_s = 0.0
        for a in analyses:
            fn = compute_dct if a.kind == "dct" else detect_trojan
            t = time.perf_counter()
            try:
                if tracer is None:
                    reports[a.name] = fn(a.circuit, a.cfg)
                else:
                    reports[a.name] = tracer.run_analysis(fn, a.circuit,
                                                          a.cfg)
            except Exception as e:  # an analysis that raises counts as failed
                failures.append([a.name, f"raised-{type(e).__name__}",
                                 str(e)])
            seconds, inside = probes.own(t, time.perf_counter())
            wall_s += seconds
            if a.largest:
                largest_s = seconds * probes.speed(inside or None)
    speed = probes.speed()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    recorded = checks.load_digests()
    if args.alter_digest:
        key = f"{args.workload}/{analyses[0].name}"
        recorded[key] = "0" * len(recorded.get(key, "0"))
    for a in analyses:
        if a.name in reports:
            for kind, detail in checks.check(
                    a, reports[a.name],
                    recorded.get(f"{args.workload}/{a.name}")):
                failures.append([a.name, kind, detail])

    out = {"setup_s": setup_s * speed, "wall_s": wall_s * speed,
           "largest_s": largest_s, "peak_rss_mb": peak_rss_mb,
           "raw_wall_s": wall_s, "speed": speed,
           "attempted": len(analyses),
           "failed": len({f[0] for f in failures}), "failures": failures}
    if tracer is not None:
        out["layers"] = {
            k: [v * speed if unit == "s" else v, unit]
            for k, (v, unit) in tracing.layer_metrics(tracer).items()}
        out["missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
