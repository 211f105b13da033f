#!/usr/bin/env python3
"""Record the report digest of every analysis the benchmark can run.

    python3 perfbench/record_digests.py

Writes digests.json next to this file: one digest per analysis of each
workload, the random FSMs of the whole pool included.  Run it only on
the commit whose reports are the reference; the benchmark counts every
later difference as a failed analysis.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    from dctforge import compute_dct, detect_trojan
    out = {}
    for w in workloads.WORKLOADS:
        analyses = workloads.build(w, 0)
        if w == "rtl-reach":
            analyses = [a for a in analyses if not a.name.startswith("fsm")]
            analyses += [workloads.random_fsm(s)
                         for s in range(workloads.FSM_POOL)]
        for a in analyses:
            fn = compute_dct if a.kind == "dct" else detect_trojan
            report = fn(a.circuit, a.cfg)
            errors = checks.check(a, report, checks.digest(a.kind, report))
            if errors:
                print(f"{w}/{a.name}: {errors}", file=sys.stderr)
                return 1
            out[f"{w}/{a.name}"] = checks.digest(a.kind, report)
            print(f"{w}/{a.name} {out[f'{w}/{a.name}']}")
    checks.DIGESTS_PATH.write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
