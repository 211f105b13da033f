"""Reference checks and report digests, run outside the timed section.

Each check returns a list of (error type, detail) pairs; an empty list
means the analysis passed.  The references are independent of the
symbolic engine: the counters' closed form, the exhaustive oracle,
verdicts known by construction, concrete witness replay, and the digest
recorded in digests.json.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import counter_limit, counter_next

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _behaviors(bs) -> list:
    return sorted([b.src, b.dst, b.output, b.value] for b in bs)


def _meta_doc(m) -> dict:
    return {"kind": m.kind.value, "rs": sorted(m.rs),
            "trans": sorted(m.trans), "rbs": _behaviors(m.rbs),
            "sym_states": len(m.sym_states),
            "discovered_diameter": m.discovered_diameter,
            "paths_explored": m.paths_explored,
            "paths_pruned": m.paths_pruned,
            "depth_converged": m.depth_converged}


def _dct_doc(r) -> dict:
    return {
        "rs": sorted(r.rs), "trans": sorted(r.trans), "dct": sorted(r.dct),
        "dest": sorted(r.dest),
        "witnesses": [[list(e), w.source, sorted(w.inputs.items()),
                       sorted(w.registers.items())]
                      for e, w in sorted(r.witnesses.items())],
        "constraints": [[list(e), text]
                        for e, text in sorted(r.constraint_dumps.items())],
        "stage1": _meta_doc(r.stage1), "stage2": _meta_doc(r.stage2)}


def report_doc(kind: str, report) -> dict:
    """Everything a report holds, in a canonical order.  Reports from the
    library carry no timing, so the whole document is covered."""
    if kind == "dct":
        return _dct_doc(report)
    return {"dct": _dct_doc(report.dct), "rbs": _behaviors(report.rbs),
            "per_dest": [[d, _behaviors(base), _behaviors(dev)]
                         for d, (base, dev)
                         in sorted(report.per_dest.items())],
            "verdict": report.verdict.value,
            "stage3_paths": report.stage3_paths}


def digest(kind: str, report) -> str:
    text = json.dumps(report_doc(kind, report), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def counter_reference(w: int, depth: int | None):
    """Closed form of the wrap-at-K counter: RS = {0..min(depth, K)},
    Trans = self-loops plus increments, DCT by the definition."""
    k = counter_limit(w)
    rs = set(range(k + 1 if depth is None else min(depth, k) + 1))
    trans = {(s, counter_next(w, s, en)) for s in range(1 << w)
             for en in (0, 1)}
    dct = {(a, b) for a, b in trans if a not in rs and b in rs}
    return rs, trans, dct


def _compare(errors, what: str, got, want) -> None:
    if got != want:
        errors.append((f"mismatch-{what}",
                       f"{len(got ^ want)} elements differ"))


def check(analysis, report, recorded: str | None) -> list[tuple[str, str]]:
    from dctforge import oracle_analyze, oracle_dct, replay_dct_witness
    from dctforge.detect import ORACLE_BITS_CAP
    a = analysis
    errors: list[tuple[str, str]] = []
    dct = report if a.kind == "dct" else report.dct
    spec = a.cfg.state_spec
    if a.counter is not None:
        rs, trans, want_dct = counter_reference(*a.counter)
        _compare(errors, "closed-form-rs", dct.rs, rs)
        _compare(errors, "closed-form-trans", dct.trans, trans)
        _compare(errors, "closed-form-dct", dct.dct, want_dct)
    c = a.circuit
    bits = sum(r.width for r in c.registers) + sum(w for _, w in c.inputs)
    if bits <= ORACLE_BITS_CAP:
        om = oracle_analyze(c, spec, a.cfg.depth, a.cfg.monitored_outputs)
        _compare(errors, "oracle-rs", dct.rs, om.rs)
        _compare(errors, "oracle-trans", dct.trans, om.trans)
        _compare(errors, "oracle-dct", dct.dct, oracle_dct(om))
        _compare(errors, "oracle-rbs", dct.stage1.rbs, om.rbs)
    if a.verdict is not None and report.verdict.value != a.verdict:
        errors.append(("wrong-verdict",
                       f"{report.verdict.value}, expected {a.verdict}"))
    if set(dct.witnesses) != dct.dct:
        errors.append(("missing-witness", "DCT edges without a witness"))
    for edge, w in sorted(dct.witnesses.items()):
        if not replay_dct_witness(c, spec, edge, w):
            errors.append(("witness-replay", f"edge {edge} does not replay"))
    got = digest(a.kind, report)
    if recorded is None:
        errors.append(("no-digest", "no digest recorded for this analysis"))
    elif got != recorded:
        errors.append(("digest-changed", f"{got} != recorded {recorded}"))
    return errors
