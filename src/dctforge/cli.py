"""Command-line front end.

Subcommands:

  analyze   two-stage don't-care transition detection; exit 0 when none
            exist, 2 when some were found, 1 on any error.
  trojan    three-stage detection; exit 3 when the verdict is
            TrojanDetected, 0 for Clean or NoDct, 1 on error.
  stg       DOT state-transition graph (reachable states white,
            unreachable black, don't-care edges dashed).
  oracle    exhaustive concrete ground truth plus a diff against the
            symbolic engine's results.
  inject    add a trigger/payload pair to a circuit and write the result.

Reports are JSON with a top-level schema version; apart from timing_ms
they are byte-identical across repeated runs with the same configuration.
DCTFORGE_LOG=error|warning|info|debug selects the diagnostic level on
stderr (default warning).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from . import expr as ex
from .blif import parse_blif
from .circuit import Circuit, make_state_spec, print_rtl, validate
from .detect import (Verdict, compute_dct, detect_trojan, oracle_analyze,
                     oracle_dct)
from .dot import render_stg
from .cnf import DEFAULT_CLAUSE_CAP
from .engine import DEFAULT_PATH_CAP, FIXPOINT, ExploreConfig, Mode
from .errors import DctForgeError
from .rtl import parse_rtl
from .sat import DEFAULT_CONFLICT_LIMIT
from .solve import DEFAULT_VALUE_CAP, CnfDumper, SolverLimits
from .trojanlab import StuckAt, TriggerSpec, inject_trojan

__all__ = ["main"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DCT_FOUND = 2
EXIT_TROJAN = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_ERROR)


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "warning": logging.WARNING,
             "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("DCTFORGE_LOG", "warning").lower(), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s %(message)s")


def _load_circuit(path: str) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as err:
        raise DctForgeError(f"{path}: not UTF-8 text ({err.reason} at "
                            f"byte {err.start})") from None
    if path.endswith(".blif"):
        return parse_blif(text)
    return parse_rtl(text)


def _parse_depth(text: str) -> int | None:
    if text == "fixpoint":
        return FIXPOINT
    try:
        d = int(text)
    except ValueError:
        raise DctForgeError(f"--depth must be an integer or 'fixpoint', "
                            f"got {text!r}")
    return d


def _parse_assume(text: str, c: Circuit) -> ex.Expr:
    from .rtl import _ExprParser, _tokenize
    widths = dict(c.inputs)
    widths.update({r.name: r.width for r in c.registers})
    widths.update({n: w for n, w, _ in c.nets})
    p = _ExprParser(_tokenize(text, 1), 1, widths)
    e = p.expr()
    p.finish()
    if e.width != 1:
        raise DctForgeError(f"assume expression must be 1 bit wide: {text!r}")
    return e


def _explore_config(args, c: Circuit) -> ExploreConfig:
    for flag, value in (("--value-cap", args.value_cap),
                        ("--path-cap", args.path_cap),
                        ("--conflict-limit", args.conflict_limit),
                        ("--clause-cap", args.clause_cap)):
        if value < 1:
            raise DctForgeError(f"{flag} must be >= 1, got {value}")
    spec = make_state_spec(c, [s for s in args.state.split(",") if s])
    dumper = CnfDumper(args.dump_cnf) if args.dump_cnf else None
    limits = SolverLimits(conflict_limit=args.conflict_limit,
                          clause_cap=args.clause_cap, dumper=dumper)
    if args.monitor is not None:
        monitored = tuple(s for s in args.monitor.split(",") if s)
        if not monitored:
            raise DctForgeError(f"--monitor must name at least one output, "
                                f"got {args.monitor!r}")
    else:
        monitored = tuple(n for n, _, _ in c.outputs)
    assumes = tuple(_parse_assume(a, c) for a in args.assume or ())
    return ExploreConfig(
        state_spec=spec, depth=_parse_depth(args.depth),
        mode=Mode(args.mode), monitored_outputs=monitored, assumes=assumes,
        value_cap=args.value_cap, path_cap=args.path_cap, limits=limits)


def _edge_key(edge: tuple[int, int]) -> str:
    return f"{edge[0]}->{edge[1]}"


def _behavior_rows(behaviors) -> list[list]:
    return sorted([b.src, b.dst, b.output, b.value] for b in behaviors)


def _base_report(args, c: Circuit, cfg: ExploreConfig, command: str) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "circuit": c.name,
        "mode": cfg.mode.value,
        "depth": "fixpoint" if cfg.depth is None else cfg.depth,
        "state": list(cfg.state_spec.registers),
        "monitored": list(cfg.monitored_outputs),
        "seed": args.seed,
    }


def _dct_fields(report) -> dict:
    return {
        "rs": sorted(report.rs),
        "rs_count": len(report.rs),
        "trans": [list(t) for t in sorted(report.trans)],
        "trans_count": len(report.trans),
        "dct": [list(t) for t in sorted(report.dct)],
        "dct_count": len(report.dct),
        "dest": sorted(report.dest),
        "dest_count": len(report.dest),
        "witnesses": {
            _edge_key(e): {"source": w.source, "inputs": dict(sorted(w.inputs.items())),
                           "registers": dict(sorted(w.registers.items()))}
            for e, w in sorted(report.witnesses.items())},
        "constraints": {_edge_key(e): text
                        for e, text in sorted(report.constraint_dumps.items())},
        "discovered_diameter": report.stage1.discovered_diameter,
        "depth_converged": report.stage1.depth_converged,
    }


def _write_report(obj: dict, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    c = _load_circuit(args.circuit)
    cfg = _explore_config(args, c)
    report = compute_dct(c, cfg)
    obj = _base_report(args, c, cfg, "analyze")
    obj.update(_dct_fields(report))
    obj.update({
        "behaviors": _behavior_rows(report.stage1.rbs),
        "dbs": [],
        "verdict": None,
        "paths_explored": report.paths_explored,
        "paths_pruned": report.paths_pruned,
        "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    })
    _write_report(obj, args.out)
    return EXIT_DCT_FOUND if report.dct else EXIT_OK


def _trojan_table(tr) -> list[dict]:
    """Per-transition stage-1 vs stage-3 output values for every monitored
    output; the stage-3 column shows the deviant values when there are
    any, otherwise everything stage 3 observed."""
    stage3_all = set()
    for rbs_d, _ in tr.per_dest.values():
        stage3_all |= rbs_d
    dbs = tr.dbs
    keys = sorted({(b.src, b.dst, b.output) for b in tr.rbs} |
                  {(b.src, b.dst, b.output) for b in stage3_all})
    rows = []
    for src, dst, out in keys:
        stage1_vals = sorted(b.value for b in tr.rbs
                             if (b.src, b.dst, b.output) == (src, dst, out))
        deviant = sorted(b.value for b in dbs
                         if (b.src, b.dst, b.output) == (src, dst, out))
        observed = sorted(b.value for b in stage3_all
                          if (b.src, b.dst, b.output) == (src, dst, out))
        rows.append({
            "src": src, "dst": dst, "output": out,
            "stage1": stage1_vals,
            "stage3": deviant if deviant else observed,
            "revealing": bool(deviant),
        })
    return rows


def cmd_trojan(args) -> int:
    t0 = time.perf_counter()
    c = _load_circuit(args.circuit)
    cfg = _explore_config(args, c)
    tr = detect_trojan(c, cfg)
    obj = _base_report(args, c, cfg, "trojan")
    obj.update(_dct_fields(tr.dct))
    obj.update({
        "behaviors": _behavior_rows(tr.rbs),
        "per_dest": {str(d): {"behaviors": _behavior_rows(rbs_d),
                              "dbs": _behavior_rows(dbs_d)}
                     for d, (rbs_d, dbs_d) in sorted(tr.per_dest.items())},
        "dbs": _behavior_rows(tr.dbs),
        "trojan_table": _trojan_table(tr),
        "verdict": tr.verdict.value,
        "paths_explored": tr.dct.paths_explored + tr.stage3_paths,
        "paths_pruned": tr.dct.paths_pruned,
        "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    })
    _write_report(obj, args.out)
    return EXIT_TROJAN if tr.verdict is Verdict.TROJAN_DETECTED else EXIT_OK


def cmd_stg(args) -> int:
    c = _load_circuit(args.circuit)
    cfg = _explore_config(args, c)
    report = compute_dct(c, cfg)
    text = render_stg(c.name, cfg.state_spec.total_width, report.rs,
                      report.trans, report.dct)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_oracle(args) -> int:
    t0 = time.perf_counter()
    c = _load_circuit(args.circuit)
    cfg = _explore_config(args, c)
    meta = oracle_analyze(c, cfg.state_spec, cfg.depth,
                          monitored=cfg.monitored_outputs)
    engine_report = compute_dct(c, cfg)
    o_dct = oracle_dct(meta)

    def diff(a, b):
        return {"engine_only": sorted(map(list, a - b)) if a - b else [],
                "oracle_only": sorted(map(list, b - a)) if b - a else []}

    eng_beh = {(b.src, b.dst, b.output, b.value) for b in engine_report.stage1.rbs}
    ora_beh = {(b.src, b.dst, b.output, b.value) for b in meta.rbs}
    obj = _base_report(args, c, cfg, "oracle")
    obj.update({
        "rs": sorted(meta.rs),
        "rs_count": len(meta.rs),
        "trans": [list(t) for t in sorted(meta.trans)],
        "trans_count": len(meta.trans),
        "dct": [list(t) for t in sorted(o_dct)],
        "dct_count": len(o_dct),
        "behaviors": sorted([s, d, o, v] for s, d, o, v in ora_beh),
        "discovered_diameter": meta.discovered_diameter,
        "diff": {
            "rs": {"engine_only": sorted(engine_report.rs - meta.rs),
                   "oracle_only": sorted(meta.rs - engine_report.rs)},
            "trans": diff(engine_report.trans, meta.trans),
            "dct": diff(engine_report.dct, o_dct),
            "behaviors": diff(eng_beh, ora_beh),
        },
        "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    })
    _write_report(obj, args.out)
    return EXIT_OK


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DctForgeError(f"{what} must be an integer, got {text!r}") from None


def _parse_edges(text: str) -> frozenset[tuple[int, int]]:
    edges = set()
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise DctForgeError(f"bad edge {item!r}; expected SRC:DST")
        edges.add((_parse_int(parts[0], "edge source"),
                   _parse_int(parts[1], "edge destination")))
    if not edges:
        raise DctForgeError("--dct needs at least one SRC:DST edge")
    return frozenset(edges)


def _parse_payload(text: str) -> StuckAt:
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "stuck-at":
        raise DctForgeError(
            f"bad payload {text!r}; expected stuck-at:<output>:<value>")
    return StuckAt(parts[1], _parse_int(parts[2], "payload value"))


def cmd_inject(args) -> int:
    c = _load_circuit(args.circuit)
    spec = make_state_spec(c, [s for s in args.state.split(",") if s])
    trig = TriggerSpec(_parse_edges(args.dct), spec)
    pay = _parse_payload(args.payload)
    injected = inject_trojan(c, trig, pay)
    text = print_rtl(injected)
    validate(parse_rtl(text))  # self-check: output re-parses and validates
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_circuit(sp):
    """The options every subcommand reads: the circuit, its state
    registers and where the output goes."""
    sp.add_argument("--circuit", required=True,
                    help="circuit file (.snl RTL format, or .blif)")
    sp.add_argument("--state", required=True,
                    help="ordered comma-separated state registers")
    sp.add_argument("--out", default=None, help="report/output file path")


def _add_analysis(sp, seed: bool):
    """The options of an analysis (_explore_config), and --seed when it
    writes a JSON report."""
    sp.add_argument("--depth", default="7",
                    help="clock cycles for forward exploration, or 'fixpoint'")
    sp.add_argument("--mode", default="bfs-prune",
                    choices=["bfs", "bfs-prune", "partial"],
                    help="exploration mode (partial is a deliberately "
                         "unsound single-path mode)")
    sp.add_argument("--monitor", default=None,
                    help="comma-separated outputs to record (default: all)")
    sp.add_argument("--assume", action="append",
                    help="1-bit expression conjoined after every cycle")
    if seed:
        sp.add_argument("--seed", type=int, default=0,
                        help="copied into the report's seed field and read "
                             "nowhere else: every analysis is deterministic")
    sp.add_argument("--value-cap", type=int, default=DEFAULT_VALUE_CAP,
                    help="most distinct values one enumeration may find "
                         "(StateIds, sources, output values); more is an "
                         "error (default %(default)s)")
    sp.add_argument("--path-cap", type=int, default=DEFAULT_PATH_CAP,
                    help="most successors one step may make; it does not "
                         "bound the path count, which bfs reports exactly "
                         "however large (default %(default)s)")
    sp.add_argument("--conflict-limit", type=int,
                    default=DEFAULT_CONFLICT_LIMIT,
                    help="SAT conflict budget of one solver query; "
                         "running out is an error, never 'infeasible'. "
                         "Queries small enough for a truth table never "
                         "reach the solver (default %(default)s)")
    sp.add_argument("--clause-cap", type=int, default=DEFAULT_CLAUSE_CAP,
                    help="most CNF clauses one encoded query may have; "
                         "queries small enough for a truth table are not "
                         "held to it (default %(default)s)")
    sp.add_argument("--dump-cnf", default=None, metavar="DIR",
                    help="write one DIMACS file per solver query")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dctforge",
                     description="Don't-care transition and Trojan detection "
                                 "for synchronous circuits")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("analyze", cmd_analyze), ("trojan", cmd_trojan),
                     ("stg", cmd_stg), ("oracle", cmd_oracle)):
        sp = sub.add_parser(name)
        _add_circuit(sp)
        _add_analysis(sp, seed=name != "stg")
        sp.set_defaults(fn=fn)
    sp = sub.add_parser("inject")
    _add_circuit(sp)
    sp.add_argument("--dct", required=True,
                    help="comma-separated SRC:DST trigger edges")
    sp.add_argument("--payload", required=True,
                    help="payload spec: stuck-at:<output>:<value>")
    sp.set_defaults(fn=cmd_inject)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DctForgeError as err:
        print(f"dctforge: error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as err:
        print(f"dctforge: error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
