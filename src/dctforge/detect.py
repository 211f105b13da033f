"""Don't-care transition computation and Trojan detection.

A don't-care transition (DCT) is an edge of the transition relation whose
source StateId is unreachable from reset while its destination is
reachable.  compute_dct runs two stages: a bounded forward exploration
from reset for the reachable set, then a single fully symbolic cycle for
the transition relation.  detect_trojan adds a third stage that resumes
exploration from the stage-2 frontier states whose StateId is a DCT
destination, keeping their full register valuations (so any side effect
a trigger accumulated is preserved) and, like stage 1, only the live
part of each path constraint (see engine), and reports behavior tuples
absent from the stage-1 baseline.

Stages 1 and 3 honor the configured exploration mode.  Stage 2 is one
symbolic step (engine.symbolic_step), which keeps every successor
whatever the mode, since it must produce the complete transition
relation and the complete set of stage-3 starting states however stage
1 was scheduled.

oracle_analyze is the independent ground truth: exhaustive concrete
simulation over full register valuations, feasible only for small
circuits, used to cross-check the symbolic engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from . import expr as ex
from .circuit import (Circuit, StateSpec, decode_state, net_topo_order,
                      state_concat_expr)
# Nothing here calls project or pc_sat; they stay importable as
# detect.project and detect.pc_sat, the names perfbench/tracing.py wraps.
from .engine import (Behavior, ExploreConfig, Kind, Metadata,  # noqa: F401
                     SymState, explore, monitored_exprs, project, reset_state,
                     symbolic_step)
from .errors import TooLargeForOracle
from .solve import min_value, pc_sat  # noqa: F401

__all__ = ["DctWitness", "DctReport", "TrojanReport", "Verdict",
           "compute_dct", "detect_trojan", "diff_behaviors",
           "oracle_analyze", "oracle_dct", "replay_dct_witness",
           "ORACLE_BITS_CAP"]

ORACLE_BITS_CAP = 20


class Verdict(Enum):
    TROJAN_DETECTED = "TrojanDetected"
    NO_DCT = "NoDct"
    CLEAN = "Clean"


@dataclass(frozen=True)
class DctWitness:
    source: int
    inputs: dict[str, int]
    registers: dict[str, int]  # full source register valuation


@dataclass
class DctReport:
    rs: set[int]
    trans: set[tuple[int, int]]
    dct: set[tuple[int, int]]
    dest: set[int]
    witnesses: dict[tuple[int, int], DctWitness]
    constraint_dumps: dict[tuple[int, int], str]
    stage1: Metadata
    stage2: Metadata

    @property
    def paths_explored(self) -> int:
        return self.stage1.paths_explored + self.stage2.paths_explored

    @property
    def paths_pruned(self) -> int:
        return self.stage1.paths_pruned + self.stage2.paths_pruned


@dataclass
class TrojanReport:
    dct: DctReport
    rbs: set[Behavior]  # stage-1 baseline
    per_dest: dict[int, tuple[set[Behavior], set[Behavior]]]  # dest -> (RBS', DBS)
    verdict: Verdict
    stage3_paths: int = 0

    @property
    def dbs(self) -> set[Behavior]:
        out: set[Behavior] = set()
        for _, d in self.per_dest.values():
            out |= d
        return out


def _source_var_expr(c: Circuit, spec: StateSpec) -> ex.Expr:
    """The stage-2 initial symbolic state as an expression (the variables
    symbolic_state introduced for the spec registers)."""
    regs = c.register_map()
    parts = {n: ex.var(n, regs[n].width, -1) for n in spec.registers}
    return state_concat_expr(spec, parts)


def _extract_witness(c: Circuit, spec: StateSpec, state: SymState,
                     source: int, cfg: ExploreConfig) -> DctWitness | None:
    """Deterministic witness: pin the source StateId, then take the
    lexicographically smallest feasible tuple of the inputs and the
    non-spec registers, in declaration order, as one min_value over
    their concatenation (the first input most significant, the pinned
    source least).  None when no path of state starts at source.

    A part that is a leaf of no conjunct of pc is unconstrained: the
    feasible tuples are the product of its whole domain with the
    feasible tuples of the other parts, whose lexicographic minimum is 0
    in that part.  So it is set to 0 and left out of the query, as
    ima.snl's unread 16-bit inSamp is."""
    src_expr = _source_var_expr(c, spec)
    pc = state.pc + (ex.eq(src_expr, ex.const(spec.total_width, source)),)
    registers = dict(decode_state(c, spec, source))
    free = [r for r in c.registers if r.name not in registers]
    parts = ([ex.var(name, w, 0) for name, w in c.inputs]
             + [ex.var(r.name, r.width, -1) for r in free])
    constrained = frozenset().union(*map(ex.leaf_set, pc))
    asked = [p for p in parts if p in constrained]
    whole = ex.concat(*asked, src_expr) if asked else src_expr
    value = min_value(whole, pc, limits=cfg.limits)
    if value is None:
        return None
    shift = whole.width
    values = []
    for p in parts:
        if p in constrained:
            shift -= p.width
            values.append((value >> shift) & ((1 << p.width) - 1))
        else:
            values.append(0)
    inputs = dict(zip((name for name, _ in c.inputs), values))
    registers.update(zip((r.name for r in free), values[len(c.inputs):]))
    return DctWitness(source, inputs, registers)


def _run_stages(c: Circuit, cfg: ExploreConfig, memo: dict | None = None
                ) -> tuple[Metadata, Metadata, dict[int, list[SymState]]]:
    """Stages 1 and 2, and the stage-2 states grouped by StateId in step
    order."""
    return (explore(c, [reset_state(c)], cfg, memo=memo),
            *symbolic_step(c, cfg))


def _build_dct_report(c: Circuit, cfg: ExploreConfig, stage1: Metadata,
                      stage2: Metadata,
                      by_state: dict[int, list[SymState]]) -> DctReport:
    rs = set(stage1.rs)
    trans = set(stage2.trans)
    dct = {(a, b) for (a, b) in trans if a not in rs and b in rs}
    dest = {b for _, b in dct}
    witnesses: dict[tuple[int, int], DctWitness] = {}
    dumps: dict[tuple[int, int], str] = {}
    for edge in sorted(dct):
        a, b = edge
        for st in by_state[b]:
            witness = _extract_witness(c, cfg.state_spec, st, a, cfg)
            if witness is not None:
                witnesses[edge] = witness
                dumps[edge] = "\n".join(ex.pp(conj) for conj in st.pc)
                break
    return DctReport(rs, trans, dct, dest, witnesses, dumps, stage1, stage2)


def compute_dct(c: Circuit, cfg: ExploreConfig) -> DctReport:
    """Two-stage DCT detection: bounded reach from reset, one symbolic
    cycle for the transition relation, then the unreachable-to-reachable
    filter.  Each DCT edge carries a concrete witness and the
    pretty-printed path constraint of the path that produced it."""
    return _build_dct_report(c, cfg, *_run_stages(c, cfg))


def diff_behaviors(base: set[Behavior], probe: set[Behavior]) -> set[Behavior]:
    """Behaviors in base that are absent from probe, compared on
    (src, dst, output, value); witnesses are ignored for membership."""
    return set(base) - set(probe)


def detect_trojan(c: Circuit, cfg: ExploreConfig) -> TrojanReport:
    """Three-stage detection.  Stage 3 starts from stage-2 frontier states
    projecting into a DCT destination and reports every behavior tuple not
    observed in stage 1.  Stages 1 and 3 share one step memo (engine's
    "Replayed steps")."""
    memo: dict = {}
    stage1, stage2, by_state = _run_stages(c, cfg, memo)
    report = _build_dct_report(c, cfg, stage1, stage2, by_state)
    if not report.dct:
        return TrojanReport(report, set(stage1.rbs), {}, Verdict.NO_DCT)

    per_dest: dict[int, tuple[set[Behavior], set[Behavior]]] = {}
    stage3_paths = 0
    for d in sorted(report.dest):
        rbs_d: set[Behavior] = set()
        for st in by_state[d]:
            meta = explore(c, [st], cfg, memo=memo)
            rbs_d |= meta.rbs
            stage3_paths += meta.paths_explored
        per_dest[d] = (rbs_d, diff_behaviors(rbs_d, stage1.rbs))

    deviant = any(dbs for _, dbs in per_dest.values())
    verdict = Verdict.TROJAN_DETECTED if deviant else Verdict.CLEAN
    return TrojanReport(report, set(stage1.rbs), per_dest, verdict,
                        stage3_paths)


def _oracle_step(c: Circuit, nets: list[tuple[str, int, ex.Expr]],
                 valuation: dict[str, int], inputs: dict[str, int],
                 outputs: dict[str, ex.Expr] | None = None
                 ) -> tuple[dict[str, int], dict[str, int]]:
    """One concrete clock cycle: returns (next valuation, output values).
    nets is net_topo_order(c) and outputs the outputs to sample, both
    computed once by the caller."""
    env: dict[tuple, int] = {}
    for name, value in inputs.items():
        env[("ref", name)] = value
    for name, value in valuation.items():
        env[("ref", name)] = value
    for name, _, e in nets:
        env[("ref", name)] = ex.evaluate(e, env)
    values = {name: ex.evaluate(e, env) for name, e in (outputs or {}).items()}
    nxt = {r.name: ex.evaluate(r.next, env) for r in c.registers}
    return nxt, values


def _live_inputs(c: Circuit, monitored: tuple[str, ...]) -> set[str]:
    """Inputs referenced (transitively) by register next-state logic, nets,
    or a monitored output; the rest cannot influence the analysis."""
    roots = [r.next for r in c.registers] + [e for _, _, e in c.nets]
    out_map = c.output_exprs()
    roots += [out_map[n] for n in monitored]
    names = {node.aux[0] for node in ex.postorder(roots) if node.op == "ref"}
    return {n for n, _ in c.inputs if n in names}


def _input_assignments(c: Circuit, live: set[str]) -> list[dict[str, int]]:
    """All assignments over the live inputs (_live_inputs); dead inputs
    are pinned to 0, which cannot change any recorded value."""
    names = [n for n, _ in c.inputs]
    domains = [range(1 << w) if n in live else (0,) for n, w in c.inputs]
    return [dict(zip(names, combo)) for combo in itertools.product(*domains)]


def oracle_analyze(c: Circuit, spec: StateSpec, depth: int | None,
                   monitored: tuple[str, ...] | None = None) -> Metadata:
    """Exhaustive concrete ground truth.

    RS and RBS come from a depth-bounded breadth-first simulation over
    full register valuations from reset (depth None runs to the valuation
    fixpoint); Trans comes from enumerating every (valuation, input) pair.
    The Metadata schema matches engine.explore so results diff directly,
    and monitored names are checked as there (engine.monitored_exprs).
    The register bits and the live input bits count against
    ORACLE_BITS_CAP; an input nothing reads is pinned to 0
    (_input_assignments) and costs nothing.
    """
    if monitored is None:
        monitored = tuple(n for n, _, _ in c.outputs)
    sampled = dict(monitored_exprs(c, monitored))
    live = _live_inputs(c, monitored)
    bits = (sum(r.width for r in c.registers)
            + sum(w for name, w in c.inputs if name in live))
    if bits > ORACLE_BITS_CAP:
        raise TooLargeForOracle(bits, ORACLE_BITS_CAP)

    assignments = _input_assignments(c, live)
    reg_names = [r.name for r in c.registers]
    nets = net_topo_order(c)
    regs = c.register_map()

    def proj(valuation: dict[str, int]) -> int:
        value = 0
        for n in spec.registers:
            value = (value << regs[n].width) | valuation[n]
        return value

    reset_val = {r.name: r.reset_value for r in c.registers}
    rs: set[int] = {proj(reset_val)}
    rbs: set[Behavior] = set()
    visited = {tuple(reset_val[n] for n in reg_names)}
    frontier = [reset_val]
    layer = 0
    last_new_layer = 0
    while frontier and (depth is None or layer < depth):
        layer += 1
        next_frontier = []
        new_this_layer = False
        for valuation in frontier:
            s1 = proj(valuation)
            for inputs in assignments:
                nxt, outs = _oracle_step(c, nets, valuation, inputs, sampled)
                s2 = proj(nxt)
                if s2 not in rs:
                    new_this_layer = True
                rs.add(s2)
                witness = tuple(sorted(inputs.items()))
                for name in monitored:
                    rbs.add(Behavior(s1, s2, name, outs[name], witness))
                key = tuple(nxt[n] for n in reg_names)
                if key not in visited:
                    visited.add(key)
                    next_frontier.append(nxt)
        frontier = next_frontier
        if new_this_layer:
            last_new_layer = layer
        if depth is None and not frontier:
            break

    trans: set[tuple[int, int]] = set()
    domains = [range(1 << r.width) for r in c.registers]
    for combo in itertools.product(*domains):
        valuation = dict(zip(reg_names, combo))
        s1 = proj(valuation)
        for inputs in assignments:
            nxt, _ = _oracle_step(c, nets, valuation, inputs)
            trans.add((s1, proj(nxt)))

    return Metadata(kind=Kind.REACH, rs=rs, trans=trans, rbs=rbs,
                    sym_states=[], discovered_diameter=last_new_layer,
                    paths_explored=0, paths_pruned=0)


def oracle_dct(meta: Metadata) -> set[tuple[int, int]]:
    return {(a, b) for (a, b) in meta.trans
            if a not in meta.rs and b in meta.rs}


def replay_dct_witness(c: Circuit, spec: StateSpec,
                       edge: tuple[int, int], witness: DctWitness) -> bool:
    """Concretely simulate one cycle from the witness register valuation
    under the witness inputs; True iff the claimed destination is reached."""
    nxt, _ = _oracle_step(c, net_topo_order(c), dict(witness.registers),
                          dict(witness.inputs))
    regs = c.register_map()
    value = 0
    for n in spec.registers:
        value = (value << regs[n].width) | nxt[n]
    return witness.source == edge[0] and value == edge[1]
