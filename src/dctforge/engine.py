"""Bounded symbolic execution over circuits, one clock cycle at a time.

Every cycle injects fresh symbolic variables for the circuit inputs, then
evaluates nets, outputs, and register next-state expressions under
synchronous semantics.  Each explore call builds one step plan for its
circuit: the nets in topological order, then the register next-state
expressions, then the monitored outputs, as one node order (and the nets
then the assumptions as a second one, evaluated after the edge).  A
cycle is one fused substitute-and-simplify pass over that order
(expr.substitute_simplify), which builds each node already simplified.

Paths split on Case/Mux controls reachable from the state-spec
registers' next-state logic; whatever symbolic state
remains after splitting is resolved by enumerating the feasible next
StateId values and pinning each one into the path constraint (this is the
only splitting mechanism gate-level circuits need, since they carry no
Case/Mux nodes at all).  The step also records, for each successor, the
pre-step StateIds that reach it.  When both the source and the
destination are symbolic, as in the one fully symbolic step of stage 2,
a branch's successors and their sources come from one pair query
(solve.transitions, labelled "transitions"), which encodes the branch's
next-state cone once instead of once per destination.

Exploration modes:

* BFS          -- full breadth-first exploration, layer by layer.
* BFS_PRUNE    -- BFS, but a successor whose projected state set was
                  already encountered is terminated after its metadata is
                  recorded; justified by monotonicity of bounded cut
                  reachability, and unsound only when registers outside
                  the state spec feed the state-spec logic (a structural
                  warning is logged in that case).
* PARTIAL      -- keeps exactly one successor per step (deterministic
                  first-feasible choice, taking Mux else-branches first),
                  modelling a single-path input partition.  Reachable
                  sets computed this way may be under-approximations, so
                  downstream don't-care reports may contain false
                  positives; the mode exists to demonstrate that.

Metadata kinds: Reach records the reachable StateId set and the observed
behavior tuples (source, destination, output, value) with outputs sampled
as functions of the pre-edge state and the cycle's inputs; States records
the transition relation and returns the surviving frontier so later
stages can resume from it with all side effects intact.

Depth may be an explicit cycle count or FIXPOINT, which runs until a
layer discovers no new StateId (that closing layer also guarantees every
state contributes outgoing behaviors) and reports the discovered
diameter.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from . import expr as ex
from .circuit import (Circuit, StateSpec, decode_state, net_topo_order,
                      state_concat_expr)
from .errors import (CapExceeded, DctForgeError, PathExplosion,
                     UnknownOutput)
from .solve import (DEFAULT_VALUE_CAP, SolverLimits, all_values, extends,
                    min_value, transitions)

__all__ = ["Mode", "Kind", "FIXPOINT", "ExploreConfig", "SymState",
           "Behavior", "Metadata", "reset_state", "symbolic_state",
           "step_cycle", "project", "explore"]

log = logging.getLogger("dctforge.engine")

FIXPOINT = None  # depth sentinel
DEFAULT_PATH_CAP = 4096


class Mode(Enum):
    BFS = "bfs"
    BFS_PRUNE = "bfs-prune"
    PARTIAL = "partial"


class Kind(Enum):
    REACH = "reach"
    STATES = "states"


@dataclass(frozen=True)
class ExploreConfig:
    state_spec: StateSpec
    depth: int | None  # clock cycles, or FIXPOINT (None)
    mode: Mode = Mode.BFS_PRUNE
    monitored_outputs: tuple[str, ...] = ()
    assumes: tuple[ex.Expr, ...] = ()
    value_cap: int = DEFAULT_VALUE_CAP
    path_cap: int = DEFAULT_PATH_CAP
    limits: SolverLimits = field(default_factory=SolverLimits)

    def __post_init__(self):
        if self.depth is not None and self.depth < 0:
            raise DctForgeError("depth must be >= 0 or FIXPOINT")


@dataclass(frozen=True, eq=False)
class SymState:
    """One symbolic execution path: register valuation, path constraint,
    elapsed cycles.  Invariant: pc is satisfiable.  Stepping relies on
    it: each split guard is checked with solve.extends, which solves only
    the slice of pc linked to the guard."""
    regs: Mapping[str, ex.Expr]
    pc: tuple[ex.Expr, ...]
    num_steps: int
    var_epoch: int


@dataclass(frozen=True)
class Behavior:
    src: int
    dst: int
    output: str
    value: int
    witness: tuple | None = field(default=None, compare=False)


@dataclass
class Metadata:
    kind: Kind
    rs: set[int]
    trans: set[tuple[int, int]]
    rbs: set[Behavior]
    sym_states: list[SymState]
    discovered_diameter: int | None = None
    paths_explored: int = 0
    paths_pruned: int = 0
    depth_converged: bool = True


def reset_state(c: Circuit) -> SymState:
    """All registers at their reset values, empty path constraint."""
    regs = {r.name: ex.const(r.width, r.reset_value) for r in c.registers}
    return SymState(regs, (), 0, 0)


def symbolic_state(c: Circuit, spec: StateSpec) -> SymState:
    """Every register (in the spec or not) bound to a fresh symbolic
    variable, so one step from here covers every possible source state
    including trigger side effects in non-spec registers."""
    regs = {r.name: ex.var(r.name, r.width, -1) for r in c.registers}
    return SymState(regs, (), 0, 0)


def _distinct_var_concat(e: ex.Expr) -> bool:
    """True when e is a single Var or a concatenation of distinct Vars."""
    if e.op == "var":
        return True
    if e.op != "concat":
        return False
    return (all(a.op == "var" for a in e.args)
            and len({a.aux for a in e.args}) == len(e.args))


def project(s: SymState, spec: StateSpec, cfg: ExploreConfig) -> set[int]:
    """Feasible StateId values of the spec registers under s.pc."""
    concat = ex.simplify(state_concat_expr(spec, dict(s.regs)))
    if concat.op == "const":
        return {concat.aux[0]}
    if not s.pc and _distinct_var_concat(concat):
        if (1 << concat.width) > cfg.value_cap:
            raise CapExceeded(cfg.value_cap)
        return set(range(1 << concat.width))
    return all_values(concat, s.pc, cap=cfg.value_cap, limits=cfg.limits)


@dataclass
class _StepResult:
    state: SymState
    src_expr: ex.Expr               # pre-step spec concatenation
    src_vals: list[int]             # its feasible values under state.pc
    out_exprs: dict[str, ex.Expr]   # monitored outputs, pre-edge sample


def _first_split_node(roots: list[ex.Expr]) -> ex.Expr | None:
    """Outermost Case with a symbolic scrutinee or Mux with a symbolic
    condition, in deterministic preorder over the given roots."""
    seen: set[ex.Expr] = set()
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node.op == "case" and node.args[0].op != "const":
                return node
            if node.op == "mux" and node.args[0].op != "const":
                return node
            stack.extend(reversed(node.args))
    return None


def _alternatives(node: ex.Expr, mode: Mode) -> list[tuple[ex.Expr, ex.Expr]]:
    """(guard, replacement) pairs for one Case/Mux node, in the order the
    scheduler should try them."""
    if node.op == "mux":
        cond, then, els = node.args
        pairs = [(cond, then), (ex.not_(cond), els)]
        if mode is Mode.PARTIAL:
            pairs.reverse()
        return pairs
    scrut = node.args[0]
    arms = sorted(zip(node.aux, node.args[1:-1]), key=lambda kv: kv[0])
    pairs = [(ex.eq(scrut, ex.const(scrut.width, k)), arm) for k, arm in arms]
    default_guard = ex.and_all(
        [ex.ne(scrut, ex.const(scrut.width, k)) for k, _ in arms])
    pairs.append((default_guard, node.args[-1]))
    return pairs


@dataclass(frozen=True)
class _StepPlan:
    """What every cycle of one exploration evaluates, in one node order.

    `order` holds every node of the nets (in net topological order), then
    of the register next-state expressions, then of the monitored
    outputs, each once with children first; `assume_order` holds the
    nets and then the assumptions.  A net's Ref resolves through `links`
    to the result of that net's expression, so one substitute_simplify
    walk evaluates a whole cycle."""
    order: tuple[ex.Expr, ...]
    assume_order: tuple[ex.Expr, ...]
    links: dict[str, ex.Expr]
    outputs: tuple[tuple[str, ex.Expr], ...]


def _node_order(roots: list[ex.Expr]) -> tuple[ex.Expr, ...]:
    # postorder pops its roots from a stack, so reversing them finishes
    # each root's nodes before the next root's: a net comes before every
    # Ref to it.
    return tuple(ex.postorder(roots[::-1]))


def _build_plan(c: Circuit, cfg: ExploreConfig) -> _StepPlan:
    nets = [e for _, _, e in net_topo_order(c)]
    out_all = c.output_exprs()
    outputs = []
    for name in cfg.monitored_outputs:
        if name not in out_all:
            raise UnknownOutput(name)
        outputs.append((name, out_all[name]))
    order = _node_order(nets + [r.next for r in c.registers]
                        + [e for _, e in outputs])
    assume_order = _node_order(nets + list(cfg.assumes)) if cfg.assumes else ()
    return _StepPlan(order, assume_order, {n: e for n, _, e in c.nets},
                     tuple(outputs))


_Cycle = tuple[dict[str, ex.Expr], dict[str, ex.Expr], tuple[ex.Expr, ...]]


def _cycle_exprs(c: Circuit, s: SymState, cfg: ExploreConfig,
                 plan: _StepPlan) -> _Cycle | None:
    """One cycle from s before any split: the register next-state
    expressions, the monitored outputs and the path constraint with the
    assumptions added; None when the assumptions cut s."""
    inputs_env = {name: ex.var(name, w, s.var_epoch) for name, w in c.inputs}
    env: dict[str, ex.Expr] = dict(inputs_env)
    env.update(s.regs)
    vals = ex.substitute_simplify(plan.order, env, plan.links)
    next_exprs = {r.name: vals[r.next] for r in c.registers}
    outs = {name: vals[e] for name, e in plan.outputs}
    if not cfg.assumes:
        return next_exprs, outs, s.pc
    # s.pc is satisfiable and every guard is checked as it is added, so
    # only the assumptions need a feasibility check of their own.
    post_env: dict[str, ex.Expr] = dict(inputs_env)
    post_env.update(next_exprs)
    post = ex.substitute_simplify(plan.assume_order, post_env, plan.links)
    assumed = tuple(post[a] for a in cfg.assumes)
    if not extends(s.pc, assumed, cfg.limits):
        return None
    return next_exprs, outs, s.pc + assumed


def _step(c: Circuit, s: SymState, cfg: ExploreConfig,
          plan: _StepPlan) -> list[_StepResult]:
    spec = cfg.state_spec
    cycle = _cycle_exprs(c, s, cfg, plan)
    if cycle is None:
        return []
    next_exprs, outs, base_pc = cycle
    src_expr = ex.simplify(state_concat_expr(spec, dict(s.regs)))

    # Resolve Case/Mux controls of the spec registers' next-state logic.
    worklist = deque([(next_exprs, outs, base_pc)])
    resolved = []
    while worklist:
        nx, oo, pc = worklist.popleft()
        node = _first_split_node([nx[r] for r in spec.registers])
        if node is None:
            resolved.append((nx, oo, pc))
            continue
        for guard, replacement in _alternatives(node, cfg.mode):
            guard_s = ex.simplify(guard)
            if not extends(pc, (guard_s,), cfg.limits):
                continue
            nx2 = {r: ex.simplify(ex.replace_node(e, node, replacement))
                   for r, e in nx.items()}
            oo2 = {o: ex.simplify(ex.replace_node(e, node, replacement))
                   for o, e in oo.items()}
            worklist.append((nx2, oo2, pc + (guard_s,)))
            if cfg.mode is Mode.PARTIAL:
                break

    results: list[_StepResult] = []
    for nx, oo, pc in resolved:
        concat = ex.simplify(state_concat_expr(spec, nx))
        # Each successor StateId with the feasible pre-step StateIds that
        # reach it on this branch.
        if concat.op == "const":
            succs = {concat.aux[0]: _sources(src_expr, pc, cfg)}
        elif cfg.mode is Mode.PARTIAL:
            v = min_value(concat, pc, limits=cfg.limits)
            if v is None:
                continue
            succs = {v: _sources(src_expr, _pinned(pc, concat, v), cfg)}
        elif src_expr.op == "const":
            succs = {v: [src_expr.aux[0]]
                     for v in all_values(concat, pc, cap=cfg.value_cap,
                                         limits=cfg.limits)}
        else:
            succs = {v: sorted(srcs) for v, srcs in transitions(
                concat, src_expr, pc, cap=cfg.value_cap,
                limits=cfg.limits).items()}
        for v in sorted(succs):
            slices = decode_state(c, spec, v)
            regs3 = {}
            for r in c.registers:
                if r.name in slices:
                    regs3[r.name] = ex.const(r.width, slices[r.name])
                else:
                    regs3[r.name] = nx[r.name]
            results.append(_StepResult(
                SymState(regs3, _pinned(pc, concat, v), s.num_steps + 1,
                         s.var_epoch + 1),
                src_expr, succs[v], oo))
        if len(results) > cfg.path_cap:
            raise PathExplosion(len(results), cfg.path_cap)
    return results


def _pinned(pc: tuple[ex.Expr, ...], concat: ex.Expr,
            v: int) -> tuple[ex.Expr, ...]:
    """pc with the successor StateId concat pinned to v."""
    if concat.op == "const":
        return pc
    return pc + (ex.eq(concat, ex.const(concat.width, v)),)


def _sources(src_expr: ex.Expr, pc: tuple[ex.Expr, ...],
             cfg: ExploreConfig) -> list[int]:
    """The feasible pre-step StateIds under pc, in ascending order."""
    if src_expr.op == "const":
        return [src_expr.aux[0]]
    return sorted(all_values(src_expr, pc, cap=cfg.value_cap,
                             limits=cfg.limits))


def step_cycle(c: Circuit, s: SymState, cfg: ExploreConfig) -> list[SymState]:
    """Advance one clock cycle from s, whose path constraint must be
    satisfiable: each split guard and the assumptions are checked as one
    sliced query (solve.extends), which is sound only from a satisfiable
    pc.  Every returned successor keeps the SymState invariant: its pc is
    satisfiable."""
    return [r.state for r in _step(c, s, cfg, _build_plan(c, cfg))]


def _log_event(**fields) -> None:
    if log.isEnabledFor(logging.DEBUG):
        log.debug(json.dumps(fields, sort_keys=True))


def _prune_soundness_warning(c: Circuit, spec: StateSpec) -> None:
    """BFS_PRUNE keys on the projected StateId only; warn when registers
    outside the spec feed the spec registers' next-state logic."""
    net_map = {n: e for n, _, e in c.nets}
    spec_set = set(spec.registers)
    regs = c.register_map()
    seen_sigs: set[str] = set()
    frontier = [regs[r].next for r in spec.registers]
    while frontier:
        e = frontier.pop()
        for node in ex.postorder([e]):
            if node.op != "ref":
                continue
            name = node.aux[0]
            if name in seen_sigs:
                continue
            seen_sigs.add(name)
            if name in net_map:
                frontier.append(net_map[name])
            elif name in regs and name not in spec_set:
                log.warning(
                    "register %r outside the state spec feeds state-spec "
                    "logic; pruning by StateId may under-approximate", name)
                return


def _record_behaviors(res: _StepResult, dst: int, cfg: ExploreConfig,
                      rbs: set[Behavior]) -> None:
    succ = res.state
    src_vals = res.src_vals
    for out in cfg.monitored_outputs:
        oe = res.out_exprs[out]
        if len(src_vals) == 1:
            queries = [(src_vals[0], succ.pc)]
        else:
            queries = [(s1, succ.pc + (ex.eq(res.src_expr,
                                             ex.const(res.src_expr.width, s1)),))
                       for s1 in src_vals]
        for s1, pc in queries:
            if oe.op == "const":
                vals = {oe.aux[0]}
            else:
                vals = all_values(oe, pc, cap=cfg.value_cap, limits=cfg.limits)
            for v in sorted(vals):
                rbs.add(Behavior(s1, dst, out, v))


def explore(c: Circuit, init: list[SymState], cfg: ExploreConfig,
            kind: Kind) -> Metadata:
    """Worklist exploration per the configured mode; see the module
    docstring for the semantics of each mode and metadata kind."""
    if not init:
        raise DctForgeError("explore needs at least one initial state")
    spec = cfg.state_spec
    if cfg.mode is Mode.BFS_PRUNE:
        _prune_soundness_warning(c, spec)
    plan = _build_plan(c, cfg)

    seen: set[int] = set()
    for s in init:
        seen |= project(s, spec, cfg)
    meta = Metadata(kind=kind, rs=set(seen) if kind is Kind.REACH else set(),
                    trans=set(), rbs=set(), sym_states=[])
    frontier = list(init)
    layer = 0
    last_new_layer = 0
    final_layer_added = False

    while frontier:
        if cfg.depth is not None and layer >= cfg.depth:
            break
        layer += 1
        step_results = [_step(c, st, cfg, plan) for st in frontier]
        meta.paths_explored += len(frontier)
        if layer == 1 and cfg.assumes and not any(step_results):
            log.warning("the assumptions cut every successor of the "
                        "initial states: %s",
                        "; ".join(ex.pp(a) for a in cfg.assumes))

        new_frontier: list[SymState] = []
        layer_added = False
        for results in step_results:
            for res in results:
                succ = res.state
                proj = project(succ, spec, cfg)
                if kind is Kind.REACH:
                    meta.rs |= proj
                    for d in sorted(proj):
                        _record_behaviors(res, d, cfg, meta.rbs)
                else:
                    for s1 in res.src_vals:
                        for s2 in sorted(proj):
                            meta.trans.add((s1, s2))
                new_ids = proj - seen
                if new_ids:
                    layer_added = True
                if cfg.mode is Mode.BFS_PRUNE and not new_ids:
                    meta.paths_pruned += 1
                    _log_event(event="path_pruned", layer=layer,
                               state=sorted(proj))
                    continue
                seen |= proj
                new_frontier.append(succ)
                _log_event(event="path_spawned", layer=layer,
                           state=sorted(proj), num_steps=succ.num_steps)
        frontier = new_frontier
        if layer_added:
            last_new_layer = layer
        if cfg.depth is None and not layer_added:
            break
        if cfg.depth is not None and layer >= cfg.depth:
            final_layer_added = layer_added
            break

    if cfg.depth is None:
        meta.discovered_diameter = last_new_layer
    else:
        meta.depth_converged = not final_layer_added
        if final_layer_added:
            log.warning("new states appeared at the final layer %d; "
                        "increase depth or use fixpoint mode", layer)
    if kind is Kind.STATES:
        meta.sym_states = frontier
    _log_event(event="explore_done", layers=layer,
               paths=meta.paths_explored, pruned=meta.paths_pruned)
    return meta
