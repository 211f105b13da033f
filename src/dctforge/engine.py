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
registers' next-state logic.  Each split node costs one postorder of the
nodes of the step's register and output expressions that are no older
than the split node (a node's eid is above its descendants', so no
older node can contain it), one slice of the path constraint shared by
all of the node's guards, which have the scrutinee's leaves
(solve.extension_check; each guard is still its own group check), and
one replace-and-simplify walk over those nodes per feasible alternative
(expr.replace_simplify), which builds each changed node already
simplified and keeps every node it did not visit.  Whatever symbolic state
remains after splitting is resolved by enumerating the feasible next
StateId values and pinning each one into the path constraint (this is the
only splitting mechanism gate-level circuits need, since they carry no
Case/Mux nodes at all).  Each successor carries the StateId it was
pinned to and the pre-step StateIds that reach it, so exploration
records both as the step decided them and calls project only on its
initial states.  When both the source and the destination are
symbolic, as in symbolic_step, a branch's successors and their sources
come from one pair query (solve.transitions, labelled "transitions"),
which evaluates the branch's next-state cone once, as one truth table
or one CDCL encoding, instead of once per destination.

Exploration modes:

* BFS          -- full breadth-first exploration, layer by layer.  Its
                  work grows with the distinct (registers, live pc)
                  states per layer, not with the paths: see "Path
                  counts" below.
* BFS_PRUNE    -- BFS, but a successor whose StateId was already
                  encountered is terminated after its metadata is
                  recorded; justified by monotonicity of bounded cut
                  reachability, and unsound only when registers outside
                  the state spec feed the state-spec logic or a monitored
                  output (a structural warning, once per circuit and
                  config, names each such register and what it feeds).
* PARTIAL      -- keeps exactly one successor per step (deterministic
                  first-feasible choice, taking Mux else-branches first),
                  modelling a single-path input partition.  Reachable
                  sets computed this way may be under-approximations, so
                  downstream don't-care reports may contain false
                  positives; the mode exists to demonstrate that.

Metadata kinds: explore records Reach, the reachable StateId set and
the observed behavior tuples (source, destination, output, value) with
outputs sampled as functions of the pre-edge state and the cycle's
inputs.  symbolic_step, stage 2's one step from symbolic_state, records
States: the transition relation and the successors, so later stages can
resume from them with all side effects intact.

Live path constraints: in an exploration a successor joins the
frontier with only the conjuncts of its path constraint that are linked
through shared leaves, directly or through other conjuncts, to the
leaves of its register expressions (solve.live_conjuncts).  The step
that produced it still reads the full path constraint for its
StateIds and behaviors.  The dropped groups can never meet a later
query (see SymState), so while the registers stay concrete a path
constraint does not grow with depth.  symbolic_step keeps every
conjunct: its successors' path constraints feed the DCT witnesses and
constraint dumps.

Path counts: a frontier entry is one state and the number of paths that
reach it.  Successors of one layer with the same content (register
values in register order, pc after the live-conjunct trim, and
var_epoch) merge into the first one's entry, in first-occurrence order,
and their counts add up.  _step reads nothing else of a state and the
answers memo is exact, so each entry is stepped and recorded once, and
the steps this saves would only replay memoised answers.
paths_explored still counts paths (a Python int, which can pass 2^63).
Under BFS_PRUNE a successor with a new StateId keeps one path and the
others count as pruned; the kept successors of one layer have distinct
StateIds, so they never share content, and only the initial states are
merged.

Concrete kernel: in an exploration, a state whose registers are all
constants and whose pc is empty is stepped by plain simulation when the
circuit and config allow it.  explore asks _build_plan for a kernel when
the plan holds no Case or Mux node (so a step has exactly one branch),
the config has no assumptions, the spec and every monitored output are
at most solve.ALL_VALUES_WIDTH_CAP bits wide, and the plan reads at most
KERNEL_INPUT_BITS input bits.  The kernel (kernel.Kernel) is one
Python function generated from the plan's order and compiled with
`compile`, on its first use; its source holds only generated names and
integer literals.  One is kept per circuit and config object (as each
warning text is), so detect_trojan's stage-3 explorations reuse stage
1's.  _step runs it once per assignment of the live inputs and groups
the assignments by next StateId, in ascending order: each group is one
successor, with its spec registers decoded from the StateId, every
other register at its one next value, an empty pc, the source StateId,
and each monitored output's values, which _record_behaviors takes as
they are.  Under
PARTIAL only the smallest StateId is kept, as min_value would pick.
_step takes the symbolic step instead when a destination has more than
one valuation of the registers outside the spec, when there are more
destinations than value_cap or path_cap, or when an output has more
than value_cap values on one destination, so every CapExceeded and
PathExplosion comes from the symbolic step.  With one branch, the
symbolic step's successors are the distinct next StateIds, and the
live-conjunct trim leaves their pc empty whenever their registers are
constants, so the kernel changes no answer.  step_cycle and
symbolic_step, which build their plans without the kernel, stay
symbolic.

Depth may be an explicit cycle count or FIXPOINT, which runs until a
layer discovers no new StateId (that closing layer also guarantees every
state contributes outgoing behaviors) and reports the discovered
diameter.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field, replace as dc_replace
from enum import Enum
from typing import TYPE_CHECKING, Mapping

from . import expr as ex
from .circuit import (Circuit, StateSpec, decode_state, net_topo_order,
                      state_concat_expr)
from .errors import (DctForgeError, DuplicateName, PathExplosion,
                     UnknownOutput)
from .solve import (ALL_VALUES_WIDTH_CAP, DEFAULT_VALUE_CAP, SolverLimits,
                    all_values, extends, extension_check, live_conjuncts,
                    min_value, transitions)

if TYPE_CHECKING:
    from .kernel import Kernel

__all__ = ["Mode", "Kind", "FIXPOINT", "ExploreConfig", "SymState",
           "Behavior", "Metadata", "reset_state", "symbolic_state",
           "step_cycle", "project", "explore", "symbolic_step"]

log = logging.getLogger("dctforge.engine")

FIXPOINT = None  # depth sentinel
DEFAULT_PATH_CAP = 4096
# The most live input bits the concrete kernel enumerates in one step;
# a plan that reads more keeps the symbolic step (see "Concrete kernel"
# in the module docstring).
KERNEL_INPUT_BITS = 9


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
    # The (circuit, text) of each warning explore has given under this
    # config object; a replaced config starts empty.
    _warned: list = field(default_factory=list, init=False,
                          compare=False, repr=False)
    # (circuit, Kernel or None) per circuit an exploration has planned
    # under this config object, kept the same way.
    _kernels: list = field(default_factory=list, init=False,
                           compare=False, repr=False)

    def __post_init__(self):
        if self.depth is not None and self.depth < 0:
            raise DctForgeError("depth must be >= 0 or FIXPOINT")


@dataclass(frozen=True, eq=False)
class SymState:
    """One symbolic execution path: register valuation, path constraint,
    and the step of the next cycle's input variables.  Invariant: pc is
    satisfiable.  Stepping relies on it: the guards of one split node
    share one slice of pc, the conjuncts linked to the node's scrutinee
    (solve.extension_check), and each guard is solved with that slice
    alone; the rest of pc is never encoded.

    An exploration keeps only the live pc of each frontier state:
    the conjuncts linked through shared leaves to the leaves of regs.
    That changes no answer:
    - every later query is built from regs, from fresh input variables
      (a later epoch than any conjunct of pc mentions) and from the
      assumptions and split guards over them;
    - so a dropped group, which shares no leaf with regs, never enters a
      related slice: every step-feasibility group and every answers memo
      key stays the same, and the rest-groups checks only see fewer
      groups, each of them satisfiable because pc is;
    - so every answer, and every report, stays byte-identical."""
    regs: Mapping[str, ex.Expr]
    pc: tuple[ex.Expr, ...]
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
    return SymState(regs, (), 0)


def symbolic_state(c: Circuit, spec: StateSpec) -> SymState:
    """Every register (in the spec or not) bound to a fresh symbolic
    variable, so one step from here covers every possible source state
    including trigger side effects in non-spec registers."""
    regs = {r.name: ex.var(r.name, r.width, -1) for r in c.registers}
    return SymState(regs, (), 0)


def project(s: SymState, spec: StateSpec, cfg: ExploreConfig) -> set[int]:
    """Feasible StateId values of the spec registers under s.pc.  A
    step's successors come with theirs (_StepResult.dst), so explore
    projects only its initial states."""
    concat = ex.simplify(state_concat_expr(spec, dict(s.regs)))
    if concat.op == "const":
        return {concat.aux[0]}
    return all_values(concat, s.pc, cap=cfg.value_cap, limits=cfg.limits)


@dataclass
class _StepResult:
    state: SymState
    dst: int                        # the StateId state's spec is pinned to
    src_expr: ex.Expr               # pre-step spec concatenation
    src_vals: list[int]             # its feasible values under state.pc
    out_exprs: dict[str, ex.Expr]   # monitored outputs, pre-edge sample
    # Each monitored output's values on this step, when the concrete
    # kernel computed them (out_exprs is then empty).
    out_vals: dict[str, list[int]] | None = None


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
    kernel: Kernel | None = None


def _node_order(roots: list[ex.Expr]) -> tuple[ex.Expr, ...]:
    # postorder pops its roots from a stack, so reversing them finishes
    # each root's nodes before the next root's: a net comes before every
    # Ref to it.
    return tuple(ex.postorder(roots[::-1]))


def monitored_exprs(c: Circuit, names: tuple[str, ...]
                    ) -> list[tuple[str, ex.Expr]]:
    """(name, expression) of each monitored output of c, in the order of
    names.  Raises UnknownOutput for a name c has no output for, and
    DuplicateName for a name given twice."""
    out_all = c.output_exprs()
    outputs: dict[str, ex.Expr] = {}
    for name in names:
        if name not in out_all:
            raise UnknownOutput(name)
        if name in outputs:
            raise DuplicateName(name)
        outputs[name] = out_all[name]
    return list(outputs.items())


def _build_plan(c: Circuit, cfg: ExploreConfig,
                kernel: bool = False) -> _StepPlan:
    """The step plan of c under cfg; with kernel, also the concrete
    kernel of c and cfg when they qualify for one (explore asks for it;
    step_cycle and symbolic_step do not)."""
    nets = [e for _, _, e in net_topo_order(c)]
    outputs = monitored_exprs(c, cfg.monitored_outputs)
    order = _node_order(nets + [r.next for r in c.registers]
                        + [e for _, e in outputs])
    assume_order = _node_order(nets + list(cfg.assumes)) if cfg.assumes else ()
    plan = _StepPlan(order, assume_order, {n: e for n, _, e in c.nets},
                     tuple(outputs))
    if not kernel:
        return plan
    for cached, k in cfg._kernels:
        if cached is c:
            return dc_replace(plan, kernel=k)
    k = None
    live = _kernel_inputs(c, cfg, plan)
    if live is not None:
        from .kernel import Kernel  # only now: see kernel.py's docstring
        k = Kernel(c, cfg.state_spec, plan.outputs, plan.order, plan.links,
                   live)
    cfg._kernels.append((c, k))
    return dc_replace(plan, kernel=k)


def _kernel_inputs(c: Circuit, cfg: ExploreConfig,
                   plan: _StepPlan) -> list[tuple[str, int]] | None:
    """The live inputs of plan, the inputs it reads, when c and cfg
    qualify for a concrete kernel; None when the plan splits (a Case or
    Mux node), cfg has assumptions, a monitored output is wider than
    all_values takes, or the plan reads more than KERNEL_INPUT_BITS input
    bits.  No spec is wider than all_values takes (STATE_WIDTH_CAP)."""
    if cfg.assumes or any(e.width > ALL_VALUES_WIDTH_CAP
                          for _, e in plan.outputs):
        return None
    read: set[str] = set()
    for node in plan.order:
        if node.op in ("case", "mux"):
            return None
        if node.op == "ref":
            read.add(node.aux[0])
    live = [(name, w) for name, w in c.inputs if name in read]
    if sum(w for _, w in live) > KERNEL_INPUT_BITS:
        return None
    return live


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


def _kernel_step(c: Circuit, s: SymState, cfg: ExploreConfig,
                 kernel: Kernel) -> list[_StepResult] | None:
    """_step from a constant state with an empty pc, by the kernel; None
    when _step has to take the symbolic step instead: a destination with
    more than one valuation of the registers outside the spec, more
    destinations than the value or path cap, or an output with more than
    value_cap values on one destination."""
    if kernel.fn is None:
        _log_event(event="kernel_built", nodes=kernel.build())
    by_dst = kernel.step({name: e.aux[0] for name, e in s.regs.items()})
    dsts = sorted(by_dst)
    if cfg.mode is Mode.PARTIAL:
        dsts = dsts[:1]
    if len(dsts) > min(cfg.value_cap, cfg.path_cap):
        return None
    spec = cfg.state_spec
    src_expr = ex.simplify(state_concat_expr(spec, dict(s.regs)))
    results = []
    for v in dsts:
        others, outs = by_dst[v]
        if len(others) > 1 or any(len(vals) > cfg.value_cap
                                  for vals in outs):
            return None
        values = decode_state(c, spec, v)
        values.update(zip(kernel.others, others.pop()))
        regs3 = {r.name: ex.const(r.width, values[r.name])
                 for r in c.registers}
        results.append(_StepResult(
            SymState(regs3, (), s.var_epoch + 1), v,
            src_expr, [src_expr.aux[0]], {},
            {name: sorted(vals)
             for name, vals in zip(cfg.monitored_outputs, outs)}))
    kernel.steps += 1
    return results


def _step(c: Circuit, s: SymState, cfg: ExploreConfig,
          plan: _StepPlan) -> list[_StepResult]:
    if (plan.kernel is not None and not s.pc
            and all(e.op == "const" for e in s.regs.values())):
        results = _kernel_step(c, s, cfg, plan.kernel)
        if results is not None:
            return results
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
        # Only nodes no older than node can contain it (expr.postorder).
        order = ex.postorder([*nx.values(), *oo.values()], node.eid)
        feasible = extension_check(pc, cfg.limits)
        for guard, replacement in _alternatives(node, cfg.mode):
            guard_s = ex.simplify(guard)
            if not feasible((guard_s,)):
                continue
            out = ex.replace_simplify(order, {node: replacement})
            nx2 = {r: out.get(e, e) for r, e in nx.items()}
            oo2 = {o: out.get(e, e) for o, e in oo.items()}
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
                SymState(regs3, _pinned(pc, concat, v), s.var_epoch + 1),
                v, src_expr, succs[v], oo))
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


def _cone_registers(c: Circuit, roots: list[ex.Expr]) -> set[str]:
    """The registers that roots read, directly or through nets."""
    net_map = {n: e for n, _, e in c.nets}
    regs = c.register_map()
    seen: set[str] = set()
    found: set[str] = set()
    frontier = list(roots)
    while frontier:
        for node in ex.postorder([frontier.pop()]):
            if node.op != "ref" or node.aux[0] in seen:
                continue
            name = node.aux[0]
            seen.add(name)
            if name in net_map:
                frontier.append(net_map[name])
            elif name in regs:
                found.add(name)
    return found


def _prune_soundness_warnings(c: Circuit, spec: StateSpec,
                              plan: _StepPlan) -> list[str]:
    """BFS_PRUNE keys on the projected StateId only; one warning for each
    register outside the spec that feeds the spec registers' next-state
    logic or a monitored output, naming what it feeds."""
    regs = c.register_map()
    cones = [("state-spec logic", [regs[r].next for r in spec.registers])]
    cones += [(f"output {name!r}", [e]) for name, e in plan.outputs]
    feeds: dict[str, list[str]] = {}
    for what, roots in cones:
        for name in sorted(_cone_registers(c, roots) - set(spec.registers)):
            feeds.setdefault(name, []).append(what)
    return [f"register {name!r} outside the state spec feeds "
            f"{', '.join(whats)}; pruning by StateId may under-approximate"
            for name, whats in feeds.items()]


def _warn_once(c: Circuit, cfg: ExploreConfig, text: str) -> None:
    """Log text as a warning unless explore has given it for c under cfg
    already: detect_trojan's stage-3 explorations would repeat stage 1's
    warnings word for word."""
    if any(wc is c and wt == text for wc, wt in cfg._warned):
        return
    cfg._warned.append((c, text))
    log.warning("%s", text)


def _content(s: SymState) -> tuple:
    """Everything _step reads of s: states with equal contents have equal
    successors, projections and behaviors."""
    return (tuple(s.regs.items()), s.pc, s.var_epoch)


def _warn_if_assumptions_cut(cfg: ExploreConfig) -> None:
    """Called when the initial states have no successor: say so when the
    assumptions are why."""
    if cfg.assumes:
        log.warning("the assumptions cut every successor of the initial "
                    "states: %s", "; ".join(ex.pp(a) for a in cfg.assumes))


def _record_behaviors(res: _StepResult, dst: int, cfg: ExploreConfig,
                      rbs: set[Behavior]) -> None:
    succ = res.state
    src_vals = res.src_vals
    for out in cfg.monitored_outputs:
        if res.out_vals is not None:
            rbs.update(Behavior(src_vals[0], dst, out, v)
                       for v in res.out_vals[out])
            continue
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


def explore(c: Circuit, init: list[SymState], cfg: ExploreConfig) -> Metadata:
    """Worklist exploration per the configured mode (see the module
    docstring), recording a Reach Metadata.  Under BFS_PRUNE it warns
    about the registers outside the spec that pruning ignores, and at a
    fixed depth about new states at the final layer; each warning text is
    given once per circuit and config object (_warn_once)."""
    if not init:
        raise DctForgeError("explore needs at least one initial state")
    spec = cfg.state_spec
    plan = _build_plan(c, cfg, kernel=True)
    steps_before = plan.kernel.steps if plan.kernel is not None else 0
    # The prune warnings depend on c and cfg alone, and every exploration
    # of c under cfg gives them first: once any warning for c is
    # recorded, they have been given.
    if (cfg.mode is Mode.BFS_PRUNE
            and not any(wc is c for wc, _ in cfg._warned)):
        for text in _prune_soundness_warnings(c, spec, plan):
            _warn_once(c, cfg, text)

    seen: set[int] = set()
    for s in init:
        seen |= project(s, spec, cfg)
    meta = Metadata(kind=Kind.REACH, rs=set(seen), trans=set(), rbs=set(),
                    sym_states=[])
    # Frontier entries are [state, paths], keyed by content (see "Path
    # counts" in the module docstring).
    entries: dict[tuple, list] = {}
    for s in init:
        entries.setdefault(_content(s), [s, 0])[1] += 1
    frontier = list(entries.values())
    layer = 0
    last_new_layer = 0
    # Layer 0 adds the initial projections.  A layer that adds a StateId
    # keeps a path to it, so the frontier is empty only after a layer
    # that added none.
    layer_added = bool(seen)

    while frontier and (layer_added if cfg.depth is None
                        else layer < cfg.depth):
        layer += 1
        step_results = [(_step(c, st, cfg, plan), paths)
                        for st, paths in frontier]
        meta.paths_explored += sum(paths for _, paths in frontier)
        if layer == 1 and not any(r for r, _ in step_results):
            _warn_if_assumptions_cut(cfg)

        # Under BFS_PRUNE every kept successor has a new StateId, so no
        # two of them share content and nothing merges.
        merged: dict[tuple, list] = {}
        kept_entries: list[list] = []
        layer_added = False
        for results, paths in step_results:
            for res in results:
                succ, dst = res.state, res.dst
                meta.rs.add(dst)
                _record_behaviors(res, dst, cfg, meta.rbs)
                new = dst not in seen
                layer_added |= new
                kept = paths
                if cfg.mode is Mode.BFS_PRUNE:
                    # The paths of one entry reach the same StateId: one
                    # of them keeps a new one, the others are pruned.
                    kept = 1 if new else 0
                    if paths > kept:
                        meta.paths_pruned += paths - kept
                        _log_event(event="path_pruned", layer=layer,
                                   paths=paths - kept, state=[dst])
                    if not kept:
                        continue
                seen.add(dst)
                leaves = frozenset().union(
                    *map(ex.leaf_set, succ.regs.values()))
                succ = dc_replace(succ, pc=live_conjuncts(succ.pc, leaves))
                if cfg.mode is Mode.BFS_PRUNE:
                    kept_entries.append([succ, kept])
                else:
                    merged.setdefault(_content(succ), [succ, 0])[1] += kept
                _log_event(event="path_spawned", layer=layer, paths=kept,
                           state=[dst], pc_conjuncts=len(succ.pc))
        frontier = kept_entries or list(merged.values())
        if layer_added:
            last_new_layer = layer

    if cfg.depth is None:
        meta.discovered_diameter = last_new_layer
    else:
        meta.depth_converged = not layer_added
        if layer_added:
            _warn_once(c, cfg, f"new states appeared at the final layer "
                       f"{layer}; increase depth or use fixpoint mode")
    kernel_steps = (plan.kernel.steps - steps_before
                    if plan.kernel is not None else 0)
    _log_event(event="explore_done", layers=layer,
               paths=meta.paths_explored, pruned=meta.paths_pruned,
               kernel_steps=kernel_steps)
    return meta


def symbolic_step(c: Circuit, cfg: ExploreConfig
                  ) -> tuple[Metadata, dict[int, list[SymState]]]:
    """One BFS step from symbolic_state(c, cfg.state_spec), whatever
    cfg.mode: stage 2 of detect.  Returns its States Metadata (each
    result's sources times its destination as trans, and the successors
    in step order with every conjunct of their pc) and the successors
    grouped by the StateId their step pinned, in step order."""
    results = _step(c, symbolic_state(c, cfg.state_spec),
                    dc_replace(cfg, mode=Mode.BFS), _build_plan(c, cfg))
    if not results:
        _warn_if_assumptions_cut(cfg)
    meta = Metadata(kind=Kind.STATES, rs=set(), trans=set(), rbs=set(),
                    sym_states=[res.state for res in results],
                    paths_explored=1)
    by_state: dict[int, list[SymState]] = {}
    for res in results:
        meta.trans.update((s1, res.dst) for s1 in res.src_vals)
        by_state.setdefault(res.dst, []).append(res.state)
    return meta, by_state
