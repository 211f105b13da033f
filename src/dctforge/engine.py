"""Bounded symbolic execution over circuits, one clock cycle at a time.

Every cycle injects fresh symbolic variables for the circuit inputs, then
evaluates nets, outputs, and register next-state expressions under
synchronous semantics.  Each circuit has one step plan per config
object, built on first use and kept on the config (_plan): the nets in
topological order, then the register next-state expressions, then the
monitored outputs, as one node order (and the nets then the assumptions
as a second one, evaluated after the edge).  A cycle is one fused
substitute-and-simplify pass over that order (expr.substitute_simplify),
which builds each node already simplified.

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
or one CDCL encoding, instead of once per destination.  When the
symbolic step's whole support fits one truth table, the table step
answers every one of its queries from that table instead (see
"Concrete steps").

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
Every mode keeps this one frontier.  Under BFS_PRUNE a successor with a
new StateId keeps one path and the others count as pruned; the kept
successors of one layer have distinct StateIds, so they never share
content, and only the initial states merge.

Concrete steps: a state whose registers are all constants and whose pc
is empty (in an exploration), and symbolic_step's fully symbolic state
(_fully_symbolic), are stepped without the solver when the config has
no assumptions and every monitored output is at most
solve.ALL_VALUES_WIDTH_CAP bits wide (no spec is wider: STATE_WIDTH_CAP).
One rule: the cached plan (_plan) of such a config carries the table
step, and a split-free plan that reads at most KERNEL_INPUT_BITS input
bits carries the kernel as well, which _step tries first on a constant
state.  _build_plan's plan, which the tests' references step, carries
neither.  Each answers exactly what the solver's step would.  The
kernel falls back to the table, and the table to the solver's step,
wherever one of that step's queries could raise: more destinations than
value_cap on a branch, more sources than value_cap on one destination,
more results than path_cap, or more than value_cap values of an output
on one destination.  So every CapExceeded, PathExplosion and
WidthMismatch comes from the solver's step.  step_cycle steps with
neither (its successors keep their whole pc).

* Kernel: when the plan holds no Case or Mux node (so a step has
  exactly one branch) and reads at most KERNEL_INPUT_BITS input bits.
  The kernel (kernel.Kernel) is built on first use: one truth table of
  the registers and live inputs when they total at most TABLE_BITS
  bits, else a compiled Python function.  It lives as long as the
  plan, so detect_trojan's later stages reuse stage 1's.  A step groups
  the live input assignments by next StateId, in ascending order: each
  group is one successor, with its spec registers decoded from the
  StateId, every other register at its one next value, an empty pc,
  the source StateId, and each monitored output's values, which
  _record_behaviors takes as they are.  Under PARTIAL only the smallest
  StateId is kept, as min_value would pick.  It also falls back when a
  destination has more than one valuation of the registers outside the
  spec.  With one branch, the solver's successors are the distinct next
  StateIds, and the live-conjunct trim leaves their pc empty whenever
  their registers are constants, so the kernel changes no answer.  It
  is kept beside the table: without it the gate-level benchmark takes
  about twice as long, mostly in substitute_simplify.
* Table (_table_step): every plan, when the leaves of the simplified
  cycle's spec next-state expressions and monitored outputs have at most
  solve.TABLE_BITS input bits (read at step time, so TABLE_BITS = -1
  turns it off).  The split worklist (_resolve) runs as for the solver,
  over the same simplified cycle and the same replace_simplify walks, so
  it meets the same split nodes; only feasibility is decided otherwise.
  Each branch carries a row mask of one truth table of the cycle's
  inputs (cnf.PlaneEncoder): an alternative, in _arms' order, takes the
  branch's rows where the scrutinee's planes select it, and is feasible
  when it takes any.  The registers are constants, so the solver's pc
  of a branch is its guards over this cycle's inputs alone, and "pc plus
  this guard is satisfiable" is "some row of the branch satisfies the
  guard": the two walks keep the same branches, in the same order.  A
  resolved branch's destinations are the values the planes of its spec
  next-state expressions take on its rows (ascending; the smallest under
  PARTIAL, as min_value), and each output's values on a destination are
  those its planes take on that destination's rows, as all_values finds
  them under the pinned pc.  The split nodes must come from the
  simplified cycle: simplification can fold a Mux away (`(in ? s : 0) &
  0` from s = 0), and a replay of the plan's arms would then split where
  the solver does not.  Guards are built only for a successor that
  keeps a symbolic register, as the solver built them (the whole pc, its
  pin included); an all-constant successor gets an empty pc, which is
  what the live-conjunct trim leaves of the solver's.

  From the fully symbolic state (stage 2) the table holds the leaves of
  the spec next-state expressions and of the source concatenation
  src_expr: the registers the spec logic reads, as step -1 variables,
  and the cycle's inputs, at most solve.TABLE_BITS bits in all.  The pc
  is empty, so the solver's pc of a branch is again its guards, now over
  those registers and inputs.  Every query of the solver's step (each
  guard's group check, a branch's transitions query, all_values of
  src_expr under a constant destination) has its support inside the
  table, so "satisfiable" is "some row", and the pairs transitions
  enumerates are the values that the source planes and then the
  destination planes take on the branch's rows, from one
  PlaneEncoder.split in that order.  Grouped by destination, ascending
  (only the smallest under PARTIAL, as min_value), each with its
  sources ascending, they are the solver's successors, and each
  successor's pc is the solver's: s.pc, the simplified guard of
  each alternative taken (each built once per step, and only when
  taken) and the pin (_pinned).  No output is sampled, since stage 2
  records no behavior; the successors keep their output expressions.
  A kernel built on a table holds them already (Kernel.pairs): one
  branch, and the projection of its planes onto (spec registers, next
  StateId).  The states of stage 3 with symbolic registers stay on the
  solver path: their pc is not empty, and the answers memo replays the
  queries their steps repeat across layers, which a table would
  rebuild at every step.

Replayed steps: an analysis keeps one step memo (Yang, Pasareanu &
Khurshid, "Memoized symbolic execution", ISSTA 2012).  Keyed on every
register's value, in register order, of a state with constant registers
and an empty pc, it holds that state's kernel or table step, which _step
replays with var_epoch + 1.  A step is stored only when every successor
has constant registers and an empty pc (nothing in it then depends on
the epoch), never from the solver path.  detect_trojan shares one memo
across stages 1 and 3, since stage 3 starts in RS: the clean RTL counter
w=9 at fixpoint replays all 1,527 stage-3 steps.  explore makes one per
call under BFS or PARTIAL (counter.snl to depth 40 computes 8 of its 292
steps and replays 284), and none under BFS_PRUNE, which steps no
valuation twice.

Depth may be an explicit cycle count or FIXPOINT, which runs until a
layer discovers no new StateId (that closing layer also guarantees every
state contributes outgoing behaviors) and reports the discovered
diameter.
"""

from __future__ import annotations

import itertools
import json
import logging
from collections import Counter, deque
from dataclasses import dataclass, field, replace as dc_replace
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from . import expr as ex
from . import solve
from .circuit import (Circuit, StateSpec, decode_state, net_topo_order,
                      state_concat_expr)
from .cnf import PlaneEncoder
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
# a plan that reads more is stepped on the table or by the solver (see
# "Concrete steps" in the module docstring).
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
    # (circuit, _StepPlan) per circuit stepped under this config object
    # (_plan); a replaced config starts empty.
    _plans: list = field(default_factory=list, init=False,
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
    # Each monitored output's values on this step, when the kernel or
    # the table computed them (out_exprs is then empty).
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


def _arms(node: ex.Expr, mode: Mode) -> list[tuple[int | None, ex.Expr]]:
    """(key, replacement) pairs for one Case/Mux node, in the order the
    scheduler should try them: a Case arm has its key and the default
    None; a Mux's then-arm has key 1 and its else-arm key 0, the values
    of the condition that select them, else-arm first under PARTIAL."""
    if node.op == "mux":
        pairs: list[tuple[int | None, ex.Expr]] = [(1, node.args[1]),
                                                   (0, node.args[2])]
        if mode is Mode.PARTIAL:
            pairs.reverse()
        return pairs
    arms = sorted(zip(node.aux, node.args[1:-1]), key=lambda kv: kv[0])
    return [*arms, (None, node.args[-1])]


def _guard(node: ex.Expr, key: int | None) -> ex.Expr:
    """The condition under which a Case/Mux node takes its alternative
    with key (_arms)."""
    scrut = node.args[0]
    if node.op == "mux":
        return scrut if key else ex.not_(scrut)
    if key is not None:
        return ex.eq(scrut, ex.const(scrut.width, key))
    return ex.and_all([ex.ne(scrut, ex.const(scrut.width, k))
                       for k in sorted(node.aux)])


def _alternatives(node: ex.Expr, mode: Mode) -> list[tuple[ex.Expr, ex.Expr]]:
    """(guard, replacement) pairs for one Case/Mux node, in _arms' order."""
    return [(_guard(node, key), arm) for key, arm in _arms(node, mode)]


# A branch of the split worklist: whatever a path carries through its
# splits (its pc, or its rows of a truth table and the splits it took).
_Branch = object
_Arms = Callable[[ex.Expr, _Branch], Iterator[tuple[ex.Expr, _Branch]]]


def _resolve(spec: StateSpec, mode: Mode, next_exprs: dict[str, ex.Expr],
             outs: dict[str, ex.Expr], branch: _Branch, arms: _Arms
             ) -> list[tuple[dict[str, ex.Expr], dict[str, ex.Expr],
                             _Branch]]:
    """Split on the Case/Mux controls of the spec registers' next-state
    logic until none is left: each resolved branch's next-state
    expressions, outputs and branch, in worklist order.  arms(node, b)
    yields (replacement, branch) for each alternative of node feasible
    on b, in _arms' order; under PARTIAL only the first is taken."""
    worklist = deque([(next_exprs, outs, branch)])
    resolved = []
    while worklist:
        nx, oo, b = worklist.popleft()
        node = _first_split_node([nx[r] for r in spec.registers])
        if node is None:
            resolved.append((nx, oo, b))
            continue
        # Only nodes no older than node can contain it (expr.postorder).
        order = ex.postorder([*nx.values(), *oo.values()], node.eid)
        for replacement, b2 in arms(node, b):
            out = ex.replace_simplify(order, {node: replacement})
            nx2 = {r: out.get(e, e) for r, e in nx.items()}
            oo2 = {o: out.get(e, e) for o, e in oo.items()}
            worklist.append((nx2, oo2, b2))
            if mode is Mode.PARTIAL:
                break
    return resolved


def _guarded_arms(cfg: ExploreConfig) -> _Arms:
    """arms for _resolve over path constraints: an alternative is feasible
    when its simplified guard extends the branch's pc, which it joins.
    The guards of one node share one slice of pc (extension_check)."""
    def arms(node: ex.Expr, pc: tuple[ex.Expr, ...]):
        feasible = extension_check(pc, cfg.limits)
        for guard, replacement in _alternatives(node, cfg.mode):
            guard_s = ex.simplify(guard)
            if feasible((guard_s,)):
                yield replacement, pc + (guard_s,)
    return arms


@dataclass(frozen=True)
class _StepPlan:
    """What every cycle of one exploration evaluates, in one node order.

    `order` holds every node of the nets (in net topological order), then
    of the register next-state expressions, then of the monitored
    outputs, each once with children first; `assume_order` holds the
    nets and then the assumptions.  A net's Ref resolves through `links`
    to the result of that net's expression, so one substitute_simplify
    walk evaluates a whole cycle.  A plan kept by _plan also carries the
    table flag and, on a split-free plan, the kernel ("Concrete steps"),
    the BFS_PRUNE warnings, the warning texts given and its concrete step
    counts."""
    order: tuple[ex.Expr, ...]
    assume_order: tuple[ex.Expr, ...]
    links: dict[str, ex.Expr]
    outputs: tuple[tuple[str, ex.Expr], ...]
    # Tried first on constant states; the table answers where it falls
    # back.  Built on a table, it holds stage 2's pairs too.
    kernel: Kernel | None = None
    # Whether constant states and the fully symbolic state are stepped
    # on a truth table (_table_step).
    table: bool = False
    prune_warnings: tuple[str, ...] = ()
    warned: set[str] = field(default_factory=set, compare=False)
    # The steps the kernel and the table answered, under "kernel" and
    # "table", and those replayed from a step memo, under "memo".
    steps: Counter = field(default_factory=Counter, compare=False)


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


def _build_plan(c: Circuit, cfg: ExploreConfig) -> _StepPlan:
    """The step plan of c under cfg, built anew, with no kernel."""
    nets = [e for _, _, e in net_topo_order(c)]
    outputs = monitored_exprs(c, cfg.monitored_outputs)
    order = _node_order(nets + [r.next for r in c.registers]
                        + [e for _, e in outputs])
    assume_order = _node_order(nets + list(cfg.assumes)) if cfg.assumes else ()
    return _StepPlan(order, assume_order, {n: e for n, _, e in c.nets},
                     tuple(outputs))


def _plan(c: Circuit, cfg: ExploreConfig) -> _StepPlan:
    """The step plan of c under cfg with its table flag and its kernel,
    when they qualify for a concrete step ("Concrete steps"), and
    BFS_PRUNE warnings: built on the first call, kept on cfg."""
    for cached, plan in cfg._plans:
        if cached is c:
            return plan
    plan = _build_plan(c, cfg)
    if not cfg.assumes and all(e.width <= ALL_VALUES_WIDTH_CAP
                               for _, e in plan.outputs):
        plan = dc_replace(plan, table=True)
        live = _kernel_inputs(c, plan)
        if live is not None:
            from .kernel import Kernel  # only now: see kernel.py's docstring
            plan = dc_replace(plan, kernel=Kernel(
                c, cfg.state_spec, plan.outputs, plan.order, plan.links,
                live))
    if cfg.mode is Mode.BFS_PRUNE:
        plan = dc_replace(plan, prune_warnings=tuple(
            _prune_soundness_warnings(c, cfg.state_spec, plan)))
    cfg._plans.append((c, plan))
    return plan


def _kernel_inputs(c: Circuit,
                   plan: _StepPlan) -> list[tuple[str, int]] | None:
    """The live inputs of plan, the inputs it reads, when it qualifies for
    a concrete kernel; None when the plan splits (a Case or Mux node) or
    reads more than KERNEL_INPUT_BITS input bits."""
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
    when _step has to take the table step instead: a destination with
    more than one valuation of the registers outside the spec, more
    destinations than the value or path cap, or an output with more than
    value_cap values on one destination."""
    by_dst = kernel.step({name: e.aux[0] for name, e in s.regs.items()})
    dsts = sorted(by_dst)
    if cfg.mode is Mode.PARTIAL:
        dsts = dsts[:1]
    if len(dsts) > min(cfg.value_cap, cfg.path_cap):
        return None
    spec = cfg.state_spec
    src_expr = ex.simplify(state_concat_expr(spec, dict(s.regs)))
    regs = c.register_map()
    results = []
    for v in dsts:
        others, outs = by_dst[v]
        if len(others) > 1 or any(len(vals) > cfg.value_cap
                                  for vals in outs):
            return None
        nx = {name: ex.const(regs[name].width, u)
              for name, u in zip(kernel.others, others.pop())}
        results.append(_StepResult(
            SymState(_next_regs(c, spec, v, nx), (), s.var_epoch + 1), v,
            src_expr, [src_expr.aux[0]], {},
            {name: sorted(vals)
             for name, vals in zip(cfg.monitored_outputs, outs)}))
    return results


def _next_regs(c: Circuit, spec: StateSpec, v: int,
               others: Mapping[str, ex.Expr]) -> dict[str, ex.Expr]:
    """A successor's registers: the spec registers at their slices of its
    StateId v, and every other register at its expression in others."""
    slices = decode_state(c, spec, v)
    return {r.name: (ex.const(r.width, slices[r.name])
                     if r.name in slices else others[r.name])
            for r in c.registers}


def _fully_symbolic(s: SymState) -> bool:
    """Is s symbolic_state's: every register its own step -1 variable,
    and an empty pc?"""
    return not s.pc and all(e.op == "var" and e.aux == (name, -1)
                            for name, e in s.regs.items())


def _table_step(c: Circuit, s: SymState, cfg: ExploreConfig,
                cycle: _Cycle, kernel: Kernel | None = None
                ) -> list[_StepResult] | None:
    """_step from a constant state with an empty pc, or from the fully
    symbolic state, with no assumptions, on one truth table of what the
    cycle reads (see "Concrete steps" in the module docstring); None when
    _step has to ask the solver instead: more than solve.TABLE_BITS
    support bits, a value_cap below 1, more destinations than value_cap
    on one branch, more sources than value_cap on one destination, more
    results than path_cap, or an output with more than value_cap values
    on one destination."""
    next_exprs, outs, _ = cycle
    spec = cfg.state_spec
    src_expr = ex.simplify(state_concat_expr(spec, dict(s.regs)))
    # The symbolic state's step pairs each destination with its sources
    # and samples no output; a constant state's has one source.
    symbolic = src_expr.op != "const"
    pairs = kernel.pairs() if symbolic and kernel is not None else None
    # A constant state's table over every input of c is as exact as one
    # over the leaves alone, and needs no walk to find them.  The
    # symbolic state's holds the leaves of its spec logic and of
    # src_expr: the registers they read and the cycle's inputs.
    n = sum(w for _, w in c.inputs) if pairs is None else kernel.bits
    if pairs is None and (symbolic or n > solve.TABLE_BITS):
        roots = [next_exprs[r] for r in spec.registers]
        roots += [src_expr] if symbolic else list(outs.values())
        n = sum(leaf.width
                for leaf in frozenset().union(*map(ex.leaf_set, roots)))
    if n > solve.TABLE_BITS or cfg.value_cap < 1:
        return None
    enc = PlaneEncoder(n) if pairs is None else None
    # No plane takes more values than the table has rows.
    cap = min(cfg.value_cap, 1 << n)

    def arms(node: ex.Expr, branch: tuple[int, tuple]):
        # An alternative takes the rows where the scrutinee selects it;
        # the branch keeps its rows and the (node, alternative) it took.
        rows, taken = branch
        (scrut,) = enc.bits(node.args[0])
        rest = rows
        for key, replacement in _arms(node, cfg.mode):
            if key is None:
                sel = rest
            else:
                sel = rows & enc.eq_const(scrut, key)
                rest &= ~sel
            if sel:
                yield replacement, (sel, taken + ((node, key),))

    def planes(es: list[ex.Expr]) -> list[int]:
        """The planes of the concatenation of es, most significant first."""
        return [p for bits in enc.bits(*es) for p in reversed(bits)]

    def values(es: list[ex.Expr], rows: int,
               limit: int) -> list[tuple[int, int]]:
        """(value, its rows) for the first `limit` values, ascending, that
        the concatenation of es takes on rows."""
        if all(e.op == "const" for e in es):
            v = 0
            for e in es:
                v = v << e.width | e.aux[0]
            return [(v, rows)]
        return list(itertools.islice(enc.split(planes(es), rows), limit))

    def sourced(es: list[ex.Expr], rows: int
                ) -> list[tuple[int, list[int]]] | None:
        """(destination, its sources, ascending) from the symbolic state
        for each destination that the concatenation of es takes on rows,
        ascending, and only the smallest under PARTIAL; None when more
        than cap destinations, or more than cap sources of one, exist."""
        # One split over the source planes and then the destination
        # planes, the pairs in transitions' order, grouped by destination:
        # each destination's sources come ascending.
        width = sum(e.width for e in es)
        by_dst: dict[int, list[int]] = {}
        for pair, _ in (enc.split(planes([src_expr, *es]), rows)
                        if pairs is None else pairs):
            by_dst.setdefault(pair & ex.mask(width), []).append(pair >> width)
        succs = sorted(by_dst.items())
        if cfg.mode is Mode.PARTIAL:
            succs = succs[:1]
        if len(succs) > cap or any(len(srcs) > cap for _, srcs in succs):
            return None
        return succs

    # The simplified guard of each (node, key) taken, built once per step.
    guards: dict[tuple, ex.Expr] = {}

    def branch_pc(taken: tuple) -> tuple[ex.Expr, ...]:
        """s.pc and the guard of each alternative taken: the pc the
        solver's branch carries."""
        pc = s.pc
        for alt in taken:
            if alt not in guards:
                guards[alt] = ex.simplify(_guard(*alt))
            pc += (guards[alt],)
        return pc

    results: list[_StepResult] = []
    # A kernel's plan splits nowhere, so with its pairs no row is read.
    for nx, oo, (rows, taken) in _resolve(spec, cfg.mode, next_exprs, outs,
                                          (enc and enc.ones, ()), arms):
        es = [nx[r] for r in spec.registers]
        if symbolic:
            succs = sourced(es, rows)
            if succs is None:
                return None
        else:
            succs = values(es, rows, 1 if cfg.mode is Mode.PARTIAL
                           else cap + 1)
            if len(succs) > cap:
                return None
        pc = None
        # group is a destination's sources from the symbolic state, and
        # its rows from a constant state, whose one source reaches each.
        for v, group in succs:
            if symbolic:
                srcs, out_vals = group, None
            else:
                srcs, out_vals = [src_expr.aux[0]], {}
                for name, e in oo.items():
                    vals = [u for u, _ in values([e], group, cap + 1)]
                    if len(vals) > cap:
                        return None
                    out_vals[name] = vals
            regs3 = _next_regs(c, spec, v, nx)
            succ_pc: tuple[ex.Expr, ...] = ()
            # An all-constant successor of a constant state has its pc
            # trimmed to nothing, so only the symbolic state's successors
            # and a symbolic register need the pc the solver built.
            if symbolic or any(e.op != "const" for e in regs3.values()):
                if pc is None:
                    pc = branch_pc(taken)
                    concat = ex.simplify(state_concat_expr(spec, nx))
                succ_pc = _pinned(pc, concat, v)
            results.append(_StepResult(
                SymState(regs3, succ_pc, s.var_epoch + 1), v, src_expr,
                srcs, oo if symbolic else {}, out_vals))
        if len(results) > cfg.path_cap:
            return None
    return results


def _step(c: Circuit, s: SymState, cfg: ExploreConfig, plan: _StepPlan,
          memo: dict | None = None) -> list[_StepResult]:
    concrete = not s.pc and all(e.op == "const" for e in s.regs.values())
    key = None
    if concrete and memo is not None:
        key = tuple(s.regs[r.name].aux[0] for r in c.registers)
        stored = memo.get(key)
        if stored is not None:
            plan.steps["memo"] += 1
            return [_StepResult(SymState(r.state.regs, (), s.var_epoch + 1),
                                r.dst, r.src_expr, r.src_vals, r.out_exprs,
                                r.out_vals) for r in stored]
    if concrete and plan.kernel is not None:
        results = _kernel_step(c, s, cfg, plan.kernel)
        if results is not None:
            plan.steps["kernel"] += 1
            return _remember(memo, key, results)
    spec = cfg.state_spec
    cycle = _cycle_exprs(c, s, cfg, plan)
    if cycle is None:
        return []
    if plan.table and (concrete or _fully_symbolic(s)):
        results = _table_step(c, s, cfg, cycle, plan.kernel)
        if results is not None:
            plan.steps["table"] += 1
            return _remember(memo, key, results)
    next_exprs, outs, base_pc = cycle
    src_expr = ex.simplify(state_concat_expr(spec, dict(s.regs)))

    results: list[_StepResult] = []
    for nx, oo, pc in _resolve(spec, cfg.mode, next_exprs, outs, base_pc,
                               _guarded_arms(cfg)):
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
            results.append(_StepResult(
                SymState(_next_regs(c, spec, v, nx), _pinned(pc, concat, v),
                         s.var_epoch + 1), v, src_expr, succs[v], oo))
        if len(results) > cfg.path_cap:
            raise PathExplosion(len(results), cfg.path_cap)
    return results


def _remember(memo: dict | None, key: tuple | None,
              results: list[_StepResult]) -> list[_StepResult]:
    """results, stored in memo under key when every successor has
    constant registers and an empty pc ("Replayed steps")."""
    if key is not None and not any(r.state.pc or any(
            e.op != "const" for e in r.state.regs.values()) for r in results):
        memo[key] = results
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
    satisfiable.  No concrete step: it would drop the guards and the
    pinned StateId from pc."""
    plan = dc_replace(_plan(c, cfg), kernel=None, table=False)
    return [r.state for r in _step(c, s, cfg, plan)]


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


def _warn_once(plan: _StepPlan, text: str) -> None:
    """Log text as a warning unless it was given under plan already:
    detect_trojan's stages would repeat each other's warnings."""
    if text not in plan.warned:
        plan.warned.add(text)
        log.warning("%s", text)


def _content(s: SymState) -> tuple:
    """Everything _step reads of s: states with equal contents have equal
    successors, projections and behaviors."""
    return (tuple(s.regs.items()), s.pc, s.var_epoch)


def _warn_if_assumptions_cut(plan: _StepPlan, cfg: ExploreConfig) -> None:
    """Called when the initial states have no successor: say so when the
    assumptions are why."""
    if cfg.assumes:
        _warn_once(plan, "the assumptions cut every successor of the initial"
                   " states: " + "; ".join(ex.pp(a) for a in cfg.assumes))


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


def explore(c: Circuit, init: list[SymState], cfg: ExploreConfig, *,
            memo: dict | None = None) -> Metadata:
    """Worklist exploration per the configured mode (see the module
    docstring), recording a Reach Metadata.  Under BFS_PRUNE it warns
    about the registers outside the spec that pruning ignores, and at a
    fixed depth about new states at the final layer; each warning text is
    given once per circuit and config object (_warn_once).  memo is the
    analysis's step memo ("Replayed steps"), for explorations of c under
    cfg only; by default a fresh one under BFS and PARTIAL, else none."""
    if not init:
        raise DctForgeError("explore needs at least one initial state")
    if memo is None and cfg.mode is not Mode.BFS_PRUNE:
        memo = {}
    spec = cfg.state_spec
    plan = _plan(c, cfg)
    steps_before = plan.steps.copy()
    for text in plan.prune_warnings:
        _warn_once(plan, text)

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
        step_results = [(_step(c, st, cfg, plan, memo), paths)
                        for st, paths in frontier]
        meta.paths_explored += sum(paths for _, paths in frontier)
        if layer == 1 and not any(r for r, _ in step_results):
            _warn_if_assumptions_cut(plan, cfg)

        merged: dict[tuple, list] = {}
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
                if succ.pc:
                    leaves = frozenset().union(
                        *map(ex.leaf_set, succ.regs.values()))
                    succ = dc_replace(succ,
                                      pc=live_conjuncts(succ.pc, leaves))
                merged.setdefault(_content(succ), [succ, 0])[1] += kept
                _log_event(event="path_spawned", layer=layer, paths=kept,
                           state=[dst], pc_conjuncts=len(succ.pc))
        frontier = list(merged.values())
        if layer_added:
            last_new_layer = layer

    if cfg.depth is None:
        meta.discovered_diameter = last_new_layer
    else:
        meta.depth_converged = not layer_added
        if layer_added:
            _warn_once(plan, f"new states appeared at the final layer "
                       f"{layer}; increase depth or use fixpoint mode")
    steps = plan.steps - steps_before
    _log_event(event="explore_done", layers=layer,
               paths=meta.paths_explored, pruned=meta.paths_pruned,
               kernel_steps=steps["kernel"], table_steps=steps["table"],
               memo_steps=steps["memo"])
    return meta


def symbolic_step(c: Circuit, cfg: ExploreConfig
                  ) -> tuple[Metadata, dict[int, list[SymState]]]:
    """One BFS step from symbolic_state(c, cfg.state_spec), whatever
    cfg.mode: stage 2 of detect.  Returns its States Metadata (each
    result's sources times its destination as trans, and the successors
    in step order with every conjunct of their pc) and the successors
    grouped by the StateId their step pinned, in step order."""
    plan = _plan(c, cfg)
    table_steps = plan.steps["table"]
    results = _step(c, symbolic_state(c, cfg.state_spec),
                    dc_replace(cfg, mode=Mode.BFS), plan)
    _log_event(event="symbolic_step_done", successors=len(results),
               table=plan.steps["table"] > table_steps)
    if not results:
        _warn_if_assumptions_cut(plan, cfg)
    meta = Metadata(kind=Kind.STATES, rs=set(), trans=set(), rbs=set(),
                    sym_states=[res.state for res in results],
                    paths_explored=1)
    by_state: dict[int, list[SymState]] = {}
    for res in results:
        meta.trans.update((s1, res.dst) for s1 in res.src_vals)
        by_state.setdefault(res.dst, []).append(res.state)
    return meta, by_state
