"""Query layer on top of the encoder and the CDCL core.

A path constraint is a tuple of width-1 expressions understood as a
conjunction.  Every query is answered by one loop, _solutions, which
enumerates the assignments of a tuple of expressions' bits under a
conjunction.  The bits are decided in a fixed order, each expression's
most significant first and 0 first, so the tuples come in ascending
order.  A query whose support (the summed widths of the distinct
leaves of its expressions and conjuncts) is at most TABLE_BITS is
answered from a truth table, as equivalence checkers settle what they
can by simulating every assignment of the circuit they would otherwise
encode (Mishchenko, Chatterjee, Brayton & Een, "Improvements to
combinational equivalence checking", ICCAD 2006).  cnf.py holds one
circuit per operator, over CNF literals or over bit planes: here
cnf.PlaneEncoder runs it with each expression bit as one int with one
bit per assignment of the support, the conjuncts AND into one mask of
rows, and splitting that mask on the expressions' bits in the order
above yields the tuples, lazily.  Any other query is encoded by
cnf.Encoder, loaded into one solver and enumerated on it
(Solver.enumerate): after each model the search flips
its last projection decision instead of adding a blocking clause, so
each tuple costs about one model's search, however many came before,
and learnt clauses carry over from one tuple to the next.  Both give
the same tuples in the same order.  all_values enumerates
every feasible value of one expression under a path constraint, and
min_value takes the first, the smallest, and stops.  transitions
enumerates pairs of a source and a destination, and returns every
destination with the set of sources that reach it.  A satisfiability
check is the loop over no expression: it yields the empty tuple once or
not at all.  pc_sat asks it of every group of a path constraint, and
extends asks it once for the exploration's one feasibility question:
whether a satisfiable path constraint stays satisfiable with new
conjuncts added; extension_check asks it for many new conjuncts over
one path constraint, slicing that path constraint once per distinct
leaf set.  live_conjuncts keeps of a satisfiable path constraint only
the slice around a set of leaves; the exploration uses it to drop the
groups no register can reach again.

Every query is sliced by constraint independence, as in KLEE.
_partition is one union-find over the simplified conjuncts and the
leaves a query touches: the conjuncts linked to those leaves, directly
or through other conjuncts, are the related slice, and the rest fall
into independent groups that share no variable with it or with each
other.  _query, the one prologue of all_values, transitions, min_value
and pc_sat, partitions the path constraint on the leaves of the query's
expressions (none, for pc_sat) and checks that every group of the rest
is satisfiable; only the related slice is encoded with the
expressions.  extends slices around the new
conjuncts and checks that one group: its caller guarantees the old path
constraint is satisfiable, so the rest is too.

One memo on the SolverLimits object, answers, holds every complete
answer of _solutions under the tuple of its simplified expressions and
the frozenset of its conjuncts; those fix the answer, however many
unrelated conjuncts the path constraint has gained since.  A group check
stores [()] or [] there, so every query kind shares the group answers.
The list of value tuples is stored only when the loop ran to its end
(the enumeration found no further tuple, or the expressions have no
non-constant bit); a consumer that stops early, with CapExceeded or as
min_value does after its first tuple, stores nothing.  A group check's
key is matched modulo an epoch shift: each cycle brings fresh input
variables one step later, so a group often repeats an earlier one with
every variable's step moved by one constant.  When a group check's
exact key misses, _solutions looks it up again in its epoch normal form
(expr.epoch_normal_form; a group holding a step -1 or step 0 variable
is its own), and stores its answer under both keys.  Renaming variables
injectively, width for width, changes no answer.  Enumerations are
looked up by their exact key only: on the benchmark workloads their
shifted keys never hit.  A later query whose key is stored replays the
list and solves nothing, so it writes no dump and logs no solver_stats
event.
The memo lives as long as its SolverLimits: one per ExploreConfig,
shared by every stage and analysis run with that config; a call given
no limits gets a fresh one.  Sharing is exact, because a key fixes its
answer.

Every tuple found, and the step that finds none, is one step of an
enumeration; min_value's own enumeration takes one step.  Each step
writes the query's formula to the dumper, if any, and logs a
solver_stats debug event under the same label: the label of the query
that needed it.  A step's dump adds a clause excluding each tuple found
before it, so it asks that step's question; those clauses are built
only for the dumper.  A table-answered query writes the same dumps and
events as its solver would, from the formula encoded for them alone,
so a dumper or debug logging changes no answer.  The conflict budget
and the clause cap bound the CDCL queries only: a table-answered query
never runs out of either.  A conflict budget running out raises
ResourceOut from every query that reaches the solver; it is never read
as infeasible, and never memoised, so the next query solves that group
or enumeration again.  Results
depend only on the query structure, never on CNF variable numbering,
and every enumeration yields its tuples in ascending order, so reports
built from them are reproducible across runs.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from typing import Callable, Collection, Iterable, Iterator, Sequence

from . import expr as ex
from .cnf import DEFAULT_CLAUSE_CAP, CnfFormula, Encoder, PlaneEncoder
from .errors import CapExceeded, ResourceOut, WidthMismatch
# No query calls check_sat; it stays importable as solve.check_sat, the
# name perfbench/tracing.py wraps.
from .sat import DEFAULT_CONFLICT_LIMIT, SatOutcome, Solver, check_sat

log = logging.getLogger("dctforge.solve")

__all__ = ["SolverLimits", "CnfDumper", "pc_sat", "extends",
           "extension_check",
           "live_conjuncts", "all_values", "transitions", "min_value",
           "DEFAULT_VALUE_CAP"]

DEFAULT_VALUE_CAP = 64
ALL_VALUES_WIDTH_CAP = 24
# The most support bits a query may have and still be answered from a
# truth table rather than by CDCL (see the module docstring).  A table
# holds 2^TABLE_BITS bits per node bit: at 12 bits that is less than a
# node's CNF clauses and solver state take, and more above.
TABLE_BITS = 12


class SolverLimits:
    """The budgets of every CDCL query made with it (a table-answered
    query needs none), the dumper for every query, and the one memo
    those queries share.  answers maps a query's key, the tuple of
    its simplified expressions (empty for a satisfiability check) and the
    frozenset of its conjuncts, to the list of value tuples its complete
    enumeration yielded: [()] or [] for a satisfiable or unsatisfiable
    group.  A group check's key is matched modulo an epoch shift (see
    the module docstring), and a query answered that way, like an exact
    hit, writes no dump and logs no solver_stats event.  The memo holds
    only what a solve settled, never a ResourceOut, and a key fixes its
    answer, so any queries may share one SolverLimits: an ExploreConfig
    carries one, for every stage of every analysis run with that
    config."""

    def __init__(self, conflict_limit: int = DEFAULT_CONFLICT_LIMIT,
                 clause_cap: int = DEFAULT_CLAUSE_CAP,
                 dumper: "CnfDumper | None" = None):
        self.conflict_limit = conflict_limit
        self.clause_cap = clause_cap
        self.dumper = dumper
        self.answers: dict[tuple, list[tuple[int, ...]]] = {}


class CnfDumper:
    """Writes one numbered DIMACS file per solver query into a directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self._counter = 0
        os.makedirs(directory, exist_ok=True)

    def dump(self, formula, label: str) -> None:
        self._counter += 1
        path = os.path.join(self.directory, f"query{self._counter:05d}.cnf")
        with open(path, "w", encoding="utf-8") as f:
            f.write(formula.to_dimacs(comment=label))


def _symbolic_conjuncts(pc: Iterable[ex.Expr]) -> list[ex.Expr] | None:
    """The distinct simplified non-trivial conjuncts in input order, or
    None if one is constant false."""
    out = []
    for c in pc:
        if c.width != 1:
            raise WidthMismatch(
                f"path-constraint conjunct must be 1 bit wide, got {c.width}")
        s = ex.simplify(c)
        if s.op == "const":
            if s.aux[0] == 0:
                return None
            continue
        out.append(s)
    return list(dict.fromkeys(out))


def _partition(leaves: frozenset, conjuncts: list[ex.Expr]
               ) -> tuple[list[ex.Expr], list[list[ex.Expr]]]:
    """(related, rest_groups): the conjuncts that share a leaf with
    leaves, directly or through other conjuncts, and the others split
    into groups that share no leaf, not even through other conjuncts.
    One union-find over the conjuncts and the query (index n, linked to
    every conjunct that touches leaves).  related keeps the order of
    conjuncts; groups are in order of their first conjunct, and members
    keep that order too."""
    n = len(conjuncts)
    parent = list(range(n + 1))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[ex.Expr, int] = dict.fromkeys(leaves, n)
    for i, c in enumerate(conjuncts):
        for leaf in ex.leaf_set(c):
            ri, rj = find(i), find(owner.setdefault(leaf, i))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    query = find(n)
    related: list[ex.Expr] = []
    groups: dict[int, list[ex.Expr]] = {}
    for i, c in enumerate(conjuncts):
        root = find(i)
        if root == query:
            related.append(c)
        else:
            groups.setdefault(root, []).append(c)
    return related, list(groups.values())


def live_conjuncts(pc: Iterable[ex.Expr],
                   leaves: frozenset) -> tuple[ex.Expr, ...]:
    """The simplified conjuncts of pc linked to leaves through shared
    leaves, directly or through other conjuncts, in pc's order: the
    related slice every query around those leaves would take.

    Precondition: pc is satisfiable.  The conjuncts left out form groups
    that share no leaf with leaves or with the kept ones, so they are
    satisfiable on their own and no query over leaves and fresh
    variables can ever slice them in."""
    conjuncts = _symbolic_conjuncts(pc)
    if conjuncts is None:
        return (ex.const(1, 0),)
    related, _ = _partition(leaves, conjuncts)
    return tuple(related)


def _exclusion(bits: Sequence[list[int]], values: tuple[int, ...]) -> list[int]:
    """The clause over the non-constant bits that excludes values."""
    return [-lit if (v >> i) & 1 else lit
            for b, v in zip(bits, values)
            for i, lit in enumerate(b) if abs(lit) != 1]


# A step of an enumeration: the outcome of its solve, and the tuple of
# values it found (None unless the outcome is Sat).
_Step = tuple[SatOutcome, "tuple[int, ...] | None"]
_TABLE_SAT, _TABLE_UNSAT = SatOutcome("sat"), SatOutcome("unsat")


def _step(steps: Iterator[_Step], formula: CnfFormula | None,
          limits: SolverLimits, label: str, bits: Sequence[list[int]],
          found: Collection[tuple[int, ...]]) -> tuple[int, ...] | None:
    """The next tuple of steps, an enumeration of formula's models, which
    excludes every tuple of values of bits in found, or None when no
    tuple is left; it raises ResourceOut when the solver ran out of
    budget.  The query goes to the dumper (each exclusion a clause) and
    to a solver_stats debug event, both under label.  formula is None
    only for a table-answered query with neither a dumper nor debug
    logging, which has nothing to write."""
    if limits.dumper is not None:
        limits.dumper.dump(
            CnfFormula(formula.num_vars, formula.clauses
                       + [_exclusion(bits, values) for values in found]),
            label)
    outcome, values = next(steps)
    if formula is not None and log.isEnabledFor(logging.DEBUG):
        log.debug(json.dumps({"event": "solver_stats", "label": label,
                              "vars": formula.num_vars,
                              "clauses": len(formula.clauses) + len(found),
                              "status": outcome.status}, sort_keys=True))
    if not outcome.is_sat and not outcome.is_unsat:
        raise ResourceOut(outcome.limit_name)
    return values


def _encoded(es: Sequence[ex.Expr], related: list[ex.Expr],
             clause_cap: int) -> tuple[CnfFormula, list[list[int]]]:
    """(formula, bits): related asserted and every expression of es
    encoded, and the literals of each expression's bits."""
    enc = Encoder(clause_cap)
    # Each conjunct's unit clause follows its gates: dumps keep their order.
    for c in related:
        enc.assert_lit(enc.bits(c)[0][0])
    bits = enc.bits(*es)
    return enc.to_formula(), bits


def _loaded(es: Sequence[ex.Expr], related: list[ex.Expr],
            limits: SolverLimits):
    """(formula, solver, bits): the query's formula (for dumps), one
    solver loaded with it, and the literals of each expression's bits."""
    formula, bits = _encoded(es, related, limits.clause_cap)
    solver = Solver(formula.num_vars, limits.conflict_limit)
    for cl in formula.clauses:
        solver.add_clause(cl)
    return formula, solver, bits


def _cdcl_steps(solver: Solver, bits: list[list[int]]) -> Iterator[_Step]:
    """solver's enumeration over the non-constant bits of bits, each
    expression's most significant first."""
    proj = [lit for b in bits for lit in reversed(b) if abs(lit) != 1]
    for outcome in solver.enumerate(proj):
        yield outcome, (tuple(sum(1 << i for i, lit in enumerate(b)
                                  if outcome.lit_value(lit)) for b in bits)
                        if outcome.is_sat else None)


def _table_steps(es: tuple[ex.Expr, ...], related: list[ex.Expr],
                 n: int) -> Iterator[_Step]:
    """The steps Solver.enumerate would take, from a truth table over the
    n support bits of es and related, which cnf.PlaneEncoder evaluates by
    the circuits the CNF encodes: the rows where every conjunct holds are
    split on each expression's bits, most significant first and 0 first,
    so the tuples come lazily and in ascending order."""
    enc = PlaneEncoder(n)
    planes = enc.bits(*related, *es)
    rows = enc.ones
    for (c,) in planes[:len(related)]:
        rows &= c
    proj = [p for bits in planes[len(related):] for p in reversed(bits)]
    for value, _ in enc.split(proj, rows):
        values = []
        for e in reversed(es):
            values.append(value & ex.mask(e.width))
            value >>= e.width
        yield _TABLE_SAT, tuple(reversed(values))
    yield _TABLE_UNSAT, None


def _solutions(es: tuple[ex.Expr, ...], related: list[ex.Expr],
               limits: SolverLimits, label: str):
    """Yield every distinct tuple (v1, ..., vn) such that related and
    every es[i] = vi is satisfiable, in ascending order: each
    expression's bits are decided most significant first and 0 first,
    the expressions in tuple order.  A query over at most TABLE_BITS
    support bits, the summed widths of the leaves of es and related, is
    answered from a truth table (_table_steps); any other from one
    solver's enumeration (Solver.enumerate).

    Each tuple is one step of the enumeration, and so is the step that
    finds no further tuple, unless the expressions have no non-constant
    bit in the query's encoding.  Each step is dumped with a clause
    excluding every tuple found before it, so a dump asks the question
    that step answered; a table-answered query encodes its formula only
    for the dumper and for debug events, with no clause cap.  With es
    empty this is a satisfiability check: it yields () once or not at
    all.  A complete answer is remembered on limits under es and the
    frozenset of related, and, for a satisfiability check, under their
    epoch normal form when it differs; a later query with either key
    replays it without a solve."""
    key = (es, frozenset(related))
    answer = limits.answers.get(key)
    shifted_key = None
    if answer is None and not es:
        normal = ex.epoch_normal_form(related)
        if normal is not related:
            shifted_key = ((), frozenset(normal))
            answer = limits.answers.get(shifted_key)
            if answer is not None:
                limits.answers[key] = answer
    if answer is not None:
        yield from answer
        return
    support = sum(leaf.width for leaf in frozenset().union(
        *map(ex.leaf_set, es), *map(ex.leaf_set, related)))
    if support <= TABLE_BITS:
        formula = bits = None
        if limits.dumper is not None or log.isEnabledFor(logging.DEBUG):
            formula, bits = _encoded(es, related, sys.maxsize)
        steps = _table_steps(es, related, support)
    else:
        formula, solver, bits = _loaded(es, related, limits)
        steps = _cdcl_steps(solver, bits)
    # With no non-constant expression bit the first tuple is the only
    # one, and the loop stops there without a further step.
    single = bits is not None and all(abs(lit) == 1 for b in bits for lit in b)
    found: dict[tuple[int, ...], None] = {}
    while True:
        values = _step(steps, formula, limits, label, bits, found)
        if values is None:
            break
        if values in found:
            raise AssertionError("enumeration repeated a tuple")
        found[values] = None
        yield values
        if single:
            break
    # Reached only when the enumeration ran to its end: a consumer that
    # stops early never resumes the generator past its yield, and a
    # ResourceOut leaves through _step.
    limits.answers[key] = answer = list(found)
    if shifted_key is not None:
        limits.answers[shifted_key] = answer


def _group_sat(group: list[ex.Expr], limits: SolverLimits,
               label: str) -> bool:
    """Is one group of conjuncts satisfiable?  Solved at most once per
    limits."""
    return bool(list(_solutions((), group, limits, label)))


def _query(es: Sequence[ex.Expr], pc: Iterable[ex.Expr],
           limits: SolverLimits, label: str):
    """(simplified es, related slice of pc), or None when pc is
    unsatisfiable.  pc is sliced on the leaves of all of es; each
    independent group of the rest only has to be satisfiable, and is
    checked here under label."""
    conjuncts = _symbolic_conjuncts(pc)
    if conjuncts is None:
        return None
    es = tuple(ex.simplify(e) for e in es)
    related, rest = _partition(frozenset().union(*map(ex.leaf_set, es)),
                               conjuncts)
    if not all(_group_sat(g, limits, label) for g in rest):
        return None
    return es, related


def pc_sat(pc: Iterable[ex.Expr], limits: SolverLimits | None = None) -> bool:
    """Is the conjunction of pc satisfiable?  Each independent group is
    checked on its own."""
    if limits is None:
        limits = SolverLimits()
    return _query((), pc, limits, "pc-sat") is not None


def extension_check(pc: Iterable[ex.Expr],
                    limits: SolverLimits | None = None
                    ) -> Callable[[Iterable[ex.Expr]], bool]:
    """A function new -> extends(pc, new, limits), for asking many new
    conjuncts over one pc: pc is simplified once, and sliced once per
    distinct leaf set of new.  The guards of one Case/Mux split all have
    their scrutinee's leaves, so they share one slice; each guard is
    still its own group check."""
    if limits is None:
        limits = SolverLimits()
    conjuncts = _symbolic_conjuncts(pc)
    slices: dict[frozenset, list[ex.Expr]] = {}

    def check(new: Iterable[ex.Expr]) -> bool:
        added = _symbolic_conjuncts(new)
        if added is None:
            return False
        if not added:
            return True
        if conjuncts is None:
            return False
        leaves = frozenset().union(*map(ex.leaf_set, added))
        related = slices.get(leaves)
        if related is None:
            related = slices[leaves] = _partition(leaves, conjuncts)[0]
        group = list(dict.fromkeys(related + added))
        return _group_sat(group, limits, "step-feasibility")

    return check


def extends(pc: Iterable[ex.Expr], new: Iterable[ex.Expr],
            limits: SolverLimits | None = None) -> bool:
    """Is pc + new satisfiable, given that pc is?

    Precondition: pc is satisfiable; the answer is unspecified otherwise.
    Only the conjuncts of pc linked to new through shared leaves can make
    new infeasible, so they and new are solved as one group, under the
    label step-feasibility; the rest of pc is never encoded."""
    return extension_check(pc, limits)(new)


def _check_width(e: ex.Expr) -> None:
    if e.width > ALL_VALUES_WIDTH_CAP:
        raise WidthMismatch(
            f"all_values needs width <= {ALL_VALUES_WIDTH_CAP}, got {e.width}")


def _enumerate(es: Sequence[ex.Expr], pc: Iterable[ex.Expr],
               limits: SolverLimits, label: str):
    """_solutions of es over the related slice of pc, or nothing when pc
    is unsatisfiable."""
    query = _query(es, pc, limits, label)
    if query is not None:
        yield from _solutions(*query, limits, label)


def all_values(e: ex.Expr, pc: Iterable[ex.Expr], cap: int = DEFAULT_VALUE_CAP,
               limits: SolverLimits | None = None) -> set[int]:
    """Exactly { v : pc and (e = v) is satisfiable }, by enumeration.

    Raises CapExceeded once more than cap distinct values are found.
    """
    _check_width(e)
    if cap < 1:
        raise CapExceeded(cap)
    if limits is None:
        limits = SolverLimits()
    found: set[int] = set()
    for (value,) in _enumerate((e,), pc, limits, "all-values"):
        found.add(value)
        if len(found) > cap:
            raise CapExceeded(cap)
    return found


def transitions(dst: ex.Expr, src: ex.Expr, pc: Iterable[ex.Expr],
                cap: int = DEFAULT_VALUE_CAP,
                limits: SolverLimits | None = None) -> dict[int, set[int]]:
    """{ d: all_values(src, pc + (dst = d)) for d in all_values(dst, pc) },
    from one query that enumerates (d, s) pairs on one solver.

    Raises what those calls would: WidthMismatch when dst or src is too
    wide, CapExceeded when more than cap destinations exist or more than
    cap sources reach one destination.
    """
    _check_width(dst)
    _check_width(src)
    if cap < 1:
        raise CapExceeded(cap)
    if limits is None:
        limits = SolverLimits()
    found: dict[int, set[int]] = {}
    # Source bits first, so that the destination mostly follows by propagation.
    for s, d in _enumerate((src, dst), pc, limits, "transitions"):
        sources = found.setdefault(d, set())
        sources.add(s)
        if len(found) > cap or len(sources) > cap:
            raise CapExceeded(cap)
    return found


def min_value(e: ex.Expr, pc: Iterable[ex.Expr],
              limits: SolverLimits | None = None) -> int | None:
    """Smallest feasible value of e under pc (None when pc is unsat).

    It is the first value of e's enumeration, which decides e's bits
    from the most significant down, 0 first.  The enumeration stops
    there, so nothing is remembered, but a stored all_values answer is
    replayed and its first value taken.
    """
    if limits is None:
        limits = SolverLimits()
    first = next(_enumerate((e,), pc, limits, "min-value"), None)
    return None if first is None else first[0]
