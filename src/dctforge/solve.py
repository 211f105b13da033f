"""Query layer on top of the encoder and the CDCL core.

A path constraint is a tuple of width-1 expressions understood as a
conjunction.  all_values enumerates every feasible value of an expression
under a path constraint: it encodes the query once, builds one solver,
and after each model adds a clause blocking that value to the same
solver, so learnt clauses carry over from one value to the next.
transitions is the same enumeration over a pair of expressions, a
destination and a source: it encodes the path constraint once with both,
blocks each (destination, source) pair it finds, and returns every
destination with the set of sources that reach it.  Both run one loop,
_enumerate, over one or two expressions.  min_value finds the
lexicographically smallest feasible value by pinning bits from the most
significant end down, each pin an assumption on one solver.  pc_model
returns a satisfying assignment of a path constraint (pc_sat is its
boolean form).  extends answers the exploration's one feasibility
question, whether a satisfiable path constraint stays satisfiable with
new conjuncts added, as one sliced query.

Every query is sliced by constraint independence, as in KLEE.  _slice
grows the set of leaves a query touches over the simplified conjuncts
until no further conjunct shares one; the conjuncts it took are the
related slice, the rest share no variable with it.  all_values,
transitions (sliced on the leaves of both expressions) and min_value
encode only the related slice; every independent group of the
rest (a union-find over their leaves) merely has to be satisfiable.
extends slices around the new conjuncts and solves that one group: its
caller guarantees the old path constraint is satisfiable, so the rest
is too.  pc_model solves group by group and returns the union of the
group models.  One model per group, or None when the group is
unsatisfiable, is memoised on the SolverLimits object under the
frozenset of the group's conjuncts, so every query kind shares it.  The
memo lives as long as one analysis; a call given no limits gets a fresh
one, so no memo outlives its caller.

Every solve is solver.solve(assumptions) on a solver loaded with the
query's formula.  Every solver call writes its formula to the dumper, if
any, and logs a solver_stats debug event under the same label: the label
of the query that needed the solve.  A conflict budget running out
raises ResourceOut from every query; it is never read as infeasible, and
never memoised, so the next query solves that group again.  Results
depend only on the query structure, never on CNF variable numbering or
on which model a group's memo holds, so reports built from them are
reproducible across runs.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Iterable, Sequence

from . import expr as ex
from .cnf import DEFAULT_CLAUSE_CAP, CnfFormula, Encoder
from .errors import CapExceeded, ResourceOut, WidthMismatch
# No query calls check_sat; it stays importable as solve.check_sat, the
# name perfbench/tracing.py wraps.
from .sat import DEFAULT_CONFLICT_LIMIT, SatOutcome, Solver, check_sat

log = logging.getLogger("dctforge.solve")

__all__ = ["PathConstraint", "SolverLimits", "CnfDumper", "pc_model",
           "pc_sat", "extends", "all_values", "transitions", "min_value",
           "DEFAULT_VALUE_CAP"]

PathConstraint = tuple  # of width-1 Expr conjuncts

DEFAULT_VALUE_CAP = 64
ALL_VALUES_WIDTH_CAP = 24


class SolverLimits:
    """Budgets and the dumper for every query of one analysis.  It also
    carries that analysis's group memo: models maps the frozenset of
    an independent group of conjuncts to one satisfying assignment of
    it, or to None when the group is unsatisfiable."""

    def __init__(self, conflict_limit: int = DEFAULT_CONFLICT_LIMIT,
                 clause_cap: int = DEFAULT_CLAUSE_CAP,
                 dumper: "CnfDumper | None" = None):
        self.conflict_limit = conflict_limit
        self.clause_cap = clause_cap
        self.dumper = dumper
        self.models: dict[frozenset, dict | None] = {}


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


def _components(conjuncts: list[ex.Expr]) -> list[list[ex.Expr]]:
    """Distinct conjuncts partitioned into groups that share no leaf,
    not even through other conjuncts.  Groups are in order of their first
    conjunct, and members keep their input order."""
    parent = list(range(len(conjuncts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[ex.Expr, int] = {}
    for i, c in enumerate(conjuncts):
        for leaf in ex.leaf_set(c):
            j = owner.setdefault(leaf, i)
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[ex.Expr]] = {}
    for i, c in enumerate(conjuncts):
        groups.setdefault(find(i), []).append(c)
    return list(groups.values())


def _slice(leaves: frozenset, conjuncts: list[ex.Expr]):
    """(related, rest): the conjuncts that share a leaf with leaves,
    directly or through other related conjuncts, and all the others.
    Both keep the order of conjuncts."""
    wanted = set(leaves)
    taken = [False] * len(conjuncts)
    grown = True
    while grown:
        grown = False
        for i, c in enumerate(conjuncts):
            if not taken[i] and not ex.leaf_set(c).isdisjoint(wanted):
                taken[i] = grown = True
                wanted |= ex.leaf_set(c)
    related = [c for c, t in zip(conjuncts, taken) if t]
    rest = [c for c, t in zip(conjuncts, taken) if not t]
    return related, rest


def _raise_if_out(outcome: SatOutcome) -> SatOutcome:
    """outcome itself, unless the solver ran out of budget."""
    if not outcome.is_sat and not outcome.is_unsat:
        raise ResourceOut(outcome.limit_name)
    return outcome


def _solve(formula: CnfFormula, solver: Solver, limits: SolverLimits,
           label: str, assumptions: Sequence[int] = ()):
    """One call of solver, loaded with formula, under assumptions.  The
    query goes to the dumper (assumptions as unit clauses) and to a
    solver_stats debug event, both under label."""
    if limits.dumper is not None:
        dumped = formula
        if assumptions:
            dumped = CnfFormula(formula.num_vars, formula.clauses
                                + [[lit] for lit in assumptions])
        limits.dumper.dump(dumped, label)
    outcome = solver.solve(assumptions)
    if log.isEnabledFor(logging.DEBUG):
        log.debug(json.dumps({"event": "solver_stats", "label": label,
                              "vars": formula.num_vars,
                              "clauses": len(formula.clauses),
                              "assumptions": len(assumptions),
                              "status": outcome.status}, sort_keys=True))
    return _raise_if_out(outcome)


def _encoder(conjuncts: list[ex.Expr], limits: SolverLimits) -> Encoder:
    """An encoder with every conjunct asserted."""
    enc = Encoder(limits.clause_cap)
    for c in conjuncts:
        enc.assert_lit(enc.bits(c)[0])
    return enc


def _query_solver(enc: Encoder, limits: SolverLimits):
    """The encoded query as a formula (for dumps) and one solver loaded
    with it."""
    formula = enc.to_formula()
    solver = Solver(formula.num_vars, limits.conflict_limit)
    for cl in formula.clauses:
        solver.add_clause(cl)
    return formula, solver


def _group_model(group: list[ex.Expr], limits: SolverLimits,
                 label: str) -> dict | None:
    """A satisfying assignment of one group of conjuncts, or None when it
    is unsatisfiable; solved at most once per limits.  A ResourceOut
    propagates and is not remembered."""
    key = frozenset(group)
    if key in limits.models:
        return limits.models[key]
    formula, solver = _query_solver(_encoder(group, limits), limits)
    outcome = _solve(formula, solver, limits, label)
    model = None
    if outcome.is_sat:
        model = {}
        for leaf in frozenset().union(*map(ex.leaf_set, group)):
            if leaf.op == "var":
                model[("var",) + leaf.aux] = sum(
                    1 << i for i in range(leaf.width)
                    if outcome.lit_value(formula.bit_map[(leaf, i)]))
    limits.models[key] = model
    return model


def pc_model(pc: Iterable[ex.Expr],
             limits: SolverLimits | None = None) -> dict | None:
    """A satisfying assignment of the conjunction of pc, or None when it
    is unsatisfiable.  The assignment maps ("var", name, step) to a value
    for every variable of pc's non-constant conjuncts; it is the union of
    one model per independent group."""
    if limits is None:
        limits = SolverLimits()
    conjuncts = _symbolic_conjuncts(pc)
    if conjuncts is None:
        return None
    env: dict = {}
    for group in _components(conjuncts):
        model = _group_model(group, limits, "pc-sat")
        if model is None:
            return None
        env.update(model)
    return env


def pc_sat(pc: Iterable[ex.Expr], limits: SolverLimits | None = None) -> bool:
    """Is the conjunction of pc satisfiable?"""
    return pc_model(pc, limits) is not None


def extends(pc: Iterable[ex.Expr], new: Iterable[ex.Expr],
            limits: SolverLimits | None = None) -> bool:
    """Is pc + new satisfiable, given that pc is?

    Precondition: pc is satisfiable; the answer is unspecified otherwise.
    Only the conjuncts of pc linked to new through shared leaves can make
    new infeasible, so they and new are solved as one group, under the
    label step-feasibility; the rest of pc is never encoded."""
    if limits is None:
        limits = SolverLimits()
    added = _symbolic_conjuncts(new)
    if added is None:
        return False
    if not added:
        return True
    conjuncts = _symbolic_conjuncts(pc)
    if conjuncts is None:
        return False
    related, _ = _slice(frozenset().union(*map(ex.leaf_set, added)),
                        conjuncts)
    group = list(dict.fromkeys(related + added))
    return _group_model(group, limits, "step-feasibility") is not None


def _check_width(e: ex.Expr) -> None:
    if e.width > ALL_VALUES_WIDTH_CAP:
        raise WidthMismatch(
            f"all_values needs width <= {ALL_VALUES_WIDTH_CAP}, got {e.width}")


def _enumerate(es: Sequence[ex.Expr], pc: Iterable[ex.Expr],
               limits: SolverLimits, label: str):
    """Yield every distinct tuple (v1, ..., vn) such that pc and every
    es[i] = vi is satisfiable, via blocking clauses on one solver.

    The query slices pc on the leaves of all of es; each independent
    group of the rest only has to be satisfiable.  After each model a
    clause over the non-constant bits of every expression blocks that
    tuple, so learnt clauses carry over from one tuple to the next."""
    conjuncts = _symbolic_conjuncts(pc)
    if conjuncts is None:
        return
    es = [ex.simplify(e) for e in es]
    related, rest = _slice(frozenset().union(*map(ex.leaf_set, es)),
                           conjuncts)
    if any(_group_model(g, limits, label) is None
           for g in _components(rest)):
        return
    enc = _encoder(related, limits)
    bits = [enc.bits(e) for e in es]
    formula, solver = _query_solver(enc, limits)
    while True:
        outcome = _solve(formula, solver, limits, label)
        if outcome.is_unsat:
            return
        values = tuple(sum(1 << i for i, lit in enumerate(b)
                           if outcome.lit_value(lit)) for b in bits)
        yield values
        clause = [-lit if (v >> i) & 1 else lit
                  for b, v in zip(bits, values)
                  for i, lit in enumerate(b) if abs(lit) != 1]
        if not clause:
            return
        formula.clauses.append(clause)
        solver.add_clause(clause)


def all_values(e: ex.Expr, pc: Iterable[ex.Expr], cap: int = DEFAULT_VALUE_CAP,
               limits: SolverLimits | None = None) -> set[int]:
    """Exactly { v : pc and (e = v) is satisfiable }, via blocking clauses.

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
    for d, s in _enumerate((dst, src), pc, limits, "transitions"):
        sources = found.setdefault(d, set())
        sources.add(s)
        if len(found) > cap or len(sources) > cap:
            raise CapExceeded(cap)
    return found


def min_value(e: ex.Expr, pc: Iterable[ex.Expr],
              limits: SolverLimits | None = None) -> int | None:
    """Smallest feasible value of e under pc (None when pc is unsat).

    Deterministic regardless of solver internals: bits are pinned to zero
    from the most significant position whenever still satisfiable.  The
    pins are assumptions on one solver.  The last model satisfies every
    pin so far, so a bit it already has at zero needs no solve.
    """
    if limits is None:
        limits = SolverLimits()
    conjuncts = _symbolic_conjuncts(pc)
    if conjuncts is None:
        return None
    e = ex.simplify(e)
    related, rest = _slice(ex.leaf_set(e), conjuncts)
    if any(_group_model(g, limits, "min-value") is None
           for g in _components(rest)):
        return None
    enc = _encoder(related, limits)
    bits = enc.bits(e)
    formula, solver = _query_solver(enc, limits)

    outcome = _solve(formula, solver, limits, "min-value")
    if outcome.is_unsat:
        return None
    value = 0
    pins: list[int] = []
    for i in reversed(range(len(bits))):
        lit = bits[i]
        if lit == 1:
            value |= 1 << i
            continue
        if lit == -1:
            continue
        if not outcome.lit_value(lit):
            pins.append(-lit)
            continue
        trial = _solve(formula, solver, limits, "min-value",
                       pins + [-lit])
        if trial.is_sat:
            outcome = trial
            pins.append(-lit)
        else:
            pins.append(lit)
            value |= 1 << i
    return value
