"""Query layer on top of the encoder and the CDCL core.

A path constraint is a tuple of width-1 expressions understood as a
conjunction.  all_values enumerates every feasible value of an expression
under a path constraint: it encodes the query once, builds one solver,
and after each model adds a clause blocking that value to the same
solver, so learnt clauses carry over from one value to the next.
min_value finds the lexicographically smallest feasible value by pinning
bits from the most significant end down, each pin an assumption on one
solver.  pc_model returns a satisfying assignment of a path constraint
(pc_sat is its boolean form).

Every query is sliced by constraint independence, as in KLEE: a
union-find over their leaves splits the simplified conjuncts into groups
that share no variable.  all_values and min_value encode only the groups
that share variables with the queried expression; every other group
merely has to be satisfiable.  pc_model solves group by group and returns
the union of the group models.  One model per group, or None when the
group is unsatisfiable, is memoised on the SolverLimits object, which
lives as long as one analysis; a call given no limits gets a fresh one,
so no memo outlives its caller.

Every solver call writes its formula to the dumper, if any, and logs a
solver_stats debug event under the same label: the label of the query
that needed the solve.  A conflict budget running out raises ResourceOut
from every query; it is never read as infeasible, and never memoised, so
the next query solves that group again.  Results depend only on the
query structure, never on CNF variable numbering or on which model a
group's memo holds, so reports built from them are reproducible across
runs.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Iterable, Sequence

from . import expr as ex
from .cnf import DEFAULT_CLAUSE_CAP, CnfFormula, Encoder
from .errors import CapExceeded, ResourceOut, WidthMismatch
from .sat import DEFAULT_CONFLICT_LIMIT, SatOutcome, Solver, check_sat

log = logging.getLogger("dctforge.solve")

__all__ = ["PathConstraint", "SolverLimits", "CnfDumper", "pc_model",
           "pc_sat", "all_values", "min_value", "DEFAULT_VALUE_CAP"]

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
    """Simplified non-trivial conjuncts, or None if one is constant false."""
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
    return out


def _components(conjuncts: list[ex.Expr]) -> list[list[ex.Expr]]:
    """The distinct conjuncts partitioned into groups that share no leaf,
    not even through other conjuncts.  Groups are in order of their first
    conjunct, and members keep their input order."""
    unique = list(dict.fromkeys(conjuncts))
    parent = list(range(len(unique)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[ex.Expr, int] = {}
    for i, c in enumerate(unique):
        for leaf in ex.leaf_set(c):
            j = owner.setdefault(leaf, i)
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[ex.Expr]] = {}
    for i, c in enumerate(unique):
        groups.setdefault(find(i), []).append(c)
    return list(groups.values())


def _slice(e: ex.Expr, conjuncts: list[ex.Expr]):
    """(related, others): the conjuncts that share leaves with e, directly
    or through other conjuncts, and the remaining independent groups."""
    wanted = ex.leaf_set(e)
    related: list[ex.Expr] = []
    others: list[list[ex.Expr]] = []
    for group in _components(conjuncts):
        if any(not wanted.isdisjoint(ex.leaf_set(c)) for c in group):
            related.extend(group)
        else:
            others.append(group)
    return related, others


def _raise_if_out(outcome: SatOutcome) -> SatOutcome:
    """outcome itself, unless the solver ran out of budget."""
    if not outcome.is_sat and not outcome.is_unsat:
        raise ResourceOut(outcome.limit_name)
    return outcome


def _solve(formula: CnfFormula, limits: SolverLimits, label: str,
           solver: Solver | None = None, assumptions: Sequence[int] = ()):
    """One solver call: the formula alone through check_sat, or solver
    under assumptions.  The query goes to the dumper (assumptions as unit
    clauses) and to a solver_stats debug event, both under label."""
    if limits.dumper is not None:
        dumped = formula
        if assumptions:
            dumped = CnfFormula(formula.num_vars, formula.clauses
                                + [[lit] for lit in assumptions])
        limits.dumper.dump(dumped, label)
    if solver is None:
        outcome = check_sat(formula, limits.conflict_limit)
    else:
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
    """A satisfying assignment of one independent group of conjuncts, or
    None when it is unsatisfiable; solved at most once per limits.  A
    ResourceOut propagates and is not remembered."""
    key = frozenset(group)
    if key in limits.models:
        return limits.models[key]
    formula = _encoder(group, limits).to_formula()
    outcome = _solve(formula, limits, label)
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


def pc_model(pc: Iterable[ex.Expr], limits: SolverLimits | None = None,
             label: str = "pc-sat") -> dict | None:
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
        model = _group_model(group, limits, label)
        if model is None:
            return None
        env.update(model)
    return env


def pc_sat(pc: Iterable[ex.Expr], limits: SolverLimits | None = None) -> bool:
    """Is the conjunction of pc satisfiable?"""
    return pc_model(pc, limits) is not None


def all_values(e: ex.Expr, pc: Iterable[ex.Expr], cap: int = DEFAULT_VALUE_CAP,
               limits: SolverLimits | None = None) -> set[int]:
    """Exactly { v : pc and (e = v) is satisfiable }, via blocking clauses.

    Raises CapExceeded once more than cap distinct values are found.
    """
    if e.width > ALL_VALUES_WIDTH_CAP:
        raise WidthMismatch(
            f"all_values needs width <= {ALL_VALUES_WIDTH_CAP}, got {e.width}")
    if cap < 1:
        raise CapExceeded(cap)
    if limits is None:
        limits = SolverLimits()
    conjuncts = _symbolic_conjuncts(pc)
    if conjuncts is None:
        return set()
    e = ex.simplify(e)
    related, others = _slice(e, conjuncts)
    if any(_group_model(g, limits, "all-values") is None for g in others):
        return set()
    enc = _encoder(related, limits)
    bits = enc.bits(e)
    formula, solver = _query_solver(enc, limits)

    found: set[int] = set()

    def block(value: int) -> bool:
        """Exclude value; returns False when no other value can exist."""
        clause = []
        for i, lit in enumerate(bits):
            if abs(lit) == 1:
                continue
            clause.append(-lit if (value >> i) & 1 else lit)
        if not clause:
            return False
        formula.clauses.append(clause)
        solver.add_clause(clause)
        return True

    while True:
        outcome = _solve(formula, limits, "all-values", solver)
        if outcome.is_unsat:
            return found
        value = 0
        for i, lit in enumerate(bits):
            if outcome.lit_value(lit):
                value |= 1 << i
        found.add(value)
        if len(found) > cap:
            raise CapExceeded(cap)
        if not block(value):
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
    related, others = _slice(e, conjuncts)
    if any(_group_model(g, limits, "min-value") is None for g in others):
        return None
    enc = _encoder(related, limits)
    bits = enc.bits(e)
    formula, solver = _query_solver(enc, limits)

    outcome = _solve(formula, limits, "min-value", solver)
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
        trial = _solve(formula, limits, "min-value", solver, pins + [-lit])
        if trial.is_sat:
            outcome = trial
            pins.append(-lit)
        else:
            pins.append(lit)
            value |= 1 << i
    return value
