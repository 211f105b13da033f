"""Query layer on top of the encoder and the CDCL core.

A path constraint is a tuple of width-1 expressions understood as a
conjunction.  all_values enumerates every feasible value of an expression
under a path constraint: it encodes the query once, builds one solver,
and after each model adds a clause blocking that value to the same
solver, so learnt clauses carry over from one value to the next.
min_value finds the lexicographically smallest feasible value by pinning
bits from the most significant end down, each pin an assumption on one
solver.  pc_model returns a satisfying assignment of a path constraint
(pc_sat is its boolean form).  Every solver call writes its formula to
the dumper, if any, and logs a solver_stats debug event under the same
label.  A conflict budget running out raises ResourceOut from every
query; it is never read as infeasible.  Results depend only on the query
structure, never on CNF variable numbering, so reports built from them
are reproducible across runs.
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
    def __init__(self, conflict_limit: int = DEFAULT_CONFLICT_LIMIT,
                 clause_cap: int = DEFAULT_CLAUSE_CAP,
                 dumper: "CnfDumper | None" = None):
        self.conflict_limit = conflict_limit
        self.clause_cap = clause_cap
        self.dumper = dumper


_DEFAULT_LIMITS = SolverLimits()


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


def pc_model(pc: Iterable[ex.Expr], limits: SolverLimits = _DEFAULT_LIMITS,
             label: str = "pc-sat") -> dict | None:
    """A satisfying assignment of the conjunction of pc, or None when it
    is unsatisfiable.  The assignment maps ("var", name, step) to a value
    for every variable of pc's non-constant conjuncts."""
    conjuncts = _symbolic_conjuncts(pc)
    if conjuncts is None:
        return None
    if not conjuncts:
        return {}
    formula = _encoder(conjuncts, limits).to_formula()
    outcome = _solve(formula, limits, label)
    if outcome.is_unsat:
        return None
    env = {}
    for leaf in ex.postorder(conjuncts):
        if leaf.op != "var":
            continue
        env[("var",) + leaf.aux] = sum(
            1 << i for i in range(leaf.width)
            if outcome.lit_value(formula.bit_map[(leaf, i)]))
    return env


def pc_sat(pc: Iterable[ex.Expr],
           limits: SolverLimits = _DEFAULT_LIMITS) -> bool:
    """Is the conjunction of pc satisfiable?"""
    return pc_model(pc, limits) is not None


def all_values(e: ex.Expr, pc: Iterable[ex.Expr], cap: int = DEFAULT_VALUE_CAP,
               limits: SolverLimits = _DEFAULT_LIMITS) -> set[int]:
    """Exactly { v : pc and (e = v) is satisfiable }, via blocking clauses.

    Raises CapExceeded once more than cap distinct values are found.
    """
    if e.width > ALL_VALUES_WIDTH_CAP:
        raise WidthMismatch(
            f"all_values needs width <= {ALL_VALUES_WIDTH_CAP}, got {e.width}")
    if cap < 1:
        raise CapExceeded(cap)
    conjuncts = _symbolic_conjuncts(pc)
    if conjuncts is None:
        return set()
    e = ex.simplify(e)
    enc = _encoder(conjuncts, limits)
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
              limits: SolverLimits = _DEFAULT_LIMITS) -> int | None:
    """Smallest feasible value of e under pc (None when pc is unsat).

    Deterministic regardless of solver internals: bits are pinned to zero
    from the most significant position whenever still satisfiable.  The
    pins are assumptions on one solver.  The last model satisfies every
    pin so far, so a bit it already has at zero needs no solve.
    """
    conjuncts = _symbolic_conjuncts(pc)
    if conjuncts is None:
        return None
    e = ex.simplify(e)
    enc = _encoder(conjuncts, limits)
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
