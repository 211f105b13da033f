"""Incremental CDCL interface: clauses added between solves, assumptions,
restarts, and agreement with exhaustive enumeration."""

from __future__ import annotations

import itertools
import random

from dctforge.cnf import CnfFormula
from dctforge.sat import Solver, _luby, check_sat


def _satisfies(assign, clauses, assumptions=()) -> bool:
    """assign is a 1-indexed tuple of booleans."""
    return all(assign[abs(l)] ^ (l < 0) for l in assumptions) and all(
        any(assign[abs(l)] ^ (l < 0) for l in cl) for cl in clauses)


def _satisfiable(num_vars: int, clauses, assumptions=()) -> bool:
    return any(_satisfies((False,) + bits, clauses, assumptions)
               for bits in itertools.product([False, True], repeat=num_vars))


def _pigeonhole(holes: int) -> tuple[int, list[list[int]]]:
    """PHP(holes+1, holes): each pigeon in some hole, no hole shared."""
    pigeons = holes + 1
    def v(p, h):
        return p * holes + h + 1
    clauses = [[v(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-v(p1, h), -v(p2, h)])
    return pigeons * holes, clauses


def _random_clause(rng: random.Random, num_vars: int) -> list[int]:
    size = rng.randrange(1, 4)
    lits = rng.sample(range(1, num_vars + 1), min(size, num_vars))
    return [l if rng.random() < 0.5 else -l for l in lits]


def _loaded(num_vars: int, clauses, **kw) -> Solver:
    solver = Solver(num_vars, **kw)
    for cl in clauses:
        solver.add_clause(list(cl))
    return solver


def test_luby_prefix():
    assert [_luby(i) for i in range(1, 16)] == \
        [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_pigeonhole_6_5_unsat_past_first_restart():
    nv, clauses = _pigeonhole(5)
    assert check_sat(CnfFormula(nv, [list(c) for c in clauses])).is_unsat
    solver = _loaded(nv, clauses)
    assert solver.solve().is_unsat
    assert solver.solve().is_unsat  # unsat for good


def test_pigeonhole_under_assumptions_then_completed():
    """Without pigeon 0's at-least-one-hole clause, PHP(6,5) is
    satisfiable; assuming pigeon 0 into hole 0 leaves PHP(5,4), which is
    not.  Adding the clause back afterwards makes it unsat for good."""
    nv, clauses = _pigeonhole(5)
    solver = _loaded(nv, clauses[1:])
    assert solver.solve([1]).is_unsat
    assert solver.solve().is_sat
    out_of_holes = [-(h + 1) for h in range(5)]
    assert solver.solve(out_of_holes).is_sat
    solver.add_clause(list(clauses[0]))
    assert solver.solve(out_of_holes).is_unsat
    assert solver.solve().is_unsat
    assert not solver.ok


def test_random_incremental_agrees_with_enumeration():
    rng = random.Random(2024)
    for _ in range(60):
        nv = rng.randrange(3, 12)
        clauses = [_random_clause(rng, nv)
                   for _ in range(rng.randrange(1, 4 * nv))]
        solver = _loaded(nv, clauses)
        for _ in range(8):
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, nv + 1),
                                               rng.randrange(0, nv + 1))]
            if assumptions and rng.random() < 0.1:
                assumptions.append(-assumptions[0])  # contradictory
            out = solver.solve(assumptions)
            if out.is_sat:
                assert _satisfies(out.model, clauses, assumptions)
            else:
                assert out.is_unsat
                assert not _satisfiable(nv, clauses, assumptions)
            if rng.random() < 0.6:
                cl = _random_clause(rng, nv)
                clauses.append(cl)
                solver.add_clause(list(cl))
        out = solver.solve()
        assert out.is_sat == _satisfiable(nv, clauses)


def test_learnt_under_assumptions_do_not_leak():
    """Hard unsat-under-assumptions queries make the solver learn many
    clauses over the assumption literals; a later solve without them
    must still find the formula satisfiable."""
    nv, php = _pigeonhole(5)
    # Selector s guards every pigeon clause: with s assumed true the
    # formula is PHP(6,5), with s false it is trivially satisfiable.
    s = nv + 1
    clauses = [cl + [-s] for cl in php[:6]] + php[6:]
    solver = _loaded(nv + 1, clauses)
    assert solver.solve([s]).is_unsat
    again = solver.solve()
    assert again.is_sat
    for cl in clauses:
        assert any(again.lit_value(l) for l in cl)
    assert solver.solve([-s]).is_sat
    assert solver.solve([s]).is_unsat


def test_false_assumption_at_level_zero():
    solver = _loaded(3, [[1], [-1, 2]])
    assert solver.solve([-2]).is_unsat
    assert solver.solve([3]).is_sat
    out = solver.solve([-3, 2])
    assert out.is_sat and out.model[1:] == (True, True, False)


def test_clauses_added_after_solve_use_level_zero_facts():
    solver = _loaded(4, [[1], [-1, 2]])
    assert solver.solve().is_sat
    solver.add_clause([-2, 3, 4])   # -2 is false at level 0
    solver.add_clause([1, -4])      # satisfied at level 0
    solver.add_clause([-2, -3])     # reduces to a unit, propagates
    out = solver.solve()
    assert out.is_sat and out.model[1:] == (True, True, False, True)
    solver.add_clause([-4, -1])     # now the level-0 facts conflict
    assert solver.solve().is_unsat
    assert not solver.ok


def test_duplicate_and_tautological_literals():
    solver = _loaded(2, [[1, 1, -2], [2, -2], [-1, -1]])
    out = solver.solve()
    assert out.is_sat and out.model[1:] == (False, False)


def test_conflict_budget_per_solve_call():
    nv, clauses = _pigeonhole(6)
    solver = _loaded(nv, clauses, conflict_limit=20)
    out = solver.solve()
    assert out.status == "resource-out"
    assert out.limit_name == "conflict-budget"
    # The budget is per call and the solver stays usable.
    assert solver.solve([1, 7]).is_unsat  # pigeons 0 and 1 share hole 0
    assert solver.solve().status == "resource-out"


def test_check_sat_equals_one_shot_solver():
    rng = random.Random(99)
    for _ in range(40):
        nv = rng.randrange(5, 40)
        clauses = [_random_clause(rng, nv) for _ in range(3 * nv)]
        one_shot = check_sat(CnfFormula(nv, [list(c) for c in clauses]))
        direct = _loaded(nv, clauses).solve()
        assert one_shot == direct
