"""Incremental CDCL interface: clauses added between solves, assumptions,
restarts, and agreement with exhaustive enumeration."""

from __future__ import annotations

import itertools
import random

import pytest

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


def _projections(num_vars: int, clauses, proj) -> set[tuple[bool, ...]]:
    """Every projection onto proj of a satisfying assignment."""
    return {tuple(bits[v - 1] for v in proj)
            for bits in itertools.product([False, True], repeat=num_vars)
            if _satisfies((False,) + bits, clauses)}


def test_block_enumeration_agrees_with_brute_force():
    """The solve/block loop yields each projected assignment once and
    exactly the brute-force set; every model satisfies every clause given
    so far.  The projection lists a variable twice and includes one fixed
    at level 0.  Stopped partway, the solver still answers add_clause and
    solve(assumptions) as brute force does."""
    rng = random.Random(2026)
    for round_ in range(120):
        nv = rng.randrange(3, 13)
        fixed = rng.randrange(1, nv + 1)
        clauses = [[fixed if rng.random() < 0.5 else -fixed]]
        clauses += [_random_clause(rng, nv)
                    for _ in range(rng.randrange(1, 3 * nv))]
        proj = rng.sample(range(1, nv + 1), rng.randrange(1, nv + 1))
        proj += [proj[0], fixed]
        expected = _projections(nv, clauses, proj)
        stop = rng.randrange(len(expected) + 1) if round_ % 2 else None
        solver = _loaded(nv, clauses)
        given = [list(cl) for cl in clauses]
        found = []
        while stop is None or len(found) < stop:
            out = solver.solve()
            if not out.is_sat:
                assert out.is_unsat
                break
            assert _satisfies(out.model, given)
            values = tuple(out.model[v] for v in proj)
            assert values not in found
            found.append(values)
            clause = [-v if out.model[v] else v for v in proj]
            given.append(clause)
            solver.block(clause)
            assert solver.given[-1] is clause  # checked against from now on
        if stop is None:
            assert set(found) == expected
            assert solver.solve().is_unsat
            continue
        assert set(found) <= expected and len(found) == stop
        for _ in range(4):
            cl = _random_clause(rng, nv)
            given.append(cl)
            solver.add_clause(list(cl))
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, nv + 1),
                                               rng.randrange(1, nv + 1))]
            out = solver.solve(assumptions)
            assert out.is_sat == _satisfiable(nv, given, assumptions)
            if out.is_sat:
                assert _satisfies(out.model, given, assumptions)


def test_block_backjumps_only_as_far_as_the_clause_needs():
    """With no clauses, x1..x3 are decided false at levels 1..3.
    Blocking (x1, x3), with x3 listed twice, keeps level 1 and asserts
    x3 there; then blocking (x1, -x3), whose literals share level 1,
    backtracks to level 0."""
    solver = _loaded(3, [])
    assert solver.solve().model[1:] == (False, False, False)
    assert [solver.level[v] for v in (1, 2, 3)] == [1, 2, 3]
    solver.block([3, 1, 3])
    assert len(solver.trail_lim) == 1
    assert solver.assign[3] == 1 and solver.level[3] == 1
    assert solver.assign[2] == 0
    assert solver.solve().model[1:] == (False, False, True)
    assert [solver.level[v] for v in (1, 2, 3)] == [1, 2, 1]
    solver.block([1, -3])
    assert len(solver.trail_lim) == 0
    assert solver.assign[1] == solver.assign[3] == 0
    rest = []
    while (out := solver.solve()).is_sat:
        rest.append(out.model[1:])
        solver.block([-v if out.model[v] else v for v in (1, 2, 3)])
    # (x1, x3) and (x1, -x3) together exclude every model with x1 false.
    assert sorted(rest) == [(True, b2, b3) for b2 in (False, True)
                            for b3 in (False, True)]


def test_block_rejects_a_clause_the_assignment_satisfies():
    solver = _loaded(2, [[1, 2]])
    out = solver.solve()
    assert out.is_sat
    true_lit = 1 if out.model[1] else -1
    for clause in ([true_lit], [-2 if out.model[2] else 2, true_lit]):
        with pytest.raises(AssertionError):
            solver.block(clause)
    assert solver.given == [[1, 2]]
    assert solver.solve().model == out.model


def test_block_false_at_level_zero_is_unsat_for_good():
    solver = _loaded(2, [[1], [-1, 2]])
    assert solver.solve().is_sat
    solver.block([-1, -2])
    assert not solver.ok
    assert solver.solve().is_unsat
    assert solver.solve([1]).is_unsat
