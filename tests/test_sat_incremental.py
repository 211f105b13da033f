"""Incremental CDCL interface: clauses added between solves, assumptions,
restarts, projected model enumeration, and agreement with exhaustive
enumeration."""

from __future__ import annotations

import itertools
import random

import pytest

from dctforge.cnf import CnfFormula
from dctforge import sat
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


def _random_clause(rng: random.Random, num_vars: int,
                   size: int | None = None) -> list[int]:
    if size is None:
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


@pytest.mark.parametrize("restart_base", [sat._RESTART_BASE, 1],
                         ids=["default-restarts", "restart-every-conflict"])
def test_enumeration_agrees_with_brute_force(monkeypatch, restart_base):
    """enumerate yields each projected assignment once and exactly the
    brute-force set, and every model satisfies every clause; with
    restart_base 1 the search restarts after every conflict.  The
    projection lists a variable twice and includes one fixed at level 0.
    Stopped partway, the solver still answers add_clause and
    solve(assumptions) as brute force does."""
    monkeypatch.setattr(sat, "_RESTART_BASE", restart_base)
    rng = random.Random(2026)
    for round_ in range(160):
        nv = rng.randrange(4, 12)
        fixed = rng.randrange(1, nv + 1)
        clauses = [[fixed if rng.random() < 0.5 else -fixed]]
        # Random 3-CNF up to past the threshold, so that the search meets
        # conflicts below and at the flipped levels.
        clauses += [_random_clause(rng, nv, 3)
                    for _ in range(rng.randrange(nv, 5 * nv))]
        proj = rng.sample(range(1, nv + 1), rng.randrange(1, nv + 1))
        proj += [proj[0], fixed]
        expected = _projections(nv, clauses, proj)
        stop = rng.randrange(len(expected) + 1) if round_ % 2 else None
        solver = _loaded(nv, clauses)
        given = [list(cl) for cl in clauses]
        found = []
        models = solver.enumerate(proj)
        while stop is None or len(found) < stop:
            out = next(models)
            if not out.is_sat:
                assert out.is_unsat
                break
            assert _satisfies(out.model, given)
            values = tuple(out.model[v] for v in proj)
            assert values not in found
            found.append(values)
        if stop is None:
            assert set(found) == expected
            assert solver.solve().is_sat == bool(expected)
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
        assert {tuple(out.model[v] for v in proj)
                for out in solver.enumerate(proj) if out.is_sat} == \
            _projections(nv, given, proj)


def test_enumeration_decides_the_projection_first_and_flips_the_last():
    """With no clauses, x3 (the projection) is decided at level 1 before
    the lower-indexed x1 and x2; after the model, its level is flipped,
    and once that is done no unflipped projection level is left."""
    solver = _loaded(3, [])
    models = solver.enumerate([3, 3])
    first = next(models)
    assert first.model[1:] == (False, False, False)
    assert [solver.level[v] for v in (3, 1, 2)] == [1, 2, 3]
    second = next(models)
    assert second.model[1:] == (False, False, True)
    assert solver.level[3] == 1 and solver.reason[3] is None
    assert next(models).is_unsat
    assert len(solver.trail_lim) == 0
    assert next(models, None) is None


def test_enumeration_of_an_unsat_formula_stays_unsat():
    """Unsat at level 0 when loaded, or found so by a conflict at level 0
    during the enumeration: it yields one Unsat and nothing else, and
    every later call says Unsat."""
    nv, php = _pigeonhole(4)
    for num_vars, clauses in ((2, [[1], [-1, 2], [-2]]), (nv, php)):
        solver = _loaded(num_vars, clauses)
        outcomes = list(solver.enumerate(range(1, num_vars + 1)))
        assert [out.status for out in outcomes] == ["unsat"]
        assert not solver.ok
        assert solver.solve().is_unsat
        assert solver.solve([1]).is_unsat
        assert [out.status for out in solver.enumerate([1])] == ["unsat"]
