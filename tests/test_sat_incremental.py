"""Incremental CDCL interface: clauses added between enumerations,
projection literals decided in order and false first, restarts, per-model
conflict budgets, and agreement with exhaustive enumeration."""

from __future__ import annotations

import itertools
import random

import pytest

from dctforge.cnf import CnfFormula
from dctforge import sat
from dctforge.sat import Solver, _luby, check_sat


def _satisfies(assign, clauses) -> bool:
    """assign is a 1-indexed tuple of booleans."""
    return all(any(assign[abs(l)] ^ (l < 0) for l in cl) for cl in clauses)


def _lit_values(assign, proj) -> tuple[bool, ...]:
    """The value of each literal of proj under the 1-indexed assign."""
    return tuple(assign[abs(l)] ^ (l < 0) for l in proj)


def _projections(num_vars: int, clauses, proj) -> list[tuple[bool, ...]]:
    """Every projection onto the literals proj of a satisfying
    assignment, once each, in ascending order."""
    return sorted({_lit_values((False,) + bits, proj)
                   for bits in itertools.product([False, True],
                                                 repeat=num_vars)
                   if _satisfies((False,) + bits, clauses)})


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


def _random_lits(rng: random.Random, num_vars: int, low: int) -> list[int]:
    return [v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1),
                                rng.randrange(low, num_vars + 1))]


def _loaded(num_vars: int, clauses, **kw) -> Solver:
    solver = Solver(num_vars, **kw)
    for cl in clauses:
        solver.add_clause(list(cl))
    return solver


def _first(solver: Solver, proj=()) -> sat.SatOutcome:
    """The first outcome of an enumeration over proj; over no projection
    it is check_sat's search on an incremental solver."""
    return next(solver.enumerate(proj))


def _statuses(outcomes) -> list[str]:
    return [out.status for out in outcomes]


def test_luby_prefix():
    assert [_luby(i) for i in range(1, 16)] == \
        [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_pigeonhole_6_5_unsat_past_first_restart():
    nv, clauses = _pigeonhole(5)
    assert check_sat(CnfFormula(nv, [list(c) for c in clauses])).is_unsat
    solver = _loaded(nv, clauses)
    assert _first(solver).is_unsat
    assert _first(solver).is_unsat  # unsat for good


def test_pigeonhole_under_assumptions_then_completed():
    """A projection literal stands where an assumption stood: without
    pigeon 0's at-least-one-hole clause, PHP(6,5) is satisfiable, and an
    enumeration over -x1 tries pigeon 0 in hole 0 first.  That leaves
    PHP(5,4), which is not satisfiable, so the only model has it out of
    hole 0; over pigeon 0's holes, the only model has it in none.
    Adding the clause back afterwards makes the formula unsat for
    good."""
    nv, clauses = _pigeonhole(5)
    solver = _loaded(nv, clauses[1:])
    outcomes = list(solver.enumerate([-1]))
    assert _statuses(outcomes) == ["sat", "unsat"]
    assert not outcomes[0].model[1]
    assert _first(solver).is_sat
    holes = [h + 1 for h in range(5)]
    outcomes = list(solver.enumerate([-h for h in holes]))
    assert _statuses(outcomes) == ["sat", "unsat"]
    assert not any(outcomes[0].model[h] for h in holes)
    solver.add_clause(list(clauses[0]))
    assert _statuses(solver.enumerate(holes)) == ["unsat"]
    assert _first(solver).is_unsat
    assert not solver.ok


def test_random_incremental_agrees_with_enumeration():
    """Between clauses added at random, the first model over a random
    projection (mixed polarities, sometimes a literal and its negation)
    is the smallest brute-force projection, and Unsat exactly when there
    is none."""
    rng = random.Random(2024)
    for _ in range(60):
        nv = rng.randrange(3, 12)
        clauses = [_random_clause(rng, nv)
                   for _ in range(rng.randrange(1, 4 * nv))]
        solver = _loaded(nv, clauses)
        for _ in range(8):
            proj = _random_lits(rng, nv, 0)
            if proj and rng.random() < 0.1:
                proj.append(-proj[0])  # contradictory
            out = _first(solver, proj)
            expected = _projections(nv, clauses, proj)
            if out.is_sat:
                assert _satisfies(out.model, clauses)
                assert _lit_values(out.model, proj) == expected[0]
            else:
                assert out.is_unsat
                assert not expected
            if rng.random() < 0.6:
                cl = _random_clause(rng, nv)
                clauses.append(cl)
                solver.add_clause(list(cl))
        out = _first(solver)
        assert out.is_sat == bool(_projections(nv, clauses, ()))


def test_learnt_clauses_do_not_leak_across_enumerations():
    """With selector s true the formula is PHP(6,5), with s false it is
    trivially satisfiable.  An enumeration over -s tries s true first,
    and one over s flips to it after the s-false model; either refutes
    PHP(6,5), under a decision or under a flip, and learns many clauses
    on the way.  Every later call must still find the models with s
    false, each satisfying every clause."""
    nv, php = _pigeonhole(5)
    s = nv + 1
    clauses = [cl + [-s] for cl in php[:6]] + php[6:]
    for proj in ([-s], [s]):
        solver = _loaded(nv + 1, clauses)
        outcomes = list(solver.enumerate(proj))
        assert _statuses(outcomes) == ["sat", "unsat"]
        assert len(solver.clauses) > len(clauses)  # it learnt
        for out in (outcomes[0], _first(solver), _first(solver, [-s]),
                    _first(solver, [s])):
            assert out.is_sat and not out.model[s]
            assert _satisfies(out.model, clauses)
        assert solver.ok


def test_projection_literal_fixed_at_level_zero():
    """A projection literal whose variable is fixed at level 0 is never
    decided and takes its fixed value in every model; the others are
    still decided in order, each tried false first."""
    solver = _loaded(3, [[1], [-1, 2]])
    outcomes = list(solver.enumerate([-2]))  # x2 true first: it is
    assert _statuses(outcomes) == ["sat", "unsat"]
    assert outcomes[0].model[1:] == (True, True, False)
    outcomes = list(solver.enumerate([2, -3]))
    assert _statuses(outcomes) == ["sat", "sat", "unsat"]
    assert [out.model[1:] for out in outcomes[:2]] == \
        [(True, True, True), (True, True, False)]


def test_clauses_added_after_solve_use_level_zero_facts():
    solver = _loaded(4, [[1], [-1, 2]])
    assert _first(solver).is_sat
    solver.add_clause([-2, 3, 4])   # -2 is false at level 0
    solver.add_clause([1, -4])      # satisfied at level 0
    solver.add_clause([-2, -3])     # reduces to a unit, propagates
    out = _first(solver)
    assert out.is_sat and out.model[1:] == (True, True, False, True)
    solver.add_clause([-4, -1])     # now the level-0 facts conflict
    assert _first(solver).is_unsat
    assert not solver.ok


def test_duplicate_and_tautological_literals():
    solver = _loaded(2, [[1, 1, -2], [2, -2], [-1, -1]])
    out = _first(solver)
    assert out.is_sat and out.model[1:] == (False, False)


class _CountingConflicts(Solver):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.conflicts = 0

    def _propagate(self):
        confl = super()._propagate()
        if confl is not None:
            self.conflicts += 1
        return confl


def _steps(num_vars, clauses, proj, conflict_limit):
    """(outcomes, conflicts of each step) of one whole enumeration."""
    solver = _CountingConflicts(num_vars, conflict_limit)
    for cl in clauses:
        solver.add_clause(list(cl))
    outcomes, conflicts = [], []
    for out in solver.enumerate(proj):
        outcomes.append(out)
        conflicts.append(solver.conflicts - sum(conflicts))
    return outcomes, conflicts


def test_conflict_budget_per_solve_call():
    """The budget applies to each step of an enumeration, each one call
    of next() on it.  PHP(7,6) runs out at once, and again on the next
    call, and the solver stays usable.  On random 3-CNF with models, a
    budget one above the most conflicts any step needs lets the
    enumeration run to its end, although its steps add up to more; a
    budget equal to it ends the first step that needs that many with
    ResourceOut, after the same models as before."""
    nv, clauses = _pigeonhole(6)
    solver = _loaded(nv, clauses, conflict_limit=20)
    out = _first(solver)
    assert out.status == "resource-out"
    assert out.limit_name == "conflict-budget"
    assert _first(solver).status == "resource-out"
    solver.add_clause([1])
    solver.add_clause([7])  # pigeons 0 and 1 share hole 0
    assert _first(solver).is_unsat

    rng = random.Random(31)
    exercised = 0
    for _ in range(30):
        nv = rng.randrange(10, 16)
        clauses = [_random_clause(rng, nv, 3) for _ in range(4 * nv)]
        proj = _random_lits(rng, nv, 1)
        outcomes, conflicts = _steps(nv, clauses, proj,
                                     sat.DEFAULT_CONFLICT_LIMIT)
        most = max(conflicts)
        if len(outcomes) < 2 or most < 2:
            continue  # no model, or no step needs a conflict
        exercised += sum(conflicts) > most + 1
        assert _steps(nv, clauses, proj, most + 1) == (outcomes, conflicts)
        stop = conflicts.index(most)
        cut, _ = _steps(nv, clauses, proj, most)
        assert cut[:stop] == outcomes[:stop]
        assert _statuses(cut[stop:]) == ["resource-out"]
    assert exercised >= 3


def test_check_sat_equals_one_shot_solver():
    rng = random.Random(99)
    for _ in range(40):
        nv = rng.randrange(5, 40)
        clauses = [_random_clause(rng, nv) for _ in range(3 * nv)]
        one_shot = check_sat(CnfFormula(nv, [list(c) for c in clauses]))
        direct = _first(_loaded(nv, clauses))
        assert one_shot == direct
        if one_shot.is_sat:
            assert _satisfies(one_shot.model, clauses)


@pytest.mark.parametrize("restart_base", [sat._RESTART_BASE, 1],
                         ids=["default-restarts", "restart-every-conflict"])
def test_enumeration_agrees_with_brute_force(monkeypatch, restart_base):
    """enumerate yields each projected assignment once, in ascending
    order of the projection literals' values, so exactly the sorted
    brute-force list, and every model satisfies every clause; with
    restart_base 1 the search restarts after every conflict.  The
    projection mixes polarities, lists a literal twice and includes a
    variable fixed at level 0.  Stopped partway, it has yielded a prefix
    of that list, and the solver still answers add_clause and new
    enumerations as brute force does."""
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
        proj = _random_lits(rng, nv, 1)
        proj += [proj[0], fixed if rng.random() < 0.5 else -fixed]
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
            found.append(_lit_values(out.model, proj))
        assert found == expected[:stop]
        if stop is None:
            assert _first(solver).is_sat == bool(expected)
            continue
        for _ in range(4):
            cl = _random_clause(rng, nv)
            given.append(cl)
            solver.add_clause(list(cl))
            other = _random_lits(rng, nv, 1)
            out = _first(solver, other)
            expected = _projections(nv, given, other)
            assert out.is_sat == bool(expected)
            if out.is_sat:
                assert _satisfies(out.model, given)
                assert _lit_values(out.model, other) == expected[0]
        assert [_lit_values(out.model, proj)
                for out in solver.enumerate(proj) if out.is_sat] == \
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
        assert _first(solver).is_unsat
        assert _first(solver, [-1]).is_unsat
        assert _statuses(solver.enumerate([1])) == ["unsat"]
