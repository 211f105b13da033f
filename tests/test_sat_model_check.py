"""The model check of Solver.enumerate: every model it returns satisfies
every clause given so far, and the check, which after the first model
re-reads only the clauses whose true literal was undone, still fails at
exactly the first model that violates a given clause."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from dctforge.sat import Solver
from test_sat_incremental import _lit_values, _projections, _satisfies


class _Unwatched(Solver):
    """A solver that keeps the clause object `hidden` for the model check
    but never watches it, so propagation never sees it and the search can
    reach a model that violates it.  With check=False the model check is
    off, which gives the models the search alone would return."""

    def __init__(self, num_vars: int, hidden: list[int], check: bool = True):
        super().__init__(num_vars)
        self.hidden = hidden
        self.check = check
        self._hiding = False

    def add_clause(self, lits: list[int]) -> None:
        self._hiding = lits is self.hidden
        try:
            super().add_clause(lits)
        finally:
            self._hiding = False

    def _attach(self, lits: list[int]) -> int:
        if not self._hiding:
            return super()._attach(lits)
        self.clauses.append(lits)
        return len(self.clauses) - 1

    def _check_model(self) -> None:
        if self.check:
            super()._check_model()


def _models(solver: Solver, proj, stop=None):
    """(the models one enumeration over proj yields, whether it raised
    AssertionError after them); the generator is abandoned after `stop`
    outcomes, if stop is not None."""
    models = []
    try:
        for n, out in enumerate(solver.enumerate(proj), start=1):
            if out.is_sat:
                models.append(out.model)
            if n == stop:
                break
    except AssertionError:
        return models, True
    return models, False


def _run_twins(num_vars: int, hidden, script):
    """Run script, a list of ("add", clause) and ("enum", proj, stop)
    steps, on an unchecked and a checked _Unwatched solver.  For every
    enumeration the checked one must yield the models of the unchecked
    one up to the first that violates a clause given so far, then raise
    there.  Stops at the first raise; returns the index of that model
    within its enumeration and the number of enumerations run, or None
    when no model violated a clause."""
    twin = _Unwatched(num_vars, hidden, check=False)
    checked = _Unwatched(num_vars, hidden)
    given_so_far = []
    enums = 0
    for kind, *args in script:
        if kind == "add":
            given_so_far.append(args[0])
            twin.add_clause(args[0])
            checked.add_clause(args[0])
            continue
        enums += 1
        expected, _ = _models(twin, *args)
        bad = next((i for i, m in enumerate(expected)
                    if not _satisfies(m, given_so_far)), None)
        got, raised = _models(checked, *args)
        if bad is None:
            assert (got, raised) == (expected, False)
            continue
        assert (got, raised) == (expected[:bad], True)
        return bad, enums
    return None


def test_check_catches_a_wrong_first_model():
    """x1 and x2 are decided false first, so the first model violates
    the unwatched clause (x1 | x2)."""
    hidden = [1, 2]
    assert _run_twins(2, hidden, [("add", hidden), ("enum", [1, 2])]) \
        == (0, 1)


def test_check_catches_a_wrong_model_after_a_flip_at_the_deepest_level():
    """(x1 | ~x2 | ~x3) holds in (F, F, F), (F, F, T) and (F, T, F),
    the last time by ~x3 alone, decided at level 3, the deepest
    projection level; flipping it gives (F, T, T)."""
    hidden = [1, -2, -3]
    solver = _Unwatched(3, hidden)
    solver.add_clause(hidden)
    models = solver.enumerate([1, 2, 3])
    for want in ((False, False, False), (False, False, True),
                 (False, True, False)):
        assert next(models).model[1:] == want
    assert [solver.level[v] for v in (1, 2, 3)] == [1, 2, 3]
    with pytest.raises(AssertionError):
        next(models)
    assert _run_twins(3, hidden, [("add", hidden), ("enum", [1, 2, 3])]) \
        == (3, 1)


def test_check_catches_a_wrong_model_after_a_flip_at_level_one():
    """(~x1 | x2) is true by ~x1 alone, at level 1, in the first model
    (F, F); the second, (F, T), flips level 2 and leaves it alone; the
    third flips level 1, which undoes ~x1, and decides x2 false."""
    hidden = [-1, 2]
    solver = _Unwatched(2, hidden)
    solver.add_clause(hidden)
    models = solver.enumerate([1, 2])
    assert next(models).model[1:] == (False, False)
    assert next(models).model[1:] == (False, True)
    with pytest.raises(AssertionError):
        next(models)
    assert _run_twins(2, hidden, [("add", hidden), ("enum", [1, 2])]) \
        == (2, 1)


def test_check_catches_a_wrong_model_after_add_clause():
    """The first enumeration, over ~x1, is right: (T, F), then (F, T),
    where (x1 | x2) makes x2 true.  The unwatched (x1 | ~x2) added after
    it is violated by the first model of the next enumeration, which
    decides x1 false in its saved phase and so again gets (F, T)."""
    hidden = [1, -2]
    script = [("add", [1, 2]), ("enum", [-1]), ("add", hidden), ("enum", [])]
    assert _run_twins(2, hidden, script) == (0, 2)


@st.composite
def _scripts(draw):
    """(num_vars, hidden clause, script): a script of ("add", clause) and
    ("enum", proj, stop) steps.  The projections mix polarities, and a
    literal may repeat or appear with its complement; an enumeration runs
    to its end (stop None) or is abandoned after `stop` outcomes.  The
    hidden clause, over two or three distinct variables, is added at a
    random point, and the script ends with a full enumeration."""
    nv = draw(st.integers(2, 7))
    lit = st.builds(lambda v, neg: -v if neg else v,
                    st.integers(1, nv), st.booleans())
    proj = st.lists(lit, max_size=nv + 1)
    steps = draw(st.lists(
        st.one_of(st.tuples(st.just("add"),
                            st.lists(lit, min_size=1, max_size=4)),
                  st.tuples(st.just("enum"), proj,
                            st.none() | st.integers(1, 4))),
        max_size=4 * nv))
    hidden = [-v if neg else v for v, neg in draw(st.lists(
        st.tuples(st.integers(1, nv), st.booleans()),
        min_size=2, max_size=3, unique_by=lambda p: p[0]))]
    steps.insert(draw(st.integers(0, len(steps))), ("add", hidden))
    steps.append(("enum", draw(proj), None))
    return nv, hidden, steps


@settings(max_examples=200, deadline=None)
@given(_scripts())
def test_check_fails_exactly_where_a_full_scan_does(case):
    """With one given clause unwatched, enumerate raises at exactly the
    first model that violates a clause given so far, as a scan of every
    clause at every model would, and yields every model before it."""
    _run_twins(*case)


@settings(max_examples=200, deadline=None)
@given(_scripts())
def test_every_model_satisfies_every_given_clause(case):
    """On a plain Solver, every model of every enumeration satisfies
    every clause given so far, checked here clause by clause, and an
    enumeration run to its end yields the brute-force projections."""
    nv, _, script = case
    solver = Solver(nv)
    given_so_far = []
    for kind, *args in script:
        if kind == "add":
            given_so_far.append(args[0])
            solver.add_clause(args[0])
            continue
        proj, stop = args
        models, raised = _models(solver, proj, stop)
        assert not raised
        for model in models:
            assert len(model) == nv + 1
            assert _satisfies(model, given_so_far)
        if stop is None:
            assert [_lit_values(m, proj) for m in models] == \
                _projections(nv, given_so_far, proj)
