"""Deterministic incremental CDCL SAT solver.

Two-watched-literal propagation, first-UIP clause learning, decaying
activity scores with ties broken by lowest variable index, phase saving
(initial phase false), and Luby-sequence restarts.  Identical input
always produces the identical outcome and model.

A Solver has two calls.  add_clause adds a clause, also after an
enumeration, in the style of MiniSat (Een & Sorensson, "An Extensible
SAT-solver", SAT 2003).  enumerate(proj) yields one model per
assignment of the projection literals proj that extends to a model,
with no blocking clause (Gebser, Kaufmann & Schaub, "Solution
enumeration for projected Boolean search problems", CPAIOR 2009; Toda &
Soh, "Implementing efficient all solutions SAT solvers", JEA 2016).

It decides proj in the order given, before any other variable: each
decision is the negation of the first literal of proj whose variable is
unassigned, so decision levels 1..P hold projection decisions and every
projection literal is tried false first.  Activity and saved phase pick
among the other variables only.  After each model it backtracks
chronologically to the deepest projection decision not yet flipped and
decides its complement there, as a flipped level.  Conflicts learn and
backjump, but never below the deepest flipped level; a conflict at that
level flips the next unflipped level below it, and restarts go back to
it.  A level is thus flipped to true only once every model with its
literal false is found, so the models come in ascending lexicographic
order of proj's literal values, false before true: the first is the
smallest.  A flip is a decision with no reason, so nothing learnt
depends on one: every learnt clause is implied by the clauses alone,
and a solver whose enumeration was abandoned answers later calls
exactly.  A conflict at decision level 0 means the clauses themselves
are unsatisfiable, and every later enumeration says so at once.  The
conflict budget applies to each model's search; the search stops with
ResourceOut once it is exhausted.  Every Sat model is checked against
every clause the solver was given before it is returned.  The first
model after an add_clause scans them all; a later one re-reads only the
clauses whose true literal the backtracking since the last model may
have undone (_check_model).

The trail rule: add_clause and enumerate each backtrack to decision
level 0 before they start, so no call depends on what the last one
left on the trail.

check_sat is the one-shot form: the first outcome of enumerate(()) on
one Solver per formula, which is plain CDCL search from level 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .cnf import CnfFormula

__all__ = ["SatOutcome", "Solver", "check_sat", "DEFAULT_CONFLICT_LIMIT"]

DEFAULT_CONFLICT_LIMIT = 10 ** 6
_RESTART_BASE = 64
_VAR_DECAY = 0.95


@dataclass(frozen=True)
class SatOutcome:
    """Sat (with a total model), Unsat, or ResourceOut(limit name)."""
    status: str  # "sat" | "unsat" | "resource-out"
    model: tuple[bool, ...] | None = None  # 1-indexed; model[0] unused
    limit_name: str | None = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"

    def lit_value(self, lit: int) -> bool:
        value = self.model[abs(lit)]
        return value if lit > 0 else not value


_UNSAT = SatOutcome("unsat")
_RESOURCE_OUT = SatOutcome("resource-out", limit_name="conflict-budget")


def _luby(i: int) -> int:
    """i-th element (1-based) of the Luby restart sequence."""
    while True:
        k = 1
        while (1 << k) - 1 < i:  # smallest k with 2^k - 1 >= i
            k += 1
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class Solver:
    """One CDCL instance over variables 1..num_vars.

    The truth values live in a per-literal array: assign[lit] is 1 (true),
    -1 (false) or 0 (unassigned) for lit and -lit alike, because a
    negative index counts from the end of the 2*num_vars+1 slots.  The
    watch lists use the same indexing.
    """

    def __init__(self, num_vars: int,
                 conflict_limit: int = DEFAULT_CONFLICT_LIMIT):
        self.nv = num_vars
        self.conflict_limit = conflict_limit
        self.given: list[list[int]] = []  # every clause as passed in
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * num_vars + 1)]
        self.assign = [0] * (2 * num_vars + 1)
        self.level = [0] * (num_vars + 1)
        self.reason: list[int | None] = [None] * (num_vars + 1)
        self.activity = [0.0] * (num_vars + 1)
        self.phase = [False] * (num_vars + 1)
        self._seen = [False] * (num_vars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.ok = True
        # _check_model's state: the given clauses by the level of a true
        # literal at the last model (None until a model follows the last
        # add_clause), and the lowest level _backtrack reached since.
        self._sat_by_level: list[list[list[int]]] | None = None
        self._undone = 0

    def add_clause(self, lits: list[int]) -> None:
        """Add a clause over variables 1..num_vars; never between two
        outcomes of an enumeration still in use.  It first backtracks to
        decision level 0.  The list is kept for the model check, so the
        caller must not change it.

        Before the first propagation the clause is stored as given, which
        keeps one-shot solving identical to loading the whole formula up
        front.  After it, the clause is first reduced by the level-0
        assignment so that the watch invariant holds without revisiting
        literals already propagated."""
        self._backtrack(0)
        self.given.append(lits)
        self._sat_by_level = None
        if not self.ok:
            return
        seen = set(lits)
        if len(seen) != len(lits):
            lits = list(dict.fromkeys(lits))
        for l in lits:
            if -l in seen:
                return  # tautology
        if self.qhead:
            lits = self._reduce_at_level0(lits)
            if lits is None:
                return
        if len(lits) > 1:
            self._attach(lits[:])
        elif not lits or not self._enqueue(lits[0], None):
            self.ok = False

    def _reduce_at_level0(self, lits: list[int]) -> list[int] | None:
        """lits without its level-0 false literals, or None when the
        clause needs no storing: satisfied, or a unit now propagated."""
        assign = self.assign
        live = []
        for l in lits:
            v = assign[l]
            if v == 1:
                return None
            if v == 0:
                live.append(l)
        if len(live) == 1:
            self._enqueue(live[0], None)
            if self._propagate() is not None:
                self.ok = False
            return None
        return live

    def _enqueue(self, lit: int, reason_ci: int | None) -> bool:
        val = self.assign[lit]
        if val == 1:
            return True
        if val == -1:
            return False
        self.assign[lit] = 1
        self.assign[-lit] = -1
        v = abs(lit)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason_ci
        self.trail.append(lit)
        return True

    def _propagate(self) -> int | None:
        """Returns a conflicting clause index, or None."""
        assign = self.assign
        clauses = self.clauses
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        cur_level = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            ws = watches[falsified]
            if not ws:
                continue
            keep: list[int] = []
            watches[falsified] = keep
            for idx, ci in enumerate(ws):
                cl = clauses[ci]
                first = cl[0]
                if first == falsified:
                    first = cl[1]
                    cl[0] = first
                    cl[1] = falsified
                # cl[1] is the falsified watch now.
                first_val = assign[first]
                if first_val == 1:
                    keep.append(ci)
                    continue
                for k in range(2, len(cl)):
                    lk = cl[k]
                    if assign[lk] != -1:
                        cl[1] = lk
                        cl[k] = falsified
                        watches[lk].append(ci)
                        break
                else:
                    keep.append(ci)
                    if first_val == -1:
                        keep.extend(ws[idx + 1:])
                        self.qhead = qhead
                        return ci
                    assign[first] = 1
                    assign[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = cur_level
                    reason[v] = ci
                    trail.append(first)
        self.qhead = qhead
        return None

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(1, self.nv + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        learnt: list[int] = [0]
        seen = self._seen
        level = self.level
        trail = self.trail
        counter = 0
        p = None
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        ci = confl
        while True:
            for q in self.clauses[ci]:
                if q == p:
                    continue  # the literal this reason clause asserted
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            seen[abs(p)] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            ci = self.reason[abs(p)]
        learnt[0] = -p
        for q in learnt[1:]:
            seen[abs(q)] = False
        if len(learnt) == 1:
            bt_level = 0
        else:
            bt_level = max(level[abs(q)] for q in learnt[1:])
        return learnt, bt_level

    def _backtrack(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        if target_level < self._undone:
            self._undone = target_level
        split = self.trail_lim[target_level]
        assign = self.assign
        for lit in self.trail[split:]:
            v = abs(lit)
            self.phase[v] = lit > 0
            assign[lit] = 0
            assign[-lit] = 0
            self.reason[v] = None
        del self.trail[split:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    def _decide(self, proj: Sequence[int]) -> int | None:
        """The negation of the first literal of proj whose variable is
        unassigned; once none is, the unassigned variable of highest
        activity, ties to the lowest index, in its saved phase; None when
        every variable is assigned."""
        assign = self.assign
        for lit in proj:
            if assign[lit] == 0:
                return -lit
        activity = self.activity
        best = None
        best_act = -1.0
        for v in range(1, self.nv + 1):
            if assign[v] == 0 and activity[v] > best_act:
                best = v
                best_act = activity[v]
        if best is None:
            return None
        return best if self.phase[best] else -best

    def _attach(self, lits: list[int]) -> int:
        """Store a clause of two or more literals, watching its first two;
        returns its index."""
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.watches[lits[0]].append(ci)
        self.watches[lits[1]].append(ci)
        return ci

    def _learn(self, learnt: list[int]) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        # Watch the asserting literal and one literal from the backtrack level.
        watch2 = max(range(1, len(learnt)),
                     key=lambda i: (self.level[abs(learnt[i])], -i))
        learnt[1], learnt[watch2] = learnt[watch2], learnt[1]
        self._enqueue(learnt[0], self._attach(learnt))

    def _check_model(self) -> None:
        """Raise AssertionError unless the total assignment satisfies
        every given clause.

        The first model after an add_clause is a plain scan of every
        given clause, so a query that stops after one model pays no more.
        From the next model on, each scan files the clause it reads under
        the decision level of the true literal it found.  _backtrack
        undoes whole levels from the top, so when the lowest level it
        reached since the last model is B, every assignment at level B or
        below is still on the trail with its value, and every clause filed
        at those levels is still satisfied by the same literal.  Only the
        clauses filed above B are read again and refiled.  The check thus
        fails exactly when a full scan would: it skips only clauses it has
        seen true under assignments that have not changed since."""
        assign = self.assign
        by_level = self._sat_by_level
        if by_level is None:
            for cl in self.given:
                for l in cl:
                    if assign[l] == 1:
                        break
                else:
                    raise AssertionError(
                        "solver produced a model violating a clause")
            # Nothing is filed yet: one bucket holds every clause, and
            # _undone -1 makes the next model read it all.
            self._sat_by_level = [self.given]
            self._undone = -1
            return
        level = self.level
        top = len(self.trail_lim)
        keep = self._undone + 1
        stale = by_level[keep:]
        by_level[keep:] = [[] for _ in range(keep, top + 1)]
        for clauses in stale:
            for cl in clauses:
                for l in cl:
                    if assign[l] == 1:
                        by_level[level[l if l > 0 else -l]].append(cl)
                        break
                else:
                    self._sat_by_level = None
                    raise AssertionError(
                        "solver produced a model violating a clause")
        self._undone = top

    def enumerate(self, proj: Sequence[int]) -> Iterator[SatOutcome]:
        """One Sat outcome per assignment of the literals proj that
        extends to a model, each once, in ascending lexicographic order
        of their values in proj's order (false first), then one last
        outcome: Unsat once none is left, or ResourceOut when one model's
        search ran out of budget.  proj may repeat a literal or hold a
        fixed one.  Between two outcomes the caller must make no other
        call on this solver; it may abandon the generator at any time,
        and the solver stays usable (see the module docstring)."""
        self._backtrack(0)
        if not self.ok:
            yield _UNSAT
            return
        flips: list[int] = []
        while True:
            outcome = self._search(proj, flips)
            yield outcome
            if not outcome.is_sat:
                return
            # Decision levels 1..top hold the projection decisions.
            top = max((self.level[abs(lit)] for lit in proj), default=0)
            if not self._flip(flips, top):
                self._backtrack(0)
                yield _UNSAT
                return

    def _flip(self, flips: list[int], level: int) -> bool:
        """Decide the complement of the deepest decision at or below
        level that flips (the flipped levels, ascending) does not hold,
        at its own level, and record that level as flipped.  False when
        every level down to 1 is flipped."""
        while flips and flips[-1] == level:
            flips.pop()
            level -= 1
        if level == 0:
            return False
        decision = self.trail[self.trail_lim[level - 1]]
        self._backtrack(level - 1)
        self.trail_lim.append(len(self.trail))
        self._enqueue(-decision, None)
        flips.append(level)
        return True

    def _search(self, proj: Sequence[int], flips: list[int]) -> SatOutcome:
        """CDCL from the current trail to the next model, deciding proj
        first: Sat, ResourceOut (at level 0), or Unsat.  It never
        backjumps or restarts below the deepest of flips (enumerate's
        flipped levels), and a conflict at that level flips the next one
        down; Unsat then means that no flip is left, unless the conflict
        was at level 0, which makes the clauses unsat for good."""
        conflicts = 0
        restart_idx = 1
        conflicts_since_restart = 0
        restart_limit = _RESTART_BASE * _luby(restart_idx)
        while True:
            confl = self._propagate()
            if confl is not None:
                conflicts += 1
                conflicts_since_restart += 1
                level = len(self.trail_lim)
                if level == 0:
                    self.ok = False
                    return _UNSAT
                if conflicts >= self.conflict_limit:
                    self._backtrack(0)
                    return _RESOURCE_OUT
                floor = flips[-1] if flips else 0
                if level == floor:
                    if not self._flip(flips, level):
                        self._backtrack(0)
                        return _UNSAT
                    continue
                learnt, bt_level = self._analyze(confl)
                self._backtrack(max(bt_level, floor))
                self._learn(learnt)
                self.var_inc /= _VAR_DECAY
                continue
            if conflicts_since_restart >= restart_limit:
                conflicts_since_restart = 0
                restart_idx += 1
                restart_limit = _RESTART_BASE * _luby(restart_idx)
                self._backtrack(flips[-1] if flips else 0)
                continue
            decision = self._decide(proj)
            if decision is None:
                self._check_model()
                model = tuple([v == 1 for v in self.assign[:self.nv + 1]])
                return SatOutcome("sat", model=model)
            self.trail_lim.append(len(self.trail))
            self._enqueue(decision, None)


def check_sat(formula: CnfFormula,
              conflict_limit: int = DEFAULT_CONFLICT_LIMIT) -> SatOutcome:
    """Solve a CNF formula: the first outcome of an enumeration over no
    projection.  Sat models are checked against every clause."""
    solver = Solver(formula.num_vars, conflict_limit)
    for cl in formula.clauses:
        solver.add_clause(cl)
    return next(solver.enumerate(()))
