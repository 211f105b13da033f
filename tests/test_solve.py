"""Query layer: incremental all_values/min_value against a rebuild-per-call
reference and the bit-plane oracle, on the truth-table path and on the
CDCL path alike, conflict budgets raising ResourceOut from every query
that reaches the solver, one solver_stats event per dumped query, the
same dumps and events from either path, and the one memo on
SolverLimits that group checks and enumerations share, matched modulo
an epoch shift."""

from __future__ import annotations

import json
import logging
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dctforge import corpus, engine
from dctforge import expr as ex
from dctforge import solve
from dctforge.blif import parse_blif
from dctforge.cli import main
from dctforge.cnf import Encoder
from dctforge.detect import compute_dct
from dctforge.engine import Mode, SymState, step_cycle, symbolic_step
from dctforge.errors import CapExceeded, ResourceOut, WidthMismatch
from dctforge.sat import SatOutcome, Solver, check_sat
from dctforge.rtl import parse_rtl
from dctforge.solve import (CnfDumper, SolverLimits, all_values, extends,
                            min_value, pc_sat, transitions)

from bruteforce import (BitPlanes, ExprGen, naive_eval,
                        slice_then_components, support_leaves)
from conftest import config_for, counter_blif


@pytest.fixture(params=["table", "cdcl"])
def query_path(request, monkeypatch):
    """Runs a test twice: with the default TABLE_BITS, where its small
    queries are answered from truth tables, and with TABLE_BITS = -1,
    where every query reaches the solver."""
    if request.param == "cdcl":
        monkeypatch.setattr(solve, "TABLE_BITS", -1)
    return request.param


# The query_path fixture holds for every example of a hypothesis test.
BOTH_PATHS = dict(deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


def _encoded(e: ex.Expr, pc):
    """(formula, bits of e) with every simplified conjunct of pc asserted,
    or None when a conjunct simplifies to false."""
    enc = Encoder()
    for c in pc:
        s = ex.simplify(c)
        if s.op == "const":
            if s.aux[0] == 0:
                return None
            continue
        enc.assert_lit(enc.bits(s)[0][0])
    bits, = enc.bits(ex.simplify(e))
    return enc.to_formula(), bits


def _value(outcome, bits) -> int:
    return sum(1 << i for i, lit in enumerate(bits) if outcome.lit_value(lit))


def ref_all_values(e: ex.Expr, pc) -> set[int]:
    """Blocking-clause enumeration with a fresh check_sat per value."""
    encoded = _encoded(e, pc)
    if encoded is None:
        return set()
    formula, bits = encoded
    found: set[int] = set()
    while True:
        outcome = check_sat(formula)
        if outcome.is_unsat:
            return found
        value = _value(outcome, bits)
        found.add(value)
        clause = [-lit if (value >> i) & 1 else lit
                  for i, lit in enumerate(bits) if abs(lit) != 1]
        if not clause:
            return found
        formula.clauses.append(clause)


def ref_min_value(e: ex.Expr, pc) -> int | None:
    """Bit pinning with unit clauses and a fresh check_sat per bit."""
    encoded = _encoded(e, pc)
    if encoded is None:
        return None
    formula, bits = encoded
    if not check_sat(formula).is_sat:
        return None
    value = 0
    for i in reversed(range(len(bits))):
        lit = bits[i]
        if lit == 1:
            value |= 1 << i
            continue
        if lit == -1:
            continue
        formula.clauses.append([-lit])
        if check_sat(formula).is_sat:
            continue
        formula.clauses[-1] = [lit]
        value |= 1 << i
    return value


def _query(seed: int, groups: int = 1):
    """e over the first generator's variables, and a pc of up to three
    conjuncts from each of `groups` generators with disjoint variables."""
    rng = random.Random(seed)
    size = (dict(n_vars=3, var_width=3) if groups == 1
            else dict(n_vars=2, var_width=2))
    gens = [ExprGen(rng, prefix=p, **size) for p in "vwu"[:groups]]
    e = gens[0].gen(rng.randrange(1, 4))
    pc = tuple(gen.gen(rng.randrange(1, 4), 1)
               for gen in gens for _ in range(rng.randrange(0, 4)))
    return e, pc


@settings(max_examples=80, **BOTH_PATHS)
@given(st.integers(0, 2 ** 32 - 1))
def test_all_values_equals_rebuild_reference(query_path, seed):
    e, pc = _query(seed)
    got = all_values(e, pc, cap=1 << e.width)
    assert got == ref_all_values(e, pc)
    planes = BitPlanes(support_leaves(e, *pc))
    assert got == planes.value_set(e, pc)


@settings(max_examples=80, **BOTH_PATHS)
@given(st.integers(0, 2 ** 32 - 1))
def test_min_value_equals_rebuild_reference(query_path, seed):
    e, pc = _query(seed)
    got = min_value(e, pc)
    assert got == ref_min_value(e, pc)
    values = BitPlanes(support_leaves(e, *pc)).value_set(e, pc)
    assert got == (min(values) if values else None)


def _hard_sat_conjuncts(seed: int = 7, nv: int = 60, ratio: float = 4.0):
    """A random 3-SAT instance as width-1 conjuncts: satisfiable, but
    not without conflicts."""
    rng = random.Random(seed)
    xs = [ex.var(f"x{i}", 1, 0) for i in range(nv)]
    pc = []
    for _ in range(int(ratio * nv)):
        lits = [x if rng.random() < 0.5 else ex.not_(x)
                for x in rng.sample(xs, 3)]
        pc.append(ex.or_(ex.or_(lits[0], lits[1]), lits[2]))
    return xs, tuple(pc)


TINY = SolverLimits(conflict_limit=1)


def test_hard_formula_is_satisfiable_with_default_budget():
    xs, pc = _hard_sat_conjuncts()
    assert pc_sat(pc)
    assert min_value(ex.concat(*xs[:8]), pc) is not None


def test_pc_sat_raises_resource_out():
    _, pc = _hard_sat_conjuncts()
    with pytest.raises(ResourceOut):
        pc_sat(pc, limits=TINY)


def test_all_values_raises_resource_out():
    xs, pc = _hard_sat_conjuncts()
    with pytest.raises(ResourceOut):
        all_values(ex.concat(*xs[:4]), pc, cap=16, limits=TINY)


def test_min_value_raises_resource_out():
    xs, pc = _hard_sat_conjuncts()
    with pytest.raises(ResourceOut):
        min_value(ex.concat(*xs[:4]), pc, limits=TINY)


def test_pc_sat_constant_conjuncts():
    _, pc = _hard_sat_conjuncts()
    assert not pc_sat(pc + (ex.const(1, 0),))
    assert pc_sat((ex.const(1, 1),))


class _Labels:
    """A CnfDumper stand-in that records query labels and formulas."""

    def __init__(self):
        self.labels = []
        self.formulas = []

    def dump(self, formula, label):
        self.labels.append(label)
        self.formulas.append(formula)


def test_step_feasibility_raises_resource_out():
    """A split guard that shares a variable with the path constraint is
    solved with the slice it links to; its budget running out raises
    instead of pruning.  The input x7 (step 0) occurs in the hard
    instance, which is satisfiable with x7 at either value."""
    _, pc = _hard_sat_conjuncts()
    c = parse_rtl("circuit t\ninput x7:1\n"
                  "reg r:2 reset 0 next x7 ? 2'd1 : 2'd2\noutput y:2 = r\n")
    labels = _Labels()
    cfg = config_for(c, ["r"], depth=1, limits=SolverLimits(dumper=labels))
    s = SymState({"r": ex.const(2, 0)}, pc, 0)
    assert len(step_cycle(c, s, cfg)) == 2
    assert labels.labels[0] == "step-feasibility"
    tiny = config_for(c, ["r"], depth=1, limits=TINY)
    with pytest.raises(ResourceOut):
        step_cycle(c, s, tiny)


def test_fresh_guard_never_solves_the_path_constraint():
    """A guard on a fresh input shares no variable with a satisfiable pc,
    so its feasibility query holds the guard alone, even when pc is the
    hard instance and the budget is one conflict."""
    _, pc = _hard_sat_conjuncts()
    c = parse_rtl("circuit t\ninput d:1\n"
                  "reg r:2 reset 0 next d ? 2'd1 : 2'd2\noutput y:2 = r\n")
    s = SymState({"r": ex.const(2, 0)}, pc, 0)
    for conflict_limit in (10 ** 6, 1):
        dumps = _Labels()
        limits = SolverLimits(conflict_limit=conflict_limit, dumper=dumps)
        succs = step_cycle(c, s, config_for(c, ["r"], depth=1, limits=limits))
        assert len(succs) == 2
        assert dumps.labels == ["step-feasibility"] * 2
        assert all(f.num_vars < 5 for f in dumps.formulas)


def test_partial_mode_checks_no_guard_after_the_first_feasible():
    """Partial mode keeps the first feasible alternative of a split, and
    checks no guard after it.  The first arm's guard (d == 0) is cut by
    pc, so the second (d == 1) is kept; bfs checks all four guards."""
    c = parse_rtl("circuit t\ninput d:2\n"
                  "reg r:2 reset 0 next case(d){ 2'd0: 2'd1; 2'd1: 2'd2; "
                  "2'd2: 2'd3; default: 2'd0 }\noutput y:2 = r\n")
    s = SymState({"r": ex.const(2, 0)},
                 (ex.ne(ex.var("d", 2, 0), ex.const(2, 0)),), 0)
    for mode, checks, successors in ((Mode.PARTIAL, 2, [2]),
                                     (Mode.BFS, 4, [2, 3, 0])):
        labels = _Labels()
        cfg = config_for(c, ["r"], depth=1, mode=mode,
                         limits=SolverLimits(dumper=labels))
        succs = step_cycle(c, s, cfg)
        assert [x.regs["r"].aux[0] for x in succs] == successors
        assert labels.labels == ["step-feasibility"] * checks


def _new_conjuncts(seed: int):
    """One or two width-1 conjuncts over the variables of _query's three
    groups and of a fourth, fresh group; some link two groups."""
    rng = random.Random(seed)
    gens = [ExprGen(rng, prefix=p, n_vars=2, var_width=2) for p in "vwuz"]
    new = []
    for _ in range(rng.randrange(1, 3)):
        a, b = rng.sample(gens, 2)
        c = a.gen(rng.randrange(0, 3), 1)
        if rng.random() < 0.5:
            c = ex.or_(c, b.gen(rng.randrange(0, 3), 1))
        new.append(c)
    return tuple(new)


def _satisfiable_pc(seed: int):
    """The three-group pc of _query(seed, groups=3), each conjunct negated
    where needed so that one random assignment of its variables satisfies
    every conjunct: satisfiable by construction, no filtering needed."""
    _, pc = _query(seed, groups=3)
    rng = random.Random(seed)
    env = {(leaf.op,) + leaf.aux: rng.randrange(1 << leaf.width)
           for leaf in support_leaves(*pc)}
    return tuple(c if naive_eval(c, env) else ex.not_(c) for c in pc)


@settings(max_examples=80, **BOTH_PATHS)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
def test_extends_equals_pc_sat(query_path, seed, new_seed):
    """For a satisfiable multi-group pc, extends answers pc + new exactly,
    with a fresh memo and with one that pc_sat already filled."""
    pc = _satisfiable_pc(seed)
    assert pc_sat(pc)
    new = _new_conjuncts(new_seed)
    expected = pc_sat(pc + new)
    planes = BitPlanes(support_leaves(*pc, *new))
    assert expected == (planes.truth_plane(pc + new) != 0)
    assert extends(pc, new) == expected
    limits = SolverLimits()
    pc_sat(pc, limits)
    assert extends(pc, new, limits) == expected


def test_min_value_is_the_first_step_of_one_enumeration(monkeypatch):
    """min_value takes the first value of its enumeration and stops: it
    writes one dump, stores nothing in the memo, and a later all_values
    on the same limits still finds every value.  After that all_values,
    min_value replays the stored answer, whose first value is the
    smallest, and writes no dump.  A solver whose enumeration runs out
    of budget at once makes min_value raise ResourceOut and store
    nothing.  Every query here reaches the solver."""
    monkeypatch.setattr(solve, "TABLE_BITS", -1)
    v = ex.var("v", 3, 0)
    pc = (ex.ne(ex.slice_(v, 1, 2), ex.const(2, 0)),
          ex.ne(v, ex.const(3, 3)))  # the values 4 to 7 and 2
    labels = _Labels()
    limits = SolverLimits(dumper=labels)
    assert min_value(v, pc, limits=limits) == 2 == ref_min_value(v, pc)
    assert labels.labels == ["min-value"]
    assert not limits.answers
    assert all_values(v, pc, limits=limits) == {2, 4, 5, 6, 7}
    [answer] = limits.answers.values()
    assert answer == [(2,), (4,), (5,), (6,), (7,)]
    dumps = len(labels.labels)
    assert min_value(v, pc, limits=limits) == 2
    assert len(labels.labels) == dumps

    class OutOfBudgetAtOnce(Solver):
        def enumerate(self, proj):
            yield SatOutcome("resource-out", limit_name="conflict-budget")

    monkeypatch.setattr(solve, "Solver", OutOfBudgetAtOnce)
    limits = SolverLimits()
    with pytest.raises(ResourceOut):
        min_value(v, pc, limits=limits)
    assert not limits.answers


def _hard_guard_rtl() -> str:
    """A circuit whose one split guard is _hard_sat_conjuncts' formula
    over 60 inputs: its feasibility check is a CDCL query, and one that
    takes more than one conflict."""
    xs, pc = _hard_sat_conjuncts()
    names = {x: f"x{i}" for i, x in enumerate(xs)}

    def lit(e):
        return f"~{names[e.args[0]]}" if e.op == "not" else names[e]

    clauses = [f"({lit(c.args[0].args[0])} | {lit(c.args[0].args[1])} | "
               f"{lit(c.args[1])})" for c in pc]
    return ("circuit hard\n"
            + "".join(f"input x{i}:1\n" for i in range(len(xs)))
            + f"reg r:2 reset 0 next {' & '.join(clauses)} ? 2'd1 : 2'd2\n"
            + "output y:2 = r\n")


def test_cli_tiny_conflict_limit_exits_one_without_report(tmp_path, capsys):
    path = tmp_path / "hard.snl"
    path.write_text(_hard_guard_rtl(), encoding="utf-8")
    for command in ("analyze", "trojan"):
        out = tmp_path / f"{command}.json"
        code = main([command, "--circuit", str(path), "--state", "r",
                     "--conflict-limit", "1", "--out", str(out)])
        assert code == 1
        assert "resource limit exceeded: conflict-budget" in \
            capsys.readouterr().err
        assert not out.exists()


def test_ima_needs_no_conflict_budget(tmp_path):
    """Every query of an ima.snl analysis is small enough for a truth
    table, so a one-conflict budget gives the report the default gives,
    timing aside."""
    path = str(corpus.corpus_path("ima.snl"))
    for command in ("analyze", "trojan"):
        reports, codes = [], []
        for limit in ("1", str(solve.DEFAULT_CONFLICT_LIMIT)):
            out = tmp_path / f"{command}-{limit}.json"
            codes.append(main([command, "--circuit", path, "--state", "pcmSq",
                               "--conflict-limit", limit, "--out", str(out)]))
            report = json.loads(out.read_text(encoding="utf-8"))
            report.pop("timing_ms")
            reports.append(report)
        assert codes[0] == codes[1] != 1
        assert reports[0] == reports[1]


def test_solver_stats_event_per_dumped_query(ima, caplog):
    """Every solver call, incremental ones included, logs one solver_stats
    event under the label its dump carries."""
    labels = _Labels()
    cfg = config_for(ima, ["pcmSq"], depth=3,
                     limits=SolverLimits(dumper=labels))
    with caplog.at_level(logging.DEBUG, logger="dctforge.solve"):
        compute_dct(ima, cfg)
    events = [json.loads(r.getMessage()) for r in caplog.records
              if r.name == "dctforge.solve"]
    events = [e for e in events if e["event"] == "solver_stats"]
    assert {"all-values", "min-value"} <= set(labels.labels)
    assert [e["label"] for e in events] == labels.labels


def test_enumeration_dumps_and_events(monkeypatch, caplog):
    """An all_values and a transitions query each write one dump and log
    one solver_stats event per model, plus one for the step that finds
    no more, under their labels.  The k-th dump is the query's formula
    plus k-1 clauses, each excluding one tuple yielded before it, in the
    order found, so each dump asks its step's question.  Without a
    dumper no such clause is built, and the events are the same.  Every
    query here reaches the solver."""
    monkeypatch.setattr(solve, "TABLE_BITS", -1)
    v, u = ex.var("v", 3, 0), ex.var("u", 2, 0)
    pc = (ex.ult(v, ex.const(3, 5)), ex.ne(u, ex.slice_(v, 0, 1)))
    loaded = []
    real_loaded = solve._loaded

    def recording_loaded(*args):
        loaded.append(real_loaded(*args))
        return loaded[-1]

    def run(dumper):
        limits = SolverLimits(dumper=dumper)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="dctforge.solve"):
            all_values(v, pc, cap=8, limits=limits)
            transitions(v, u, pc, cap=8, limits=limits)
        events = [json.loads(r.getMessage()) for r in caplog.records
                  if r.name == "dctforge.solve"]
        return limits, [e for e in events if e["event"] == "solver_stats"]

    monkeypatch.setattr(solve, "_loaded", recording_loaded)
    with monkeypatch.context() as m:
        m.setattr(solve, "_exclusion", None)  # never called without a dumper
        _, plain_events = run(None)
    labels = _Labels()
    limits, events = run(labels)
    assert events == plain_events
    assert [e["label"] for e in events] == labels.labels
    # No rest group: the two queries are the only solver calls.
    answers = list(limits.answers.values())
    assert len(answers) == len(loaded[2:]) == 2
    assert len(answers[0]) == 5 and len(answers[1]) == 15
    for (formula, _, bits), found, label in zip(
            loaded[2:], answers, ("all-values", "transitions")):
        dumps = [f for x, f in zip(labels.labels, labels.formulas)
                 if x == label]
        stats = [e for e in events if e["label"] == label]
        assert len(dumps) == len(stats) == len(found) + 1
        assert [e["status"] for e in stats] == \
            ["sat"] * len(found) + ["unsat"]
        excluding = [[-lit if (x >> i) & 1 else lit
                      for b, x in zip(bits, values)
                      for i, lit in enumerate(b) if abs(lit) != 1]
                     for values in found]
        for k, (dumped, event) in enumerate(zip(dumps, stats)):
            assert dumped.clauses == formula.clauses + excluding[:k]
            assert event["clauses"] == len(dumped.clauses)
            assert check_sat(dumped).status == event["status"]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_sliced_queries_equal_rebuild_reference(seed):
    """Multi-group path constraints, every query sharing one limits (and
    so one group memo), against the references and the oracle."""
    e, pc = _query(seed, groups=3)
    limits = SolverLimits()
    planes = BitPlanes(support_leaves(e, *pc))
    values = planes.value_set(e, pc)
    got = all_values(e, pc, cap=1 << e.width, limits=limits)
    assert got == ref_all_values(e, pc) == values
    assert min_value(e, pc, limits=limits) == ref_min_value(e, pc)
    assert pc_sat(pc, limits) == (planes.truth_plane(pc) != 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_partition_equals_slice_then_components(seed):
    """solve._partition, one union-find, splits a conjunct list as the
    grow-until-no-change slice plus a union-find over the rest does:
    the same related slice and the same groups, in the same orders.
    Each conjunct draws on one or two of six variables, so groups chain
    through shared ones, and the query's leaves may include variables
    no conjunct touches."""
    rng = random.Random(seed)
    pool = [ex.var(f"p{i}", 2, 0) for i in range(6)]
    untouched = [ex.var("z", 2, 0), ex.ref("r", 1)]
    gen = ExprGen(rng)
    conjuncts = []
    for _ in range(rng.randrange(0, 9)):
        gen.vars = rng.sample(pool, rng.randrange(1, 3))
        conjuncts.append(gen.gen(rng.randrange(0, 3), 1))
    leaves = frozenset(rng.sample(pool + untouched, rng.randrange(0, 4)))
    assert (solve._partition(leaves, conjuncts)
            == slice_then_components(leaves, conjuncts))


def test_unsat_group_disjoint_from_query():
    v, w = ex.var("v", 3, 0), ex.var("w", 2, 0)
    related = (ex.ult(v, ex.const(3, 5)),)
    never = (ex.ult(w, ex.const(2, 1)), ex.ne(w, ex.const(2, 0)))
    for pc in (related + never, never + related):
        planes = BitPlanes(support_leaves(v, *pc))
        assert all_values(v, pc) == set() == ref_all_values(v, pc)
        assert planes.value_set(v, pc) == set()
        assert min_value(v, pc) is None is ref_min_value(v, pc)
        assert not pc_sat(pc)
    assert all_values(v, related) == {0, 1, 2, 3, 4}


def test_resource_out_group_is_solved_again():
    """A group whose budget ran out is not remembered: the next call with
    the same limits solves it again and raises again, while the easy
    group beside it stays answered from the memo."""
    _, hard = _hard_sat_conjuncts()
    y = ex.var("y", 2, 0)
    pc = (ex.eq(y, ex.const(2, 1)),) + hard
    labels = _Labels()
    limits = SolverLimits(conflict_limit=1, dumper=labels)
    counts = []
    for _ in range(2):
        with pytest.raises(ResourceOut):
            pc_sat(pc, limits)
        counts.append(len(labels.labels))
    assert counts == [2, 3]
    with pytest.raises(ResourceOut):
        all_values(y, pc, cap=4, limits=limits)
    assert labels.labels[3:] == ["all-values"]


def test_each_group_solved_once_per_limits():
    """Growing path constraints over three independent groups, as a long
    exploration builds them: every distinct group is solved once per
    limits, however many queries contain it."""
    conjuncts = []
    for g in range(3):
        x, y = ex.var(f"x{g}", 3, 0), ex.var(f"y{g}", 3, 0)
        conjuncts.append([ex.ult(x, ex.const(3, 6)), ex.ne(x, y),
                          ex.ult(y, ex.add(x, ex.const(3, 1)))])
    order = [conjuncts[g][i] for i in range(3) for g in range(3)]
    prefixes = [tuple(order[:n]) for n in range(1, len(order) + 1)]
    labels = _Labels()
    limits = SolverLimits(dumper=labels)
    for pc in prefixes + prefixes:
        assert pc_sat(pc, limits)
    # One new group per added conjunct, none solved twice.
    assert labels.labels == ["pc-sat"] * len(order)
    # A feasibility check whose group pc_sat already solved is no solve.
    last = conjuncts[0][2]
    assert extends(tuple(c for c in order if c is not last), (last,), limits)
    assert labels.labels == ["pc-sat"] * len(order)
    x0 = ex.var("x0", 3, 0)
    assert all_values(x0, prefixes[-1], cap=8, limits=limits) == {1, 2, 3, 4, 5}
    assert set(labels.labels[len(order):]) == {"all-values"}
    fresh = _Labels()
    pc_sat(prefixes[-1], SolverLimits(dumper=fresh))
    assert fresh.labels == ["pc-sat"] * 3


def _per_destination(dst, src, pc, cap):
    """transitions the long way: one source query per destination."""
    return {d: all_values(src, pc + (ex.eq(dst, ex.const(dst.width, d)),),
                          cap=cap)
            for d in all_values(dst, pc, cap=cap)}


def _pair_query(seed: int):
    """(dst, src, pc): pc over three generators with disjoint variables;
    dst and src each over the first two generators or constant, so
    either may be independent of the other and of parts of pc."""
    rng = random.Random(seed)
    gens = [ExprGen(rng, prefix=p, n_vars=2, var_width=2) for p in "vwu"]

    def part():
        if rng.random() < 0.2:
            w = rng.choice([1, 2, 3])
            return ex.const(w, rng.randrange(1 << w))
        return rng.choice(gens[:2]).gen(rng.randrange(0, 4))

    dst, src = part(), part()
    pc = tuple(gen.gen(rng.randrange(1, 4), 1)
               for gen in gens for _ in range(rng.randrange(0, 4)))
    if rng.random() < 0.1:
        x = ex.slice_(gens[2].vars[0], 0, 0)
        pc += (x, ex.not_(x))
    return dst, src, pc


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_transitions_equal_per_destination_queries(seed):
    """The pair query gives every destination's sources exactly: equal to
    one all_values per destination and to the bit-plane oracle, with a
    fresh memo and with one shared across queries."""
    dst, src, pc = _pair_query(seed)
    cap = 1 << max(dst.width, src.width)
    expected = _per_destination(dst, src, pc, cap)
    assert transitions(dst, src, pc, cap=cap) == expected
    pairs = BitPlanes(support_leaves(dst, src, *pc)).value_set(
        ex.concat(dst, src), pc)
    mask = (1 << src.width) - 1
    assert {(d, s) for d, srcs in expected.items() for s in srcs} == \
        {(p >> src.width, p & mask) for p in pairs}
    limits = SolverLimits()
    pc_sat(pc, limits)
    assert transitions(dst, src, pc, cap=cap, limits=limits) == expected


def test_transitions_edge_cases():
    v, w = ex.var("v", 2, 0), ex.var("w", 2, 0)
    never = (ex.ult(w, ex.const(2, 1)), ex.ne(w, ex.const(2, 0)))
    related = (ex.ne(v, ex.const(2, 3)),)
    # An unsatisfiable pc, in a group of its own or not, has no pairs.
    assert transitions(v, w, never) == {} == _per_destination(v, w, never, 4)
    assert transitions(v, v, related + never) == {}
    # Constant parts.
    three = ex.const(2, 3)
    assert transitions(three, v, related) == {3: {0, 1, 2}}
    assert transitions(v, three, related) == {0: {3}, 1: {3}, 2: {3}}
    assert transitions(three, three, ()) == {3: {3}}
    # Independent parts: every source reaches every destination.
    assert transitions(v, w, related) == {d: {0, 1, 2, 3} for d in range(3)}
    # One leaf shared: the source pins the destination.
    assert transitions(ex.add(v, ex.const(2, 1)), v, related) == \
        {1: {0}, 2: {1}, 3: {2}}


def test_transitions_raise_as_per_destination_queries():
    """CapExceeded exactly when the per-destination queries raise it, on
    a destination or a source overflow, and the same WidthMismatch."""
    v, w = ex.var("v", 3, 0), ex.var("w", 3, 0)
    few_dsts = ex.and_(v, ex.const(3, 1))     # 2 destinations, 4 sources each
    for dst, src, cap, raises in [(few_dsts, v, 4, False),
                                  (few_dsts, v, 3, True),
                                  (v, few_dsts, 4, True),
                                  (v, few_dsts, 8, False),
                                  (v, w, 8, False),
                                  (v, w, 7, True)]:
        if raises:
            with pytest.raises(CapExceeded):
                _per_destination(dst, src, (), cap)
            with pytest.raises(CapExceeded) as caught:
                transitions(dst, src, (), cap=cap)
            assert caught.value.cap == cap
        else:
            assert transitions(dst, src, (), cap=cap) == \
                _per_destination(dst, src, (), cap)
    wide = ex.var("x", solve.ALL_VALUES_WIDTH_CAP + 1, 0)
    for dst, src in [(wide, v), (v, wide)]:
        with pytest.raises(WidthMismatch) as caught:
            transitions(dst, src, ())
        with pytest.raises(WidthMismatch) as expected:
            all_values(wide, ())
        assert str(caught.value) == str(expected.value)



def test_repeated_enumeration_solved_once_per_limits():
    """An all_values or transitions query asked again, with unrelated
    conjuncts appended to its path constraint, replays its remembered
    answer: its solve sequence is dumped only once."""
    v, u, w = ex.var("v", 3, 0), ex.var("u", 2, 0), ex.var("w", 2, 0)
    related = (ex.ult(v, ex.const(3, 5)), ex.ne(u, ex.slice_(v, 0, 1)))
    pcs = [related + tuple(ex.ne(w, ex.const(2, k)) for k in range(n))
           for n in range(4)]
    labels = _Labels()
    limits = SolverLimits(dumper=labels)
    for pc in pcs:
        # The unrelated groups are solved here, under their own label.
        assert pc_sat(pc, limits)
        assert all_values(v, pc, cap=8, limits=limits) == {0, 1, 2, 3, 4}
        assert transitions(v, u, pc, cap=8, limits=limits) == \
            transitions(v, u, pc, cap=8)
    # 5 values and the closing UNSAT; 5 * 3 = 15 pairs and the UNSAT.
    assert [x for x in labels.labels if x != "pc-sat"] == \
        ["all-values"] * 6 + ["transitions"] * 16


def test_memo_hit_checks_the_unrelated_groups_first():
    """A remembered answer is replayed only once every unrelated group of
    the new path constraint is satisfiable."""
    v, u, w = ex.var("v", 3, 0), ex.var("u", 2, 0), ex.var("w", 2, 0)
    related = (ex.ult(v, ex.const(3, 5)),)
    never = (ex.ult(w, ex.const(2, 1)), ex.ne(w, ex.const(2, 0)))
    limits = SolverLimits()
    assert all_values(v, related, limits=limits) == {0, 1, 2, 3, 4}
    assert transitions(v, u, related, limits=limits) == \
        {d: {0, 1, 2, 3} for d in range(5)}
    assert all_values(v, related + never, limits=limits) == set()
    assert transitions(v, u, related + never, limits=limits) == {}


def test_cap_exceeded_enumeration_is_not_remembered():
    """A consumer that stops early with CapExceeded leaves no partial
    answer: a later call with a larger cap gets the full one."""
    v, u = ex.var("v", 3, 0), ex.var("u", 2, 0)
    pc = (ex.ult(v, ex.const(3, 6)), ex.ne(u, ex.slice_(v, 0, 1)))
    limits = SolverLimits()
    with pytest.raises(CapExceeded):
        all_values(v, pc, cap=2, limits=limits)
    assert all_values(v, pc, cap=8, limits=limits) == \
        all_values(v, pc, cap=8, limits=SolverLimits()) == set(range(6))
    with pytest.raises(CapExceeded):
        transitions(v, u, pc, cap=2, limits=limits)
    full = transitions(v, u, pc, cap=8, limits=SolverLimits())
    assert transitions(v, u, pc, cap=8, limits=limits) == full
    assert sum(map(len, full.values())) == 18


def test_resource_out_enumeration_is_solved_again():
    """An enumeration whose budget ran out is not remembered: the next
    call solves it again and raises again."""
    xs, pc = _hard_sat_conjuncts()
    labels = _Labels()
    limits = SolverLimits(conflict_limit=1, dumper=labels)
    for query in (lambda: all_values(ex.concat(*xs[:4]), pc, cap=16,
                                     limits=limits),
                  lambda: transitions(ex.concat(*xs[:2]),
                                      ex.concat(*xs[2:4]), pc, cap=16,
                                      limits=limits)):
        counts = []
        for _ in range(2):
            with pytest.raises(ResourceOut):
                query()
            counts.append(len(labels.labels))
        assert counts[1] > counts[0]
    assert not limits.answers


def test_free_enumeration_makes_no_conflict(monkeypatch):
    """all_values of a free 10-bit variable finds its 1,024 values without
    a single conflict: after each model the enumeration flips its last
    projection decision, so no search is ever undone.  One blocking
    clause per value, every later solve propagating through all of them,
    made hundreds of conflicts here.  The query reaches the solver."""
    monkeypatch.setattr(solve, "TABLE_BITS", -1)
    conflicts = []

    class CountingConflicts(Solver):
        def _propagate(self):
            confl = super()._propagate()
            if confl is not None:
                conflicts.append(confl)
            return confl

    monkeypatch.setattr(solve, "Solver", CountingConflicts)
    v = ex.var("v", 10, 0)
    assert all_values(v, (), cap=1024) == set(range(1024))
    assert conflicts == []


def test_repeated_tuple_is_an_error(monkeypatch):
    """Each tuple an enumeration yields must be new: an enumerator that
    yields a model twice makes the query raise, never answer.  The query
    reaches the solver."""
    monkeypatch.setattr(solve, "TABLE_BITS", -1)
    class Stutter(Solver):
        def enumerate(self, proj):
            models = super().enumerate(proj)
            first = next(models)
            yield first
            yield first
            yield from models

    monkeypatch.setattr(solve, "Solver", Stutter)
    with pytest.raises(AssertionError, match="repeated a tuple"):
        all_values(ex.var("v", 2, 0), (), cap=4)


def test_resource_out_mid_enumeration_leaves_the_solver_usable(monkeypatch):
    """A budget of one conflict from the first model on raises
    ResourceOut partway through the enumeration and remembers nothing.
    The solver stays usable: with the budget restored, a new enumeration
    over the same bits finds exactly the expected values, each once."""
    xs, pc = _hard_sat_conjuncts(ratio=3.8)  # 6 values of x0..x3
    e = ex.concat(*xs[:4])
    expected = all_values(e, pc, cap=16)

    class TinyBudgetAfterFirstModel(Solver):
        def enumerate(self, proj):
            self.models = 0
            for outcome in super().enumerate(proj):
                if outcome.is_sat:
                    self.models += 1
                    self.conflict_limit = 1
                yield outcome

    loaded = []

    def recording_loaded(*args):
        loaded.append(real_loaded(*args))
        return loaded[-1]

    real_loaded = solve._loaded
    monkeypatch.setattr(solve, "Solver", TinyBudgetAfterFirstModel)
    monkeypatch.setattr(solve, "_loaded", recording_loaded)
    limits = SolverLimits()
    with pytest.raises(ResourceOut):
        all_values(e, pc, cap=16, limits=limits)
    assert not limits.answers
    _, solver, (bits,) = loaded[-1]
    assert 1 <= solver.models < len(expected)
    solver.conflict_limit = solve.DEFAULT_CONFLICT_LIMIT
    outcomes = list(Solver.enumerate(solver, [abs(lit) for lit in bits]))
    assert outcomes[-1].is_unsat
    values = [_value(outcome, bits) for outcome in outcomes[:-1]]
    assert len(values) == len(set(values)) and set(values) == expected


@settings(max_examples=60, **BOTH_PATHS)
@given(st.integers(0, 2 ** 32 - 1))
def test_memoised_enumerations_equal_fresh_answers(query_path, seed):
    """Growing then shrinking path constraints, as explorations build
    them, with every query on one limits: each answer equals a fresh
    limits' answer and the bit-plane oracle."""
    e, pc = _query(seed, groups=3)
    dst, src, pair_pc = _pair_query(seed)
    limits = SolverLimits()
    planes = BitPlanes(support_leaves(e, dst, src, *pc, *pair_pc))
    both = ex.concat(dst, src)
    mask = (1 << src.width) - 1
    prefixes = list(range(len(pc) + 1))
    pair_prefixes = list(range(len(pair_pc) + 1))
    for n in prefixes + prefixes[::-1]:
        p = pc[:n]
        got = all_values(e, p, cap=1 << e.width, limits=limits)
        assert got == all_values(e, p, cap=1 << e.width) == \
            planes.value_set(e, p)
    for n in pair_prefixes + pair_prefixes[::-1]:
        p = pair_pc[:n]
        cap = 1 << max(dst.width, src.width)
        got = transitions(dst, src, p, cap=cap, limits=limits)
        assert got == transitions(dst, src, p, cap=cap)
        assert {(d, s) for d, srcs in got.items() for s in srcs} == \
            {(b >> src.width, b & mask) for b in planes.value_set(both, p)}
        assert all_values(dst, p, cap=1 << dst.width, limits=limits) == \
            set(got)


def _epoch_queries(t: int):
    """(pc, e, (dst, src)) over the variables of two cycles, steps t and
    t + 1, as a step of an exploration asks them."""
    x, y, x1 = ex.var("x", 3, t), ex.var("y", 2, t), ex.var("x", 3, t + 1)
    pc = (ex.ult(x, ex.const(3, 6)), ex.ne(y, ex.slice_(x, 0, 1)),
          ex.eq(x1, ex.add(x, ex.zext(y, 3))))
    return pc, x1, (x1, x)


def _ask_epoch_queries(t: int, limits: SolverLimits):
    pc, e, (dst, src) = _epoch_queries(t)
    return (pc_sat(pc, limits), all_values(e, pc, cap=8, limits=limits),
            transitions(dst, src, pc, cap=8, limits=limits))


@pytest.mark.parametrize("first, later", [(0, 1), (0, 3), (2, 5)])
def test_epoch_shifted_query_replays_the_memo(first, later, caplog):
    """A group check asked again with every variable later by the same
    number of steps is answered from the memo: no dump and no
    solver_stats event.  An all_values and a transitions query asked
    that way are solved again, since enumerations are looked up by their
    exact key only.  Every answer is the one a fresh SolverLimits
    gives."""
    labels = _Labels()
    limits = SolverLimits(dumper=labels)
    answers = _ask_epoch_queries(first, limits)
    dumped = len(labels.labels)
    assert {"pc-sat", "all-values", "transitions"} <= set(labels.labels)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="dctforge.solve"):
        again = _ask_epoch_queries(later, limits)
    solved = labels.labels[dumped:]
    assert set(solved) == {"all-values", "transitions"}
    events = [r for r in caplog.records if r.name == "dctforge.solve"]
    assert len(events) == len(solved)
    assert again == answers == _ask_epoch_queries(later, SolverLimits())
    assert answers[0] and len(answers[1]) > 1


def test_epoch_gap_is_part_of_the_key():
    """Queries that differ only in the gap between two epochs (x at steps
    1 and 2, then at steps 1 and 3) have different normal forms, so each
    is solved."""
    labels = _Labels()
    limits = SolverLimits(dumper=labels)
    normal_forms = []
    for later in (2, 3):
        x1, xl = ex.var("x", 2, 1), ex.var("x", 2, later)
        pc = (ex.ult(xl, x1),)
        normal_forms.append(ex.epoch_normal_form([xl, *pc]))
        before = len(labels.labels)
        assert all_values(xl, pc, cap=4, limits=limits) == {0, 1, 2}
        assert labels.labels[before:] == ["all-values"] * 4
    assert normal_forms[0] != normal_forms[1]


def test_query_with_a_step_minus_one_variable_interns_nothing():
    """A group check holding a step -1 variable (stage 2's free
    registers) keeps its exact key: the memo lookup builds no node.  A
    group check whose variables are all later than step 0 interns its
    normal form.  An all_values query over such variables interns
    nothing: enumerations are looked up by their exact key only."""
    # Names no other test uses: the intern table is process-wide.
    r, x = ex.var("intern_r", 2, -1), ex.var("intern_x", 2, 4)
    y = ex.var("intern_y", 2, 4)
    cases = [(None, (ex.ult(x, r),)),
             (None, (ex.ult(x, ex.var("intern_x", 2, 5)),)),
             (ex.add(y, ex.var("intern_y", 2, 5)),
              (ex.ult(y, ex.const(2, 3)),))]
    grew = []
    for e, pc in cases:
        pc = tuple(ex.simplify(c) for c in pc)
        if e is None:
            before = len(ex._intern_table)
            assert pc_sat(pc)
        else:
            e = ex.simplify(e)
            before = len(ex._intern_table)
            assert all_values(e, pc, cap=4) == set(range(4))
        grew.append(len(ex._intern_table) - before)
    assert grew[0] == 0 and grew[1] > 0 and grew[2] == 0


def _later(e: ex.Expr, d: int, memo: dict) -> ex.Expr:
    """e with every variable d steps later, by plain recursion."""
    if e not in memo:
        if e.op == "var":
            name, step = e.aux
            memo[e] = ex.var(name, e.width, step + d)
        else:
            memo[e] = ex._mk(e.op, e.width,
                             tuple(_later(a, d, memo) for a in e.args), e.aux)
    return memo[e]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_epoch_shifted_queries_equal_bruteforce(seed, d):
    """Random queries, the same with every variable d steps later, with
    only some conjuncts later (mixed epochs) and that mix later again,
    all asked on one SolverLimits: every answer equals the bit-plane
    oracle's."""
    e, pc = _query(seed, groups=3)
    dst, src, pair_pc = _pair_query(seed)

    def later(query):
        memo: dict = {}
        return tuple(tuple(_later(c, d, memo) for c in part)
                     if isinstance(part, tuple) else _later(part, d, memo)
                     for part in query)

    whole = (e, pc, dst, src, pair_pc)
    mixed = (e, tuple(_later(c, d, {}) if i % 2 else c
                      for i, c in enumerate(pc)), dst, src, pair_pc)
    variants = [whole, later(whole), mixed, later(mixed)]
    limits = SolverLimits()
    mask = (1 << src.width) - 1
    for e_, pc_, dst_, src_, pair_pc_ in variants + variants:
        values = BitPlanes(support_leaves(e_, *pc_)).value_set(e_, pc_)
        assert all_values(e_, pc_, cap=1 << e_.width, limits=limits) == values
        assert pc_sat(pc_, limits) == bool(values)
        pairs = BitPlanes(support_leaves(dst_, src_, *pair_pc_)).value_set(
            ex.concat(dst_, src_), pair_pc_)
        got = transitions(dst_, src_, pair_pc_,
                          cap=1 << max(dst.width, src.width), limits=limits)
        assert {(x, s) for x, srcs in got.items() for s in srcs} == \
            {(p >> src.width, p & mask) for p in pairs}


def _table_query(seed: int):
    """(e, dst, src, pc) over one ExprGen's variables, every operator
    possible, with 0 to TABLE_BITS support bits in all."""
    rng = random.Random(seed)
    gen = ExprGen(rng, n_vars=rng.randrange(1, 5),
                  var_width=rng.randrange(1, 4))
    e, dst, src = (gen.gen(rng.randrange(0, 4)) for _ in range(3))
    pc = tuple(gen.gen(rng.randrange(0, 4), 1)
               for _ in range(rng.randrange(0, 4)))
    return e, dst, src, pc


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_table_answers_equal_cdcl_answers(seed):
    """min_value, pc_sat, all_values and transitions give the same
    answers from truth tables as from CDCL, and leave the same memo,
    lists in the same ascending order; both match the bit-plane oracle.
    The table side never builds a solver."""
    e, dst, src, pc = _table_query(seed)
    leaves = support_leaves(e, dst, src, *pc)
    assert sum(leaf.width for leaf in leaves) <= solve.TABLE_BITS
    cap = 1 << max(dst.width, src.width)

    def ask():
        limits = SolverLimits()
        answers = (min_value(e, pc, limits), pc_sat(pc, limits),
                   all_values(e, pc, cap=1 << e.width, limits=limits),
                   transitions(dst, src, pc, cap=cap, limits=limits))
        return answers, limits.answers

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solve, "Solver", None)
        table = ask()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solve, "TABLE_BITS", -1)
        cdcl = ask()
    assert table == cdcl
    assert all(answer == sorted(answer) for answer in table[1].values())
    planes = BitPlanes(leaves)
    values = planes.value_set(e, pc)
    pairs = planes.value_set(ex.concat(dst, src), pc)
    mask = (1 << src.width) - 1
    least, sat, got, trans = table[0]
    assert least == (min(values) if values else None)
    assert sat == bool(values) and got == values
    assert {(d, s) for d, srcs in trans.items() for s in srcs} == \
        {(p >> src.width, p & mask) for p in pairs}


def test_table_queries_are_held_to_no_cdcl_budget():
    """The conflict budget and the clause cap bound CDCL queries only: at
    one conflict and one clause, queries within TABLE_BITS answer as
    with the defaults, a dumper writing their formulas, while a query
    above TABLE_BITS still runs out."""
    v, u = ex.var("v", 3, 0), ex.var("u", 2, 0)
    pc = (ex.ult(v, ex.const(3, 5)), ex.ne(u, ex.slice_(v, 0, 1)))
    labels = _Labels()
    tight = SolverLimits(conflict_limit=1, clause_cap=1, dumper=labels)
    assert all_values(v, pc, cap=8, limits=tight) == {0, 1, 2, 3, 4}
    assert transitions(v, u, pc, cap=8, limits=tight) == \
        transitions(v, u, pc, cap=8)
    assert len(labels.formulas) == 6 + 16
    assert all(len(f.clauses) > 1 for f in labels.formulas)
    _, hard = _hard_sat_conjuncts()
    for limits in (SolverLimits(conflict_limit=1),
                   SolverLimits(clause_cap=1)):
        with pytest.raises(ResourceOut):
            pc_sat(hard, limits)


def test_table_queries_encode_no_cnf_clause(tmp_path, caplog, monkeypatch):
    """With no dumper and no debug logging, a table-answered all_values,
    transitions and pc_sat encode no CNF clause: the truth table runs
    the encoder's circuits over bit planes.  With a dumper, the same
    queries still write their DIMACS files."""
    v, u = ex.var("v", 3, 0), ex.var("u", 2, 0)
    pc = (ex.ult(v, ex.const(3, 5)), ex.ne(u, ex.slice_(v, 0, 1)))
    w = ex.add(v, ex.zext(u, 3))

    def ask(limits):
        return (all_values(w, pc, cap=8, limits=limits),
                transitions(v, u, pc, cap=8, limits=limits),
                pc_sat(pc, limits))

    expected = ({1, 2, 3, 4, 5, 6, 7},
                {0: {1, 2, 3}, 1: {0, 2, 3}, 2: {0, 1, 3}, 3: {0, 1, 2},
                 4: {1, 2, 3}},
                True)

    def no_clause(self, lits):
        raise AssertionError(f"CNF clause {lits} encoded")

    with monkeypatch.context() as m, \
            caplog.at_level(logging.INFO, logger="dctforge.solve"):
        m.setattr(Encoder, "add_clause", no_clause)
        m.setattr(solve, "Solver", None)
        assert ask(SolverLimits()) == expected
    dumps = tmp_path / "dumps"
    assert ask(SolverLimits(dumper=CnfDumper(str(dumps)))) == expected
    files = sorted(dumps.iterdir())
    assert files
    assert all(f.read_text().count("\np cnf ") == 1 for f in files)


def _dumps_and_events(run, directory, caplog):
    """The files run(directory) dumps, name and bytes, and the
    solver_stats events it logs."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="dctforge.solve"):
        run(str(directory))
    files = [(p.name, p.read_bytes()) for p in sorted(directory.iterdir())]
    events = [r.getMessage() for r in caplog.records
              if r.name == "dctforge.solve"]
    return files, events


def test_table_queries_dump_and_log_what_cdcl_does(tmp_path, caplog,
                                                   monkeypatch):
    """An ima.snl analyze, cnt5.blif's stage 2 and two enumerations over
    a two-conjunct slice write the same --dump-cnf files and log the
    same solver_stats events, byte for byte, whether their queries are
    answered from truth tables or by CDCL.  explore's table step, which
    TABLE_BITS also gates, asks no query at all, so it is off here."""
    monkeypatch.setattr(engine, "_table_step", lambda *args: None)
    ima = str(corpus.corpus_path("ima.snl"))
    cnt5 = parse_blif(counter_blif(5))
    codes = []

    def analyze(directory):
        codes.append(main(["analyze", "--circuit", ima, "--state", "pcmSq",
                           "--dump-cnf", directory,
                           "--out", directory + ".json"]))

    def stage2(directory):
        cfg = config_for(cnt5, [f"q{i}" for i in reversed(range(5))],
                         limits=SolverLimits(dumper=CnfDumper(directory)))
        symbolic_step(cnt5, cfg)

    def enumerations(directory):
        v, u = ex.var("v", 3, 0), ex.var("u", 2, 0)
        pc = (ex.ult(v, ex.const(3, 5)), ex.ne(u, ex.slice_(v, 0, 1)))
        limits = SolverLimits(dumper=CnfDumper(directory))
        all_values(v, pc, cap=8, limits=limits)
        transitions(v, u, pc, cap=8, limits=limits)

    for name, run in (("ima", analyze), ("cnt5", stage2),
                      ("slice", enumerations)):
        table = _dumps_and_events(run, tmp_path / f"{name}-table", caplog)
        with monkeypatch.context() as m:
            m.setattr(solve, "TABLE_BITS", -1)
            cdcl = _dumps_and_events(run, tmp_path / f"{name}-cdcl", caplog)
        assert table[0] and table[1]
        assert table == cdcl
    assert codes[0] == codes[1] != 1
