"""Query layer: incremental all_values/min_value against a rebuild-per-call
reference and the bit-plane oracle, conflict budgets raising ResourceOut
from every query, and one solver_stats event per dumped query."""

from __future__ import annotations

import json
import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctforge import corpus
from dctforge import expr as ex
from dctforge import solve
from dctforge.cli import main
from dctforge.cnf import Encoder
from dctforge.detect import compute_dct
from dctforge.engine import SymState, step_cycle
from dctforge.errors import CapExceeded, ResourceOut, WidthMismatch
from dctforge.sat import SatOutcome, Solver, check_sat
from dctforge.rtl import parse_rtl
from dctforge.solve import (SolverLimits, all_values, extends, min_value,
                            pc_model, pc_sat, transitions)

from bruteforce import BitPlanes, ExprGen, naive_eval, support_leaves
from conftest import config_for


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
        enc.assert_lit(enc.bits(s)[0])
    bits = enc.bits(ex.simplify(e))
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


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_all_values_equals_rebuild_reference(seed):
    e, pc = _query(seed)
    got = all_values(e, pc, cap=1 << e.width)
    assert got == ref_all_values(e, pc)
    planes = BitPlanes(support_leaves(e, *pc))
    assert got == planes.value_set(e, pc)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_min_value_equals_rebuild_reference(seed):
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


def test_pc_model_satisfies_every_conjunct():
    _, pc = _hard_sat_conjuncts()
    env = pc_model(pc)
    assert all(ex.evaluate(c, env) == 1 for c in pc)
    assert pc_model(pc + (ex.const(1, 0),)) is None
    assert pc_model((ex.const(1, 1),)) == {}


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
    s = SymState({"r": ex.const(2, 0)}, pc, 0, 0)
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
    s = SymState({"r": ex.const(2, 0)}, pc, 0, 0)
    for conflict_limit in (10 ** 6, 1):
        dumps = _Labels()
        limits = SolverLimits(conflict_limit=conflict_limit, dumper=dumps)
        succs = step_cycle(c, s, config_for(c, ["r"], depth=1, limits=limits))
        assert len(succs) == 2
        assert dumps.labels == ["step-feasibility"] * 2
        assert all(f.num_vars < 5 for f in dumps.formulas)


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


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
def test_extends_equals_pc_sat(seed, new_seed):
    """For a satisfiable multi-group pc, extends answers pc + new exactly,
    with a fresh memo and with one that pc_model already filled."""
    pc = _satisfiable_pc(seed)
    assert pc_sat(pc)
    new = _new_conjuncts(new_seed)
    expected = pc_sat(pc + new)
    planes = BitPlanes(support_leaves(*pc, *new))
    assert expected == (planes.truth_plane(pc + new) != 0)
    assert extends(pc, new) == expected
    limits = SolverLimits()
    pc_model(pc, limits)
    assert extends(pc, new, limits) == expected


class _OutOfBudgetUnderAssumptions(Solver):
    """Solves plainly, but runs out of budget whenever assumptions are
    given, as a hard bit pin would."""

    def solve(self, assumptions=()):
        if assumptions:
            return SatOutcome("resource-out", limit_name="conflict-budget")
        return super().solve(assumptions)


def test_min_value_pinning_raises_resource_out(monkeypatch):
    v = ex.var("v", 3, 0)
    pc = (ex.ne(v, ex.const(3, 0)),)
    assert min_value(v, pc) == 1
    monkeypatch.setattr(solve, "Solver", _OutOfBudgetUnderAssumptions)
    with pytest.raises(ResourceOut):
        min_value(v, pc)


def test_cli_tiny_conflict_limit_exits_one_without_report(tmp_path, capsys):
    path = str(corpus.corpus_path("ima.snl"))
    for command in ("analyze", "trojan"):
        out = tmp_path / f"{command}.json"
        code = main([command, "--circuit", path, "--state", "pcmSq",
                     "--conflict-limit", "1", "--out", str(out)])
        assert code == 1
        assert "resource limit exceeded: conflict-budget" in \
            capsys.readouterr().err
        assert not out.exists()


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


def _satisfies(env, pc) -> bool:
    return all(ex.evaluate(ex.simplify(c), env) == 1 for c in pc)


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
    env = pc_model(pc, limits)
    assert (env is None) == (planes.truth_plane(pc) == 0)
    if env is not None:
        assert _satisfies(env, pc)


def test_unsat_group_disjoint_from_query():
    v, w = ex.var("v", 3, 0), ex.var("w", 2, 0)
    related = (ex.ult(v, ex.const(3, 5)),)
    never = (ex.ult(w, ex.const(2, 1)), ex.ne(w, ex.const(2, 0)))
    for pc in (related + never, never + related):
        planes = BitPlanes(support_leaves(v, *pc))
        assert all_values(v, pc) == set() == ref_all_values(v, pc)
        assert planes.value_set(v, pc) == set()
        assert min_value(v, pc) is None is ref_min_value(v, pc)
        assert pc_model(pc) is None
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
        env = pc_model(pc, limits)
        assert env is not None and _satisfies(env, pc)
    # One new group per added conjunct, none solved twice.
    assert labels.labels == ["pc-sat"] * len(order)
    x0 = ex.var("x0", 3, 0)
    assert all_values(x0, prefixes[-1], cap=8, limits=limits) == {1, 2, 3, 4, 5}
    assert set(labels.labels[len(order):]) == {"all-values"}
    fresh = _Labels()
    pc_model(prefixes[-1], SolverLimits(dumper=fresh))
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
    pc_model(pc, limits)
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

