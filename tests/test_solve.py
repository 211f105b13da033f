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
from dctforge.errors import ResourceOut
from dctforge.sat import SatOutcome, Solver, check_sat
from dctforge.rtl import parse_rtl
from dctforge.solve import (SolverLimits, all_values, min_value, pc_model,
                            pc_sat)

from bruteforce import BitPlanes, ExprGen, support_leaves
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
    """A CnfDumper stand-in that records query labels."""

    def __init__(self):
        self.labels = []

    def dump(self, formula, label):
        self.labels.append(label)


def test_step_feasibility_raises_resource_out():
    """A split guard that no extension of the known model satisfies goes
    to the solver; its budget running out raises instead of pruning."""
    _, pc = _hard_sat_conjuncts()
    c = parse_rtl("circuit t\ninput d:1\n"
                  "reg r:2 reset 0 next d ? 2'd1 : 2'd2\noutput y:2 = r\n")
    labels = _Labels()
    cfg = config_for(c, ["r"], depth=1, limits=SolverLimits(dumper=labels))
    s = SymState({"r": ex.const(2, 0)}, pc, 0, 0, witness_env=None)
    assert len(step_cycle(c, s, cfg)) == 2
    assert labels.labels[0] == "step-feasibility"
    tiny = config_for(c, ["r"], depth=1, limits=TINY)
    with pytest.raises(ResourceOut):
        step_cycle(c, s, tiny)


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
