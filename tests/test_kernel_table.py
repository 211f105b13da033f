"""The concrete kernel's table build: a split-free plan whose register and
live input bits fit solve.TABLE_BITS is evaluated once on one truth
table instead of compiled.  Its steps equal the compiled build's on
every register valuation, and stage 2 takes its (source, destination)
pairs from the same planes, with the successors that the table step's
own encoder and the solver path give."""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import replace as dc_replace

import pytest

from dctforge import corpus, engine, solve
from dctforge.blif import parse_blif
from dctforge.engine import (Mode, explore, reset_state, symbolic_state,
                             symbolic_step)
from dctforge.rtl import parse_rtl
from dctforge.solve import SolverLimits

from conftest import config_for, counter_blif
from test_kernel import _split_free_netlist
from test_stage2_table import _assert_same_results

# No input at all: every state has one successor.
_NO_INPUT = """circuit no_input
output y:2 = s ^ {o, o}
reg s:2 reset 1 next s + {1'd0, o}
reg o:1 reset 0 next ~o
"""


def _enable_counter(w: int) -> str:
    """A split-free counter whose plan has w + 1 bits."""
    return (f"circuit cnt{w}\n"
            f"input en:1\n"
            f"output top:1 = cnt == {w}'d{(1 << w) - 1}\n"
            f"reg cnt:{w} reset 0 next cnt + zext(en, {w})\n")


def _cases():
    """(name, circuit, state registers)."""
    cases = [("ima_gate", corpus.load("ima_gate.blif"), ["q2", "q1", "q0"])]
    cases += [(f"cnt{w}.blif", parse_blif(counter_blif(w)),
               [f"q{i}" for i in reversed(range(w))]) for w in range(2, 7)]
    ins = [("a", 3), ("b", 1)]
    for seed in range(3):
        cases.append((f"rnd{seed}", _split_free_netlist(
            seed, ins, [("s", 3)], [("o", 2)]), ["s"]))
        cases.append((f"rnd{seed}+2others", _split_free_netlist(
            seed, ins, [("s", 2)], [("o", 2), ("p", 1)]), ["s"]))
        cases.append((f"rnd{seed}+private", _split_free_netlist(
            seed, ins, [("s", 3)], [("o", 2)], private_input=("p", 2)),
            ["s"]))
    cases.append(("no_input", parse_rtl(_NO_INPUT), ["s"]))
    return cases


_CASES = _cases()
# The plans one bit either side of TABLE_BITS = 12.
_BOUND = [("12bits", parse_rtl(_enable_counter(11)), ["cnt"]),
          ("13bits", parse_rtl(_enable_counter(12)), ["cnt"])]


def _kernel(c, state_regs, table_bits, monkeypatch):
    """A fresh kernel of c's plan, built under TABLE_BITS = table_bits,
    and the build it took."""
    kernel = engine._plan(c, config_for(c, state_regs)).kernel
    with monkeypatch.context() as m:
        m.setattr(solve, "TABLE_BITS", table_bits)
        build, nodes = kernel.build()
    assert nodes > 0
    return kernel, build


@pytest.mark.parametrize("name,c,state_regs", _CASES + _BOUND,
                         ids=[case[0] for case in _CASES + _BOUND])
def test_table_build_steps_as_the_compiled_build(name, c, state_regs,
                                                 monkeypatch):
    """Kernel.step gives the same groups under both builds, for every
    valuation of every register."""
    table, build = _kernel(c, state_regs, 13, monkeypatch)
    assert build == "table" and table.bits <= 13
    compiled, build = _kernel(c, state_regs, -1, monkeypatch)
    assert build == "compiled"
    names = [r.name for r in c.registers]
    for values in itertools.product(*(range(1 << r.width)
                                      for r in c.registers)):
        regs = dict(zip(names, values))
        assert table.step(regs) == compiled.step(regs), (name, regs)


def test_the_bound_picks_the_build(caplog):
    """At TABLE_BITS = 12 the 12-bit plan is built on the table and the
    13-bit plan is compiled; each logs one kernel_built event naming its
    build, and explore gives the same RS either way."""
    for (name, c, state_regs), build in zip(_BOUND, ["table", "compiled"]):
        cfg = config_for(c, state_regs, depth=3)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
            meta = explore(c, [reset_state(c)], cfg)
        events = [json.loads(r.getMessage()) for r in caplog.records
                  if '"kernel_built"' in r.getMessage()]
        assert [(e["build"], e["nodes"] > 0) for e in events] == [
            (build, True)], name
        assert meta.rs == {0, 1, 2, 3}


@pytest.fixture
def encoders(monkeypatch):
    """The support sizes of the PlaneEncoders the engine makes."""
    made = []

    class Counting(engine.PlaneEncoder):
        def __init__(self, n):
            made.append(n)
            super().__init__(n)

    monkeypatch.setattr(engine, "PlaneEncoder", Counting)
    return made


def _stage2_fields(meta, by_state):
    return (meta.trans, [engine._content(s) for s in meta.sym_states],
            [(d, [engine._content(s) for s in group])
             for d, group in by_state.items()])


@pytest.mark.parametrize("name,c,state_regs", _CASES,
                         ids=[case[0] for case in _CASES])
def test_stage2_reads_the_kernel_table(name, c, state_regs, encoders,
                                       monkeypatch):
    """From the fully symbolic state, _table_step with the plan's kernel
    gives the results of its own table, under every mode.  symbolic_step
    makes no encoder and gives what the solver path gives."""
    cfg = config_for(c, state_regs, value_cap=256)
    plan = engine._plan(c, cfg)
    s = symbolic_state(c, cfg.state_spec)
    for mode in Mode:
        mcfg = dc_replace(cfg, mode=mode)
        cycle = engine._cycle_exprs(c, s, mcfg, plan)
        got = engine._table_step(c, s, mcfg, cycle, plan.kernel)
        assert plan.kernel.table is not None
        encoders.clear()
        own = engine._table_step(c, s, mcfg, cycle)
        assert encoders, "the reference took the kernel's table"
        _assert_same_results(got, own)
    encoders.clear()
    got = symbolic_step(c, dc_replace(cfg, limits=SolverLimits()))
    assert encoders == []
    monkeypatch.setattr(solve, "TABLE_BITS", -1)
    ref = symbolic_step(c, dc_replace(cfg, limits=SolverLimits()))
    assert _stage2_fields(*got) == _stage2_fields(*ref)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name,c,state_regs", _CASES,
                         ids=[case[0] for case in _CASES])
def test_explore_from_symbolic_state_reads_the_kernel_table(
        name, c, state_regs, mode, monkeypatch):
    """explore from symbolic_state records what it records with every
    query on the solver path, under every mode."""
    init = [symbolic_state(c, config_for(c, state_regs).state_spec)]
    for depth in (1, 2):
        cfg = config_for(c, state_regs, depth=depth, mode=mode,
                         value_cap=256)
        got = explore(c, init, dc_replace(cfg, limits=SolverLimits()))
        with monkeypatch.context() as m:
            m.setattr(solve, "TABLE_BITS", -1)
            ref = explore(c, init, dc_replace(cfg, limits=SolverLimits()))
        assert (got.rs, got.rbs, got.paths_explored, got.paths_pruned) == (
            ref.rs, ref.rbs, ref.paths_explored, ref.paths_pruned), depth


def test_stage2_under_a_compiled_kernel_makes_its_own_table(encoders,
                                                             monkeypatch):
    """A kernel compiled while TABLE_BITS was lower holds no planes: the
    stage-2 step then runs on its own table, with the same results."""
    c = parse_blif(counter_blif(4))
    cfg = config_for(c, [f"q{i}" for i in reversed(range(4))])
    plan = engine._plan(c, cfg)
    with monkeypatch.context() as m:
        m.setattr(solve, "TABLE_BITS", -1)
        assert plan.kernel.build()[0] == "compiled"
    got = symbolic_step(c, cfg)
    assert len(encoders) == 1
    ref = symbolic_step(c, dc_replace(cfg, limits=SolverLimits()))
    assert len(encoders) == 1
    assert _stage2_fields(*got) == _stage2_fields(*ref)

