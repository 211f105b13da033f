"""The stage-2 table step: symbolic_step takes its one step from
symbolic_state on one truth table of the registers its spec logic reads
and the cycle's inputs, asking the solver nothing.  Every answer equals
the solver path's (engine._table_step patched off), and every case the
table does not answer falls back to it."""

from __future__ import annotations

import json
import logging
from dataclasses import replace as dc_replace

import pytest

from dctforge import corpus, engine, solve
from dctforge.blif import parse_blif
from dctforge.engine import Mode, explore, symbolic_state, symbolic_step
from dctforge import expr as ex
from dctforge.errors import CapExceeded, PathExplosion
from dctforge.rtl import parse_rtl
from dctforge.solve import SolverLimits
from dctforge.trojanlab import gen_random_fsm

from conftest import config_for, counter_blif, counter_rtl, injected_counter
from test_table_step import _FOLD, _FULL_CASE

# s's logic reads en, a register outside the spec, and en latches go,
# so every successor keeps a symbolic en.
_SIDE = """circuit side
input go:1
output y:1 = s == 2'd2
reg s:2 reset 0 next case(s){ 2'd0: en ? 2'd1 : 2'd0; 2'd1: go ? 2'd2 : 2'd0; default: 2'd0 }
reg en:1 reset 0 next go
"""

# After the split on go, each branch's destination still reads s:
# destinations 0 and 1, one reached from three sources and one from one.
_PAIRS = """circuit pairs
input go:1
output y:1 = s == 2'd3
reg s:2 reset 0 next go ? {1'd0, s == 2'd3} : {1'd0, s == 2'd3} ^ 2'd1
"""

# go = 1 gives the constant destination 0, reached from all four
# sources; go = 0 gives four destinations, one source each.
_TO_ZERO = """circuit to_zero
input go:1
output y:1 = s == 2'd3
reg s:2 reset 0 next go ? 2'd0 : s
"""

# Both branches give four destinations, one source each.
_STEPS = """circuit steps
input go:1
output y:1 = s == 2'd3
reg s:2 reset 0 next go ? s + 2'd1 : s
"""

def _cases():
    """(name, circuit, state registers)."""
    cases = [(name, corpus.load(name), ["cnt" if name == "counter.snl"
                                        else "pcmSq"])
             for name in corpus.corpus_names() if name.endswith(".snl")]
    cases += [(f"fsm{seed:03d}", gen_random_fsm(seed, state_bits=4,
                                                input_bits=3), ["st"])
              for seed in range(0, 256, 16)]
    cases += [(f"cnt{w}", parse_rtl(counter_rtl(w)), ["cnt"])
              for w in range(4, 8)]
    cases += [(f"cnt{w}.inject", injected_counter(w), ["cnt"])
              for w in range(4, 7)]
    cases += [(name, parse_rtl(text), ["s"]) for name, text in
              [("fold", _FOLD), ("full_case", _FULL_CASE), ("side", _SIDE),
               ("pairs", _PAIRS), ("to_zero", _TO_ZERO), ("steps", _STEPS)]]
    return cases


_CASES = _cases()


def _table_off(m):
    m.setattr(engine, "_table_step", lambda *args: None)


def _assert_same_results(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dst == r.dst
        assert g.src_vals == r.src_vals
        assert g.src_expr is r.src_expr
        assert g.state.var_epoch == r.state.var_epoch
        assert list(g.state.regs) == list(r.state.regs)
        assert all(g.state.regs[k] is r.state.regs[k] for k in r.state.regs)
        assert len(g.state.pc) == len(r.state.pc)
        assert all(p is q for p, q in zip(g.state.pc, r.state.pc))
        assert list(g.out_exprs) == list(r.out_exprs)
        assert all(g.out_exprs[o] is r.out_exprs[o] for o in r.out_exprs)
        assert g.out_vals is None and r.out_vals is None


def _stage2(c, cfg, caplog):
    """symbolic_step under a fresh SolverLimits: its Metadata, its groups
    and its symbolic_step_done event."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
        meta, by_state = symbolic_step(c, dc_replace(cfg,
                                                     limits=SolverLimits()))
    (done,) = [json.loads(r.getMessage()) for r in caplog.records
               if '"symbolic_step_done"' in r.getMessage()]
    return meta, by_state, done


def _counting_solutions(m):
    calls = []
    real = solve._solutions

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    m.setattr(solve, "_solutions", counting)
    return calls


@pytest.mark.parametrize("name,c,state_regs", _CASES,
                         ids=[case[0] for case in _CASES])
def test_stage2_table_equals_solver_path(name, c, state_regs, monkeypatch,
                                         caplog):
    """symbolic_step's step on the table gives the solver path's results,
    in order: destinations, sources, registers and every conjunct of each
    pc by identity, and the same Trans and groups; it asks no query."""
    cfg = config_for(c, state_regs, value_cap=256)
    plan = engine._plan(c, cfg)
    assert plan.table
    s = symbolic_state(c, cfg.state_spec)
    bfs = dc_replace(cfg, mode=Mode.BFS)
    with monkeypatch.context() as m:
        calls = _counting_solutions(m)
        got = engine._step(c, s, bfs, plan)
        meta, by_state, done = _stage2(c, cfg, caplog)
    assert calls == []
    assert done == {"event": "symbolic_step_done", "successors": len(got),
                    "table": True}
    with monkeypatch.context() as m:
        _table_off(m)
        ref = engine._step(c, s, bfs, plan)
        ref_meta, ref_by_state, ref_done = _stage2(c, cfg, caplog)
    assert ref_done == {**done, "table": False}
    _assert_same_results(got, ref)
    assert meta.trans == ref_meta.trans
    assert [engine._content(r.state) for r in got] == [
        engine._content(t) for t in meta.sym_states]
    assert list(by_state) == list(ref_by_state)
    for d, group in by_state.items():
        assert [engine._content(t) for t in group] == [
            engine._content(t) for t in ref_by_state[d]]


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", ["pairs", "to_zero", "side", "full_case",
                                  "fsm016", "ima_trojan.snl"])
def test_explore_from_symbolic_state_on_the_table(name, mode, monkeypatch):
    """explore from symbolic_state steps it on the table too, under
    every mode (partial keeps the smallest destination and its sources),
    and records what the solver path records."""
    _, c, state_regs = next(k for k in _CASES if k[0] == name)
    cfg = config_for(c, state_regs, depth=2, mode=mode, value_cap=256)
    init = [symbolic_state(c, cfg.state_spec)]
    plan = engine._plan(c, cfg)
    got = engine._step(c, init[0], cfg, plan)
    got_meta = explore(c, init, dc_replace(cfg, limits=SolverLimits()))
    with monkeypatch.context() as m:
        _table_off(m)
        ref = engine._step(c, init[0], cfg, plan)
        ref_meta = explore(c, init, dc_replace(cfg, limits=SolverLimits()))
    _assert_same_results(got, ref)
    assert (got_meta.rs, got_meta.rbs, got_meta.paths_explored) == (
        ref_meta.rs, ref_meta.rbs, ref_meta.paths_explored)


# (circuit, config fields, error), each cap one below what the first
# branch needs.  _FULL_CASE has four branches of one result each.
@pytest.mark.parametrize("text,kw,error", [
    (_STEPS, {"value_cap": 3}, CapExceeded),
    (_PAIRS, {"value_cap": 2}, CapExceeded),
    (_TO_ZERO, {"value_cap": 3}, CapExceeded),
    (_FULL_CASE, {"path_cap": 3}, PathExplosion),
    (_STEPS, {"path_cap": 7}, PathExplosion),
], ids=["destinations>value_cap", "sources>value_cap",
        "constant-destination-sources>value_cap", "results>path_cap",
        "branch-results>path_cap"])
def test_stage2_table_falls_back_to_what_the_solver_raises(text, kw, error,
                                                           monkeypatch):
    c = parse_rtl(text)
    cfg = config_for(c, ["s"], **kw)
    assert engine._plan(c, cfg).table
    with pytest.raises(error) as got:
        symbolic_step(c, cfg)
    with monkeypatch.context() as m:
        _table_off(m)
        with pytest.raises(error) as ref:
            symbolic_step(c, dc_replace(cfg))
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("text,kw,successors", [
    (_STEPS, {"value_cap": 4, "path_cap": 8}, 8),
    (_PAIRS, {"value_cap": 3, "path_cap": 4}, 4),
    (_TO_ZERO, {"value_cap": 4, "path_cap": 5}, 5),
    (_FULL_CASE, {"value_cap": 8, "path_cap": 4}, 4),
], ids=["steps", "pairs", "to_zero", "full_case"])
def test_stage2_caps_that_hold_stay_on_the_table(text, kw, successors,
                                                 caplog):
    """At exactly the caps a branch needs, the table answers."""
    c = parse_rtl(text)
    _, _, done = _stage2(c, config_for(c, ["s"], **kw), caplog)
    assert done == {"event": "symbolic_step_done", "successors": successors,
                    "table": True}


def test_stage2_solver_path_cases(monkeypatch, caplog):
    """Assumptions and TABLE_BITS = -1 take the solver path; a kernel plan
    (gate-level, no Case or Mux) takes the table like any other plan.
    Each gives the solver path's answers."""
    c = parse_rtl(_SIDE)
    s = ex.ref("s", 2)
    assumed = config_for(c, ["s"], assumes=(ex.ne(s, ex.const(2, 2)),))
    assert not engine._plan(c, assumed).table
    meta, _, done = _stage2(c, assumed, caplog)
    assert not done["table"] and (1, 1) not in meta.trans

    blif = parse_blif(counter_blif(4))
    gate = config_for(blif, [f"q{i}" for i in reversed(range(4))])
    assert engine._plan(blif, gate).kernel is not None
    gate_on = _stage2(blif, gate, caplog)

    cfg = config_for(c, ["s"])
    on = _stage2(c, cfg, caplog)
    monkeypatch.setattr(solve, "TABLE_BITS", -1)
    off = _stage2(c, cfg, caplog)
    gate_off = _stage2(blif, gate, caplog)
    assert gate_on[2]["table"] and not gate_off[2]["table"]
    assert gate_on[0].trans == gate_off[0].trans
    assert [engine._content(t) for t in gate_on[0].sym_states] == [
        engine._content(t) for t in gate_off[0].sym_states]
    assert on[2]["table"] and not off[2]["table"]
    assert on[0].trans == off[0].trans
    assert [engine._content(t) for t in on[0].sym_states] == [
        engine._content(t) for t in off[0].sym_states]
