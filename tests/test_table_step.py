"""The table step: explore steps a constant state of a Case/Mux circuit
on one truth table of the cycle's inputs, asking the solver nothing.
Every answer equals the solver step's (_build_plan's plan has no table),
and every case the table does not answer falls back to the solver
step."""

from __future__ import annotations

import json
import logging
from dataclasses import replace as dc_replace

import pytest

from dctforge import corpus, engine, solve
from dctforge import expr as ex
from dctforge.engine import FIXPOINT, Mode, explore, reset_state
from dctforge.errors import CapExceeded, PathExplosion, WidthMismatch
from dctforge.rtl import parse_rtl
from dctforge.solve import SolverLimits, all_values, live_conjuncts
from dctforge.trojanlab import gen_random_fsm

from conftest import config_for, counter_rtl, injected_counter

# From s = 0 the Mux folds away: (in ? 0 : 0) & 0 is 0, one successor.
# A replay of the plan's arms over the unsimplified expressions would
# split on `in` and give two.
_FOLD = """circuit fold
input in:1
output y:1 = s == 2'd3
reg s:2 reset 0 next (in ? s : 2'd0) & (s == 2'd0 ? 2'd0 : 2'd3)
"""

# l latches an input, so the successors keep a symbolic register, and
# its leaves include go's, so the live trim keeps the go guards.
_LATCH = """circuit latch
input go:1
input d:2
output y:1 = s == 2'd1
reg s:2 reset 0 next case(s){ 2'd0: go ? 2'd1 : 2'd0; 2'd1: 2'd2; default: 2'd0 }
reg l:2 reset 0 next d ^ {go, go}
"""

# The case names every value of x, so its default arm takes no row.
_FULL_CASE = """circuit full_case
input x:2
output y:1 = s == 3'd7
reg s:3 reset 0 next case(x){ 2'd0: 3'd1; 2'd1: 3'd2; 2'd2: 3'd3; 2'd3: 3'd4; default: 3'd7 }
"""

# After the split on go, the destination and the output still read
# inputs, so the branches' rows decide their values.
_OPEN = """circuit open
input go:1
input a:2
output y:2 = a & s
output z:1 = go
reg s:2 reset 0 next go ? a : s + 2'd1
"""


def _cases():
    """(name, circuit, state registers)."""
    cases = [(name, corpus.load(name), ["cnt" if name == "counter.snl"
                                        else "pcmSq"])
             for name in corpus.corpus_names() if name.endswith(".snl")]
    for seed, state_bits, input_bits in [(0, 2, 1), (1, 3, 2), (2, 4, 3),
                                         (3, 3, 3), (4, 4, 1), (5, 2, 2),
                                         (6, 4, 2), (7, 3, 1)]:
        cases.append((f"fsm{seed}", gen_random_fsm(seed, state_bits,
                                                   input_bits), ["st"]))
    cases += [(f"cnt{w}", parse_rtl(counter_rtl(w)), ["cnt"])
              for w in range(4, 8)]
    cases += [(f"cnt{w}.inject", injected_counter(w), ["cnt"])
              for w in range(4, 7)]
    cases += [(name, parse_rtl(text), ["s"]) for name, text in
              [("fold", _FOLD), ("latch", _LATCH), ("full_case", _FULL_CASE),
               ("open", _OPEN)]]
    return cases


_CASES = _cases()


def _constant_states(c, cfg, monkeypatch):
    """The states with constant registers and an empty pc that explore
    steps from reset under cfg."""
    states = []
    real = engine._step

    def recording(c, s, cfg, plan):
        if not s.pc and all(e.op == "const" for e in s.regs.values()):
            states.append(s)
        return real(c, s, cfg, plan)

    with monkeypatch.context() as m:
        m.setattr(engine, "_step", recording)
        explore(c, [reset_state(c)], cfg)
    return states


def _leaves(s):
    return frozenset().union(*map(ex.leaf_set, s.regs.values()))


def _solver_out_vals(res, cfg):
    """Each monitored output's values as _record_behaviors finds them on
    a solver step's result."""
    out = {}
    for name, e in res.out_exprs.items():
        vals = ({e.aux[0]} if e.op == "const" else
                all_values(e, res.state.pc, cap=cfg.value_cap,
                           limits=cfg.limits))
        out[name] = sorted(vals)
    return out


def _assert_same_step(got, ref, cfg, whole_pc):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dst == r.dst
        assert g.src_vals == r.src_vals
        assert list(g.state.regs) == list(r.state.regs)
        assert all(g.state.regs[k] is r.state.regs[k] for k in r.state.regs)
        assert g.state.var_epoch == r.state.var_epoch
        assert (live_conjuncts(g.state.pc, _leaves(g.state))
                == live_conjuncts(r.state.pc, _leaves(r.state)))
        if whole_pc:
            assert g.state.pc == r.state.pc
        assert g.out_vals == _solver_out_vals(r, cfg)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name,c,state_regs", _CASES,
                         ids=[case[0] for case in _CASES])
def test_table_step_equals_solver_step(name, c, state_regs, mode,
                                       monkeypatch):
    """From every constant state that stage 1 reaches, the cached plan's
    _step (the table's) gives the results _build_plan's gives (the
    solver's), in the same order: destinations, sources, registers by
    identity, live pc, and output values; the latch case's whole pc."""
    depth = 3 if name == "fold" else 7 if name.endswith(".snl") else FIXPOINT
    cfg = config_for(c, state_regs, depth=depth, mode=mode, value_cap=256)
    states = _constant_states(c, cfg, monkeypatch)
    plan = engine._plan(c, cfg)
    assert plan.table and plan.kernel is None
    before = plan.steps["table"]
    for s in states:
        got = engine._step(c, s, cfg, plan)
        ref = engine._step(c, s, cfg, engine._build_plan(c, cfg))
        _assert_same_step(got, ref, cfg, whole_pc=name == "latch")
    assert states and plan.steps["table"] - before == len(states)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_fold_steps_the_simplified_cycle(mode, caplog):
    """The fold circuit has one successor per step from s = 0, as the
    solver step finds on the simplified cycle, so BFS to depth 3 explores
    3 paths, all on the table."""
    c = parse_rtl(_FOLD)
    cfg = config_for(c, ["s"], depth=3, mode=mode)
    with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
        meta = explore(c, [reset_state(c)], cfg)
    assert meta.rs == {0}
    assert meta.paths_explored == (1 if mode is Mode.BFS_PRUNE else 3)
    (done,) = [json.loads(r.getMessage()) for r in caplog.records
               if '"explore_done"' in r.getMessage()]
    assert done["table_steps"] == done["layers"] and done["kernel_steps"] == 0


def test_partial_takes_the_mux_else_arm_first(caplog):
    """Under partial a Mux's else-arm is tried first, on the table too."""
    c = parse_rtl("circuit pick\n"
                  "input go:1\n"
                  "output y:1 = s == 2'd1\n"
                  "reg s:2 reset 0 next go ? 2'd1 : 2'd2\n")
    cfg = config_for(c, ["s"], depth=2, mode=Mode.PARTIAL)
    with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
        meta = explore(c, [reset_state(c)], cfg)
    assert meta.rs == {0, 2}
    assert {(b.src, b.dst) for b in meta.rbs} == {(0, 2), (2, 2)}
    (done,) = [json.loads(r.getMessage()) for r in caplog.records
               if '"explore_done"' in r.getMessage()]
    assert done["table_steps"] == 2


def _table_off(monkeypatch):
    monkeypatch.setattr(engine, "_table_step", lambda *args: None)


_MANY_OUTS = """circuit many_outs
input go:1
input a:2
output y:2 = a
reg s:2 reset 0 next go ? 2'd1 : 2'd2
"""

_WIDE_OUT = """circuit wide_out
input go:1
input x:2
output big:32 = {x, x, x, x, x, x, x, x, x, x, x, x, x, x, x, x}
reg s:2 reset 0 next go ? x : 2'd0
"""


# (circuit, config fields, error, whether partial raises it too).
# Partial keeps one destination of one branch, so only an output's
# values or the wide output make it raise: _OPEN's second step from
# s = 1 gives y = a & 1 two values.
@pytest.mark.parametrize("text,kw,error,partial", [
    (_OPEN, {"value_cap": 1}, CapExceeded, True),
    (_MANY_OUTS, {"value_cap": 1}, CapExceeded, True),
    (_FULL_CASE, {"path_cap": 1}, PathExplosion, False),
    (_WIDE_OUT, {}, WidthMismatch, True),
], ids=["destinations>value_cap", "output-values>value_cap",
        "results>path_cap", "output-wider-than-all_values"])
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_table_falls_back_to_what_the_solver_raises(text, kw, error, partial,
                                                    mode, monkeypatch):
    c = parse_rtl(text)
    cfg = config_for(c, ["s"], depth=2, mode=mode, **kw)
    assert engine._plan(c, cfg).table is (error is not WidthMismatch)
    if mode is Mode.PARTIAL and not partial:
        explore(c, [reset_state(c)], cfg)
        return
    with pytest.raises(error) as got:
        explore(c, [reset_state(c)], cfg)
    with monkeypatch.context() as m:
        _table_off(m)
        with pytest.raises(error) as ref:
            explore(c, [reset_state(c)], dc_replace(cfg))
    assert str(got.value) == str(ref.value)


def test_rtl_counter_stage1_asks_no_solver_query(monkeypatch, caplog):
    """Stage 1 of the RTL counter w=6 at fixpoint: every step from reset
    is a table step, and nothing reaches the solver."""
    c = parse_rtl(counter_rtl(6))
    cfg = config_for(c, ["cnt"], depth=FIXPOINT, value_cap=128)
    calls = []
    real = solve._solutions

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(solve, "_solutions", counting)
    with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
        meta = explore(c, [reset_state(c)], cfg)
    assert meta.rs == set(range(62))
    assert calls == []
    (done,) = [json.loads(r.getMessage()) for r in caplog.records
               if '"explore_done"' in r.getMessage()]
    assert done["table_steps"] == meta.paths_explored == 62
    assert done["kernel_steps"] == 0


def test_table_bits_below_zero_turns_the_table_off(monkeypatch, caplog):
    """With solve.TABLE_BITS = -1, read at step time, every step asks the
    solver, and stage 1 gives the same Metadata."""
    c = parse_rtl(counter_rtl(5))
    cfg = config_for(c, ["cnt"], depth=FIXPOINT)

    def run():
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
            meta = explore(c, [reset_state(c)],
                           dc_replace(cfg, limits=SolverLimits()))
        (done,) = [json.loads(r.getMessage()) for r in caplog.records
                   if '"explore_done"' in r.getMessage()]
        return (meta.rs, meta.rbs, meta.paths_explored,
                meta.discovered_diameter), done["table_steps"]

    got, table_steps = run()
    monkeypatch.setattr(solve, "TABLE_BITS", -1)
    ref, off_steps = run()
    assert got == ref
    assert table_steps == got[2] and off_steps == 0
