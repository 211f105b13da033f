"""The step memo (see "Replayed steps" in engine's docstring): every
analysis reports exactly what it reports when the memo stores nothing
and every state is stepped anew."""

from __future__ import annotations

import json
import logging
from dataclasses import replace as dc_replace

import pytest

from dctforge import corpus, engine
from dctforge.detect import detect_trojan
from dctforge.engine import FIXPOINT, Mode, explore, reset_state
from dctforge.rtl import parse_rtl
from dctforge.solve import SolverLimits
from dctforge.trojanlab import gen_random_fsm

from conftest import (config_for, counter_rtl, injected_counter,
                      with_side_counter)
from test_live_pc import _meta_fields, _report_fields


class _NeverStores(dict):
    """A step memo that keeps nothing."""

    def __setitem__(self, key, value):
        pass


def _memo_off(m):
    """Give every _step that has a memo one that keeps nothing."""
    real = engine._step

    def step(c, s, cfg, plan, memo=None):
        return real(c, s, cfg, plan, None if memo is None else _NeverStores())

    m.setattr(engine, "_step", step)


def _fsm(seed):
    return gen_random_fsm(seed, state_bits=4, input_bits=3)


def _cases():
    """(name, circuit, state registers, detect_trojan depth)."""
    cases = [(name, corpus.load(name), ["pcmSq"], 7)
             for name in corpus.corpus_names()
             if name.startswith("ima_trojan")]
    cases += [("ima.snl", corpus.load("ima.snl"), ["pcmSq"], 7),
              ("counter.snl", corpus.load("counter.snl"), ["cnt"], 8),
              ("ima_gate.blif", corpus.load("ima_gate.blif"),
               ["q2", "q1", "q0"], 7)]
    for w in range(4, 7):
        cases += [(f"cnt{w}", parse_rtl(counter_rtl(w)), ["cnt"], FIXPOINT),
                  (f"cnt{w}.inject", injected_counter(w), ["cnt"], FIXPOINT)]
    for seed in range(0, 256, 64):
        cases += [(f"fsm{seed:03d}", _fsm(seed), ["st"], FIXPOINT),
                  (f"fsm{seed:03d}.side", with_side_counter(_fsm(seed)),
                   ["st"], 3)]
    return cases


_CASES = _cases()
_IDS = [case[0] for case in _CASES]


def _done(caplog):
    """The explore_done events logged so far."""
    return [json.loads(r.getMessage()) for r in caplog.records
            if r.name == "dctforge.engine" and r.levelno == logging.DEBUG
            and '"explore_done"' in r.getMessage()]


def _memo_steps(caplog):
    return sum(e["memo_steps"] for e in _done(caplog))


def _detect(c, cfg):
    """detect_trojan's report fields, stage 2's successors included,
    with a fresh SolverLimits."""
    tr = detect_trojan(c, dc_replace(cfg, limits=SolverLimits()))
    states = [(s.regs, s.pc, s.var_epoch) for s in tr.dct.stage2.sym_states]
    return _report_fields(tr), states


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name,c,state_regs,depth", _CASES, ids=_IDS)
def test_detect_trojan_equals_without_memo(name, c, state_regs, depth, mode,
                                           monkeypatch, caplog):
    """detect_trojan reports the same with and without the memo, and the
    clean counters' stage 3 replays stage 1's steps."""
    if mode is Mode.BFS and name.endswith(".inject"):
        # At fixpoint, stage 3 of cnt6.inject under bfs runs 62 layers on
        # the solver path (~20 s); depth 8 has 765 stage-3 paths.
        depth = 8
    cfg = config_for(c, state_regs, depth=depth, mode=mode, value_cap=256)
    with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
        got = _detect(c, cfg)
        replayed = _memo_steps(caplog)
        caplog.clear()
        with monkeypatch.context() as m:
            _memo_off(m)
            ref = _detect(c, cfg)
        assert _memo_steps(caplog) == 0
    assert got == ref
    if (name.startswith("cnt") and not name.endswith(".inject")
            and mode is not Mode.PARTIAL):
        # Stage 3 of a clean counter starts in RS with constant registers,
        # where stage 1 has stepped already.
        assert replayed > 0


@pytest.mark.parametrize("mode", [Mode.BFS, Mode.PARTIAL],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("name,c,state_regs", [case[:3] for case in _CASES],
                         ids=_IDS)
def test_explore_equals_without_memo(name, c, state_regs, mode, monkeypatch,
                                     caplog):
    """explore gives the same Metadata with and without the memo at every
    depth, and under bfs at depth 6 every circuit replays some step: a
    side circuit's valuations repeat once its side counter wraps."""
    for depth in (0, 1, 3, 6, FIXPOINT):
        cfg = config_for(c, state_regs, depth=depth, mode=mode,
                         value_cap=256)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
            got = _meta_fields(explore(c, [reset_state(c)], cfg))
            replayed = _memo_steps(caplog)
            with monkeypatch.context() as m:
                _memo_off(m)
                ref = _meta_fields(explore(c, [reset_state(c)], dc_replace(
                    cfg, limits=SolverLimits())))
        assert got == ref, depth
        if mode is Mode.BFS and depth == 6:
            assert replayed > 0
