"""The soundness repros of ROADMAP items 1 and 2: circuits whose
registers outside the state spec make today's answers differ from
oracle_analyze's.  Each test asserts the oracle's answer and is marked
xfail(strict=True) where dctforge still answers wrongly, so the fix has
to flip it, and a change that flips it by accident is seen."""

from __future__ import annotations

import pytest

from dctforge import corpus
from dctforge.detect import (Verdict, compute_dct, detect_trojan,
                             oracle_analyze, oracle_dct)
from dctforge.engine import FIXPOINT, Mode
from dctforge.rtl import parse_rtl

from conftest import config_for

# A UART-like controller: st waits in 1 and 2 for a tick of the baud
# counter, which only counts while st is busy.  RS is {0, 1, 2}, reached
# at depth 4, but layer 2 adds no new StateId while baud still counts.
_UART = """circuit uart
input start:1
output busy:1 = st != 2'd0
net tick:1 = baud == 2'd2
reg st:2 reset 0 next case(st){ 2'd0: start ? 2'd1 : 2'd0; 2'd1: tick ? 2'd2 : 2'd1; 2'd2: tick ? 2'd0 : 2'd2; default: 2'd0 }
reg baud:2 reset 0 next (st == 2'd0) | tick ? 2'd0 : baud + 2'd1
"""

# A free-running tick counter that only the output reads: pruning by
# StateId drops the paths on which y takes its other values.
_TICK = """circuit tick
input go:1
output y:1 = tick == 2'd3
reg s:2 reset 0 next case(s){ 2'd0: go ? 2'd1 : 2'd0; 2'd1: 2'd0; default: 2'd0 }
reg tick:2 reset 0 next tick + 2'd1
"""

_WRONG = pytest.mark.xfail(strict=True, reason="registers outside the "
                           "state spec (ROADMAP items 1 and 2)")


def _ima_with_dbg():
    """ima.snl with a dbg register that no reset path sets and that forces
    outValid.  ima's inSamp, which nothing reads, is left out, so the
    circuit fits the oracle's 20 bits."""
    text = corpus.corpus_path("ima.snl").read_text()
    text = text.replace("input inSamp:16\n", "").replace(
        "output outValid:1 = pcmSq == 3'd5",
        "output outValid:1 = dbg ? 1'd1 : pcmSq == 3'd5")
    return parse_rtl(text + "reg dbg:1 reset 0 next dbg\n")


@pytest.mark.parametrize("mode", [pytest.param(m, marks=_WRONG)
                                  for m in (Mode.BFS, Mode.BFS_PRUNE)],
                         ids=lambda m: m.value)
def test_uart_fixpoint_finds_every_state(mode):
    c = parse_rtl(_UART)
    cfg = config_for(c, ["st"], depth=FIXPOINT, mode=mode)
    om = oracle_analyze(c, cfg.state_spec, None)
    assert (om.rs, om.discovered_diameter, oracle_dct(om)) == (
        {0, 1, 2}, 4, {(3, 0)})
    r = compute_dct(c, cfg)
    assert (r.rs, r.stage1.discovered_diameter, r.dct) == (
        om.rs, om.discovered_diameter, oracle_dct(om))


@pytest.mark.parametrize("mode", [Mode.BFS,
                                  pytest.param(Mode.BFS_PRUNE, marks=_WRONG)],
                         ids=lambda m: m.value)
def test_free_running_tick_is_clean(mode):
    c = parse_rtl(_TICK)
    cfg = config_for(c, ["s"], depth=6, mode=mode)
    om = oracle_analyze(c, cfg.state_spec, 6)
    assert len(om.rbs) == 6
    tr = detect_trojan(c, cfg)
    assert tr.rbs == om.rbs
    assert tr.verdict is Verdict.CLEAN


@pytest.mark.parametrize("mode", [pytest.param(m, marks=_WRONG)
                                  for m in (Mode.BFS, Mode.BFS_PRUNE)],
                         ids=lambda m: m.value)
def test_unreachable_debug_register_is_clean(mode):
    """Stage 1 and the DCTs agree with the oracle; stage 3 must not start
    with dbg = 1, which no reset path reaches."""
    c = _ima_with_dbg()
    cfg = config_for(c, ["pcmSq"], depth=7, mode=mode)
    om = oracle_analyze(c, cfg.state_spec, 7)
    tr = detect_trojan(c, cfg)
    assert tr.rbs == om.rbs
    assert tr.dct.dct == oracle_dct(om) == {(6, 0), (7, 0)}
    assert tr.verdict is Verdict.CLEAN
