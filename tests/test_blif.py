"""BLIF subset frontend and gate-level/RTL agreement."""

from __future__ import annotations

import pytest

from dctforge import expr as ex
from dctforge.blif import parse_blif
from dctforge.circuit import make_state_spec
from dctforge.detect import compute_dct
from dctforge.engine import FIXPOINT, ExploreConfig, Mode
from dctforge.errors import (DuplicateName, ParseError, UndrivenSignal,
                             UnsupportedDirective)
from dctforge.rtl import parse_rtl

from bruteforce import BitPlanes, support_leaves
from conftest import config_for, counter_blif, counter_rtl


def test_buffer_cover():
    c = parse_blif(".model buf\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n")
    net = dict((n, e) for n, _, e in c.nets)["y"]
    assert net is ex.ref("a", 1)


def test_single_latch():
    c = parse_blif(".model l\n.inputs d\n.outputs q\n.latch d q 0\n.end\n")
    reg = c.registers[0]
    assert (reg.name, reg.width, reg.reset_value) == ("q", 1, 0)
    assert reg.next is ex.ref("d", 1)


def test_latch_with_clock_form():
    c = parse_blif(".model l\n.inputs d clk\n.outputs q\n"
                   ".latch d q re clk 1\n.end\n")
    assert c.registers[0].reset_value == 1


def test_constant_covers():
    c = parse_blif(".model k\n.outputs t f\n.names t\n1\n.names f\n.end\n")
    nets = {n: e for n, _, e in c.nets}
    assert ex.evaluate(nets["t"], {}) == 1
    assert ex.evaluate(nets["f"], {}) == 0


def test_dash_expansion_semantics():
    text = (".model m\n.inputs a b c\n.outputs y\n"
            ".names a b c y\n1-0 1\n01- 1\n.end\n")
    c = parse_blif(text)
    y = {n: e for n, _, e in c.nets}["y"]
    leaves = support_leaves(y)
    bp = BitPlanes(leaves)
    for k in range(bp.count):
        env = bp.assignment_env(k)
        a = env[("ref", "a")]
        b = env[("ref", "b")]
        cc = env[("ref", "c")]
        want = int((a and not cc) or ((not a) and b))
        assert ex.evaluate(y, env) == want
    # Each product references every input of the cover (minterm expansion).
    assert y.op == "or"


def test_gate_level_ima_structure(ima_gate):
    assert len(ima_gate.registers) == 3
    assert [r.name for r in ima_gate.registers] == ["q2", "q1", "q0"]
    assert all(r.width == 1 for r in ima_gate.registers)
    assert ima_gate.input_widths() == {"inValid": 1}


def test_frontend_agreement_rs_trans_dct(ima, ima_gate):
    """The hand bit-blasted netlist and the RTL version must agree on
    reachable states, the transition relation, and the don't-care set."""
    cfg_rtl = ExploreConfig(state_spec=make_state_spec(ima, ["pcmSq"]),
                            depth=7, mode=Mode.BFS_PRUNE,
                            monitored_outputs=("outValid",))
    cfg_gate = ExploreConfig(
        state_spec=make_state_spec(ima_gate, ["q2", "q1", "q0"]),
        depth=7, mode=Mode.BFS_PRUNE, monitored_outputs=("outValid",))
    rep_rtl = compute_dct(ima, cfg_rtl)
    rep_gate = compute_dct(ima_gate, cfg_gate)
    assert rep_rtl.rs == rep_gate.rs
    assert rep_rtl.trans == rep_gate.trans
    assert rep_rtl.dct == rep_gate.dct
    assert rep_gate.dct == {(6, 0), (7, 0)}


def test_counter_scale_at_fixpoint():
    """The w=7 gate-level counter at fixpoint equals its closed form: it
    wraps to 0 at K = 2^w - 3, so RS is {0..K} and the one unreachable
    code with a reachable successor, 2^w - 1, goes to 0."""
    w = 7
    c = parse_blif(counter_blif(w))
    cfg = config_for(c, [f"q{i}" for i in reversed(range(w))],
                     depth=FIXPOINT, value_cap=1 << (w + 1))
    rep = compute_dct(c, cfg)
    assert rep.rs == set(range((1 << w) - 2))
    assert rep.dct == {((1 << w) - 1, 0)}


def test_rtl_counter_scale_at_fixpoint():
    """The w=10 RTL counter at fixpoint equals its closed form: RS is
    {0..K} with K = 2^w - 3, the one DCT is (2^w - 1, 0), and each of the
    2^w codes goes to itself and to its successor, so stage 2 enumerates
    2^(w+1) (destination, source) pairs."""
    w = 10
    c = parse_rtl(counter_rtl(w))
    cfg = config_for(c, ["cnt"], depth=FIXPOINT, value_cap=1 << (w + 1))
    rep = compute_dct(c, cfg)
    assert rep.rs == set(range((1 << w) - 2))
    assert rep.dct == {((1 << w) - 1, 0)}
    assert len(rep.trans) == 1 << (w + 1)


def test_unsupported_directive():
    with pytest.raises(UnsupportedDirective):
        parse_blif(".model m\n.inputs a\n.outputs y\n.gate AND a y\n.end\n")


def test_undriven_signal():
    with pytest.raises(UndrivenSignal):
        parse_blif(".model m\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n")


def test_offset_rows_rejected():
    with pytest.raises(ParseError):
        parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 0\n.end\n")


def test_duplicate_driver():
    with pytest.raises(DuplicateName):
        parse_blif(".model m\n.inputs a\n.outputs y\n"
                   ".names a y\n1 1\n.names a y\n0 1\n.end\n")


def test_missing_end():
    with pytest.raises(ParseError):
        parse_blif(".model m\n.inputs a\n.outputs a\n")


def test_continuation_lines():
    c = parse_blif(".model m\n.inputs a b \\\nc\n.outputs y\n"
                   ".names a b c y\n111 1\n.end\n")
    assert len(c.inputs) == 3


def test_deep_input_raises_typed_errors_not_recursion():
    n = 3000
    parens = "(" * n
    with pytest.raises(ParseError):
        parse_blif(f".model m\n.inputs a\n.outputs y\n.names a y\n{parens} 1\n.end\n")
    with pytest.raises(UndrivenSignal):
        parse_blif(f".model m\n.inputs a\n.outputs y\n.names {parens}a y\n1 1\n.end\n")


def test_deep_net_chain_parses():
    n = 3000
    lines = [".model chain", ".inputs a", ".outputs y", ".names a n0", "1 1"]
    for i in range(1, n + 1):
        lines += [f".names n{i - 1} n{i}", "0 1"]
    lines += [f".names n{n} y", "1 1", ".end"]
    c = parse_blif("\n".join(lines) + "\n")
    assert len(c.nets) == n + 2


def test_trailing_continuation_at_end_of_file():
    with pytest.raises(ParseError):
        parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n\\")
    c = parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n"
                   ".end \\")
    assert c.name == "m"
