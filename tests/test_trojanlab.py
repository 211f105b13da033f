"""Trojan injection and the seeded FSM generator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctforge import expr as ex
from dctforge.circuit import make_state_spec, validate
from dctforge.detect import (Verdict, detect_trojan, oracle_analyze,
                             oracle_dct)
from dctforge.engine import explore, reset_state
from dctforge.errors import (DuplicateName, InfeasibleParams, UnknownOutput,
                             WidthMismatch)
from dctforge.trojanlab import StuckAt, TriggerSpec, gen_random_fsm, inject_trojan

from conftest import config_for


def _trigger(circuit, edges):
    return TriggerSpec(frozenset(edges), make_state_spec(circuit, ["pcmSq"]))


def test_injected_structure(ima):
    t = inject_trojan(ima, _trigger(ima, {(6, 0), (7, 0)}),
                      StuckAt("outValid", 1))
    validate(t)
    regs = t.register_map()
    assert regs["trojan_state"].width == 2
    assert regs["trojan_state"].reset_value == 0
    assert regs["trojan_ena"].width == 1
    out = t.output_exprs()["outValid"]
    assert out.op == "mux"
    assert out.args[1] is ex.const(1, 1)


def test_injection_preserves_honest_behavior(ima, ima_cfg):
    t = inject_trojan(ima, _trigger(ima, {(6, 0), (7, 0)}),
                      StuckAt("outValid", 1))
    cfg_t = config_for(t, ["pcmSq"], monitored=("outValid",))
    honest = explore(ima, [reset_state(ima)], ima_cfg)
    injected = explore(t, [reset_state(t)], cfg_t)
    assert honest.rs == injected.rs
    assert {(b.src, b.dst, b.output, b.value) for b in honest.rbs} == \
        {(b.src, b.dst, b.output, b.value) for b in injected.rbs}


def test_inject_into_counter_never_triggers(counter):
    spec = make_state_spec(counter, ["cnt"])
    t = inject_trojan(counter, TriggerSpec(frozenset({(7, 0)}), spec),
                      StuckAt("wrap", 1))
    validate(t)
    tr = detect_trojan(t, config_for(t, ["cnt"], depth=8))
    assert tr.verdict is Verdict.NO_DCT


def test_single_edge_variant_detected():
    from dctforge import corpus
    for name in ("ima_trojan_02.snl", "ima_trojan_09.snl"):
        c = corpus.load(name)
        tr = detect_trojan(c, config_for(c, ["pcmSq"]))
        assert tr.verdict is Verdict.TROJAN_DETECTED, name


def test_unknown_output_rejected(ima):
    with pytest.raises(UnknownOutput):
        inject_trojan(ima, _trigger(ima, {(6, 0)}), StuckAt("ghost", 1))


def test_payload_value_must_fit(ima):
    with pytest.raises(WidthMismatch):
        inject_trojan(ima, _trigger(ima, {(6, 0)}), StuckAt("outValid", 2))


def test_edge_out_of_range_rejected(ima):
    with pytest.raises(WidthMismatch):
        _trigger(ima, {(9, 0)})


def test_double_injection_rejected(ima):
    t = inject_trojan(ima, _trigger(ima, {(6, 0)}), StuckAt("outValid", 1))
    with pytest.raises(DuplicateName):
        inject_trojan(t, TriggerSpec(frozenset({(6, 0)}),
                                     make_state_spec(t, ["pcmSq"])),
                      StuckAt("outValid", 1))


def test_gen_random_fsm_spec_example():
    c = gen_random_fsm(1, state_bits=3, input_bits=2,
                       reachable_fraction=0.75, dct_count=2)
    spec = make_state_spec(c, ["st"])
    om = oracle_analyze(c, spec, 8)
    assert len(om.rs) == 6
    assert len(oracle_dct(om)) == 2


def test_gen_random_fsm_zero_dct():
    c = gen_random_fsm(9, state_bits=3, input_bits=1,
                       reachable_fraction=0.5, dct_count=0)
    om = oracle_analyze(c, make_state_spec(c, ["st"]), 8)
    assert oracle_dct(om) == set()


def test_gen_random_fsm_deterministic():
    a = gen_random_fsm(4, state_bits=3, input_bits=2,
                       reachable_fraction=0.6, dct_count=1)
    b = gen_random_fsm(4, state_bits=3, input_bits=2,
                       reachable_fraction=0.6, dct_count=1)
    assert a == b


def test_gen_random_fsm_infeasible_params():
    with pytest.raises(InfeasibleParams):
        gen_random_fsm(0, state_bits=2, input_bits=1,
                       reachable_fraction=1.0, dct_count=1)
    with pytest.raises(InfeasibleParams):
        gen_random_fsm(0, state_bits=5, input_bits=1,
                       reachable_fraction=0.5, dct_count=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), state_bits=st.integers(2, 4),
       dct_count=st.integers(0, 2))
def test_gen_random_fsm_ground_truth(seed, state_bits, dct_count):
    c = gen_random_fsm(seed, state_bits=state_bits, input_bits=1,
                       reachable_fraction=0.5, dct_count=dct_count)
    spec = make_state_spec(c, ["st"])
    om = oracle_analyze(c, spec, 1 << state_bits)
    assert len(oracle_dct(om)) == dct_count
