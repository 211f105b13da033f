"""Circuit invariants, validation completeness, state-spec helpers."""

from __future__ import annotations

import random

import pytest

from dctforge import corpus
from dctforge import expr as ex
from dctforge.circuit import (Circuit, Register, decode_state, encode_state,
                              make_state_spec, validate, validation_errors)
from dctforge.engine import ExploreConfig, Mode, reset_state, step_cycle
from dctforge.errors import (CombinationalCycle, DuplicateName,
                             InvalidCircuit, UnknownSignal, WidthMismatch)
from dctforge.trojanlab import gen_random_fsm


def test_corpus_circuits_validate():
    for name in corpus.corpus_names():
        validate(corpus.load(name))


def test_self_loop_net_is_cycle():
    c = Circuit("c", (), (("y", 1, ex.ref("x", 1)),), (),
                (("x", 1, ex.ref("x", 1)),))
    errors = validation_errors(c)
    assert any(isinstance(e, CombinationalCycle) for e in errors)


def test_register_next_width_mismatch():
    c = Circuit("c", (), (), (Register("r", 3, 0, ex.const(4, 0)),), ())
    errors = validation_errors(c)
    assert any(isinstance(e, WidthMismatch) for e in errors)
    with pytest.raises(InvalidCircuit):
        validate(c)


def test_reset_value_must_fit():
    c = Circuit("c", (), (), (Register("r", 2, 4, ex.const(2, 0)),), ())
    assert any(isinstance(e, WidthMismatch) for e in validation_errors(c))


def test_unknown_reference_reported():
    c = Circuit("c", (), (("y", 1, ex.ref("nope", 1)),), (), ())
    assert any(isinstance(e, UnknownSignal) for e in validation_errors(c))


def test_all_violations_reported_together():
    c = Circuit("c", (("a", 1), ("a", 1)),
                (("y", 2, ex.ref("ghost", 2)),),
                (Register("r", 2, 5, ex.const(3, 0)),), ())
    errors = validation_errors(c)
    assert len(errors) >= 3


def test_output_may_alias_driven_signal():
    c = Circuit("c", (("a", 1),), (("q", 1, ex.ref("q", 1)),),
                (Register("q", 1, 0, ex.ref("a", 1)),), ())
    validate(c)


def test_state_spec_and_ids(ima):
    spec = make_state_spec(ima, ["pcmSq"])
    assert spec.total_width == 3
    assert encode_state(ima, spec, {"pcmSq": 5}) == 5
    assert decode_state(ima, spec, 5) == {"pcmSq": 5}


def test_state_spec_concat_order():
    c = Circuit("c", (), (),
                (Register("hi", 2, 0, ex.const(2, 0)),
                 Register("lo", 3, 0, ex.const(3, 0))), ())
    spec = make_state_spec(c, ["hi", "lo"])
    assert spec.total_width == 5
    # First-listed register occupies the most significant bits.
    assert encode_state(c, spec, {"hi": 0b10, "lo": 0b011}) == 0b10011
    assert decode_state(c, spec, 0b10011) == {"hi": 2, "lo": 3}


def test_state_spec_width_cap():
    c = Circuit("c", (), (), (Register("w", 24, 0, ex.const(24, 0)),
                              Register("x", 1, 0, ex.const(1, 0))), ())
    make_state_spec(c, ["w"])
    with pytest.raises(WidthMismatch):
        make_state_spec(c, ["w", "x"])


def test_state_spec_unknown_register(ima):
    with pytest.raises(UnknownSignal):
        make_state_spec(ima, ["ghost"])


def test_state_spec_duplicate_names_the_register():
    c = Circuit("c", (), (), tuple(Register(n, 2, 0, ex.const(2, 0))
                                   for n in ("a", "b", "d")), ())
    with pytest.raises(DuplicateName) as info:
        make_state_spec(c, ["a", "b", "b", "a"])
    assert info.value.signal == "b"
    assert str(info.value) == "duplicate name 'b'"


def test_validated_circuits_step_cleanly():
    """Fuzz: every generated circuit that validates can be stepped by the
    engine without type errors."""
    rng = random.Random(31337)
    for _ in range(1000):
        seed = rng.randrange(1 << 30)
        state_bits = rng.randrange(1, 4)
        n_states = 1 << state_bits
        n_reach = rng.randrange(1, n_states + 1)
        dct = rng.randrange(0, n_states - n_reach + 1)
        c = gen_random_fsm(seed, state_bits=state_bits,
                           input_bits=rng.randrange(1, 3),
                           reachable_fraction=n_reach / n_states,
                           dct_count=dct)
        assert validation_errors(c) == []
        cfg = ExploreConfig(state_spec=make_state_spec(c, ["st"]),
                            depth=1, mode=Mode.BFS,
                            monitored_outputs=("flag",))
        succs = step_cycle(c, reset_state(c), cfg)
        assert succs
        for s in succs:
            assert set(s.regs) == {r.name for r in c.registers}
            assert all(s.regs[r.name].width == r.width
                       for r in c.registers)
