"""RTL-FSM format: parse examples, error reporting, print round-trip."""

from __future__ import annotations

import pytest

from dctforge import corpus
from dctforge import expr as ex
from dctforge.circuit import print_rtl
from dctforge.errors import (CombinationalCycle, DuplicateName, ParseError,
                             UnknownSignal, WidthMismatch)
from dctforge.rtl import MAX_NESTING, parse_rtl

IDENTITY = """\
circuit id
input a:1
output y:1 = a
"""


def test_identity_circuit():
    c = parse_rtl(IDENTITY)
    assert c.name == "id"
    assert c.inputs == (("a", 1),)
    assert c.registers == ()
    assert c.outputs[0][2] is ex.ref("a", 1)


def test_ima_transcription(ima):
    assert len(ima.inputs) == 2
    assert dict(ima.inputs) == {"inValid": 1, "inSamp": 16}
    assert len(ima.registers) == 1
    reg = ima.registers[0]
    assert (reg.name, reg.width, reg.reset_value) == ("pcmSq", 3, 0)
    assert reg.next.op == "case"
    assert reg.next.aux == (0, 1, 2, 3, 4, 5)
    assert ima.output_widths() == {"outValid": 1}


def test_roundtrip_over_corpus():
    for name in corpus.corpus_names():
        if not name.endswith(".snl"):
            continue
        c = corpus.load(name)
        assert parse_rtl(print_rtl(c)) == c, name


def test_roundtrip_exercises_every_operator():
    src = """\
circuit ops
input a:4
input b:4
input c:1
output o1:4 = c ? a + b : a - b
output o2:4 = a & b | a ^ b
output o3:1 = a == b != (a < b)
output o4:4 = ~a + -b
output o5:4 = a << zext(c, 4)
output o6:4 = {a[3:2], b[1:0]}
output o7:1 = redor(a) & redand(b)
output o8:2 = case(a[1:0]){ 2'd0: b[1:0]; 2'd3: 2'd1; default: 2'd2 }
net n1:8 = zext(a, 8)
output o9:8 = n1 + 8'd0x1f + 8'd0b101
"""
    c = parse_rtl(src)
    assert parse_rtl(print_rtl(c)) == c


def _vars_to_refs(e):
    rebuilt = {}
    for n in ex.postorder([e]):
        if n.op == "var":
            rebuilt[n] = ex.ref(n.aux[0], n.width)
        elif not n.args:
            rebuilt[n] = n
        else:
            args = [rebuilt[a] for a in n.args]
            if n.op == "case":
                rebuilt[n] = ex.case(args[0], list(zip(n.aux, args[1:-1])),
                                     args[-1])
            elif n.op == "slice":
                rebuilt[n] = ex.slice_(args[0], *n.aux)
            elif n.op == "zext":
                rebuilt[n] = ex.zext(args[0], n.width)
            elif n.op == "concat":
                rebuilt[n] = ex.concat(*args)
            else:
                ctor = {"not": ex.not_, "neg": ex.neg, "redor": ex.redor,
                        "redand": ex.redand, "and": ex.and_, "or": ex.or_,
                        "xor": ex.xor, "add": ex.add, "sub": ex.sub,
                        "eq": ex.eq, "ne": ex.ne, "ult": ex.ult,
                        "shl": ex.shl, "mux": ex.mux}[n.op]
            if n.op in ("not", "neg", "redor", "redand", "and", "or", "xor",
                        "add", "sub", "eq", "ne", "ult", "shl", "mux"):
                rebuilt[n] = ctor(*args)
    return rebuilt[e]


def test_expression_print_parse_fuzz():
    """The printer's parenthesization must survive a re-parse for random
    expression shapes, node for node."""
    import random
    from bruteforce import ExprGen
    rng = random.Random(5150)
    gen = ExprGen(rng, n_vars=3, var_width=3)
    for _ in range(300):
        e = _vars_to_refs(gen.gen(4))
        src = (f"circuit f\ninput v0:3\ninput v1:3\ninput v2:3\n"
               f"output y:{e.width} = {ex.pp(e)}\n")
        c = parse_rtl(src)
        assert c.outputs[0][2] is e, ex.pp(e)


def test_precedence_comparison_binds_tighter_than_bitwise():
    src = "circuit p\ninput a:1\ninput b:1\noutput y:1 = a == b | a\n"
    c = parse_rtl(src)
    y = c.outputs[0][2]
    assert y.op == "or"
    assert y.args[0].op == "eq"


def test_bitwise_tier_is_left_associative():
    src = "circuit p\ninput a:1\ninput b:1\ninput c:1\noutput y:1 = a | b & c\n"
    y = parse_rtl(src).outputs[0][2]
    assert y.op == "and"
    assert y.args[0].op == "or"


def test_comments_and_blank_lines():
    src = "# header\ncircuit c  # trailing\n\ninput a:1\noutput y:1 = a\n"
    assert parse_rtl(src).name == "c"


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_rtl("circuit c\ninput a:1\noutput y:1 = a +\n")
    assert info.value.line == 3
    assert info.value.col > 0


def test_unknown_signal():
    with pytest.raises(UnknownSignal):
        parse_rtl("circuit c\noutput y:1 = ghost\n")


def test_duplicate_name():
    with pytest.raises(DuplicateName):
        parse_rtl("circuit c\ninput a:1\ninput a:1\noutput y:1 = a\n")


def test_width_mismatch_in_output():
    with pytest.raises(WidthMismatch):
        parse_rtl("circuit c\ninput a:4\noutput y:1 = a\n")


def test_combinational_cycle():
    with pytest.raises(CombinationalCycle):
        parse_rtl("circuit c\nnet x:1 = x\noutput y:1 = x\n")


def test_missing_header():
    with pytest.raises(ParseError):
        parse_rtl("input a:1\n")


def test_keyword_cannot_name_signal():
    with pytest.raises(ParseError):
        parse_rtl("circuit c\ninput case:1\noutput y:1 = case\n")


def test_forward_references_allowed():
    src = "circuit c\noutput y:1 = n\nnet n:1 = a\ninput a:1\n"
    c = parse_rtl(src)
    assert c.nets[0][0] == "n"


def test_case_key_width_checked():
    src = ("circuit c\ninput s:2\noutput y:1 = "
           "case(s){ 3'd0: 1'd1; default: 1'd0 }\n")
    with pytest.raises(ParseError):
        parse_rtl(src)


def test_reg_requires_reset_and_next():
    with pytest.raises(ParseError):
        parse_rtl("circuit c\nreg r:1 next 1'd0\n")
    with pytest.raises(ParseError):
        parse_rtl("circuit c\nreg r:1 reset 0\n")


@pytest.mark.parametrize("open_, close", [
    ("(", ")"), ("{a, ", "}"), ("redor(", ")"), ("zext(", ", 1)"),
    ("a ? ", " : a"), ("case(a){ 1'd1: ", "; default: a }"),
])
def test_deep_nesting_is_a_parse_error(open_, close):
    src = f"circuit c\ninput a:1\noutput y:1 = {open_ * 3000}a{close * 3000}\n"
    with pytest.raises(ParseError) as info:
        parse_rtl(src)
    assert info.value.line == 3
    assert "nested" in info.value.expected


def test_nesting_limit_is_inclusive():
    n = MAX_NESTING
    c = parse_rtl(f"circuit c\ninput a:1\noutput y:1 = {'(' * n}a{')' * n}\n")
    assert c.outputs[0][2] is ex.ref("a", 1)
    with pytest.raises(ParseError):
        parse_rtl(f"circuit c\ninput a:1\n"
                  f"output y:1 = {'(' * (n + 1)}a{')' * (n + 1)}\n")


def test_long_ternary_and_unary_chains_parse():
    n = 3000
    c = parse_rtl("circuit c\ninput a:1\ninput b:1\n"
                  f"output y:1 = {'a ? b : ' * n}a\n"
                  f"output z:1 = {'~-' * n}b\n")
    y, z = c.outputs[0][2], c.outputs[1][2]
    a, b = ex.ref("a", 1), ex.ref("b", 1)
    assert y.op == "mux" and y.args[:2] == (a, b)
    assert ex.evaluate(y, {("ref", "a"): 0, ("ref", "b"): 1}) == 0
    assert ex.evaluate(z, {("ref", "b"): 1}) == 1


@pytest.mark.parametrize("text,value", [
    ("3'd04", 4), ("2'd01", 1), ("4'd007", 7), ("3'd00", 0), ("8'd010", 10),
    ("8'd0x10", 16), ("8'd0b10", 2)])
def test_sized_constant_digits_are_decimal(text, value):
    c = parse_rtl(f"circuit c\noutput y:{text.split(chr(39))[0]} = {text}\n")
    assert c.outputs[0][2] is ex.const(c.outputs[0][1], value)


def test_leading_zero_constant_in_expression():
    c = parse_rtl("circuit c\ninput a:2\noutput y:2 = a + 2'd01\n")
    assert c.outputs[0][2] is ex.add(ex.ref("a", 2), ex.const(2, 1))


@pytest.mark.parametrize("src", [
    "circuit c\ninput a:0\n",
    "circuit c\ninput a:100000000000\n",
    "circuit c\ninput a:1\noutput y:1 = zext(a, 99999999999)[0:0]\n",
    "circuit c\noutput y:1 = 99999999999'd0 == 99999999999'd0\n",
    "circuit c\nreg r:8 reset " + "1" * 5000 + " next r\n",
])
def test_widths_and_numbers_out_of_range_are_parse_errors(src):
    with pytest.raises(ParseError):
        parse_rtl(src)
