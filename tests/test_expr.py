"""Expression layer: hash-consing, evaluation, simplification."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctforge import expr as ex
from dctforge.errors import WidthMismatch

from bruteforce import BitPlanes, ExprGen, naive_eval, support_leaves


def test_hash_consing_shares_nodes():
    a = ex.and_(ex.ref("x", 4), ex.const(4, 3))
    b = ex.and_(ex.ref("x", 4), ex.const(4, 3))
    assert a is b
    assert a.eid == b.eid
    assert ex.and_(ex.ref("x", 4), ex.const(4, 5)) is not a


def test_var_identity_includes_step():
    assert ex.var("inValid", 1, 0) is ex.var("inValid", 1, 0)
    assert ex.var("inValid", 1, 0) is not ex.var("inValid", 1, 1)


def test_constructor_width_checks():
    with pytest.raises(WidthMismatch):
        ex.and_(ex.ref("a", 3), ex.ref("b", 4))
    with pytest.raises(WidthMismatch):
        ex.mux(ex.ref("c", 2), ex.ref("a", 3), ex.ref("b", 3))
    with pytest.raises(WidthMismatch):
        ex.const(3, 8)
    with pytest.raises(WidthMismatch):
        ex.slice_(ex.ref("a", 3), 1, 3)
    with pytest.raises(WidthMismatch):
        ex.case(ex.ref("s", 2), [(1, ex.const(1, 0)), (1, ex.const(1, 1))],
                ex.const(1, 0))


def test_simplify_mux_constant_condition():
    a, b = ex.ref("a", 4), ex.ref("b", 4)
    assert ex.simplify(ex.mux(ex.const(1, 1), a, b)) is a
    assert ex.simplify(ex.mux(ex.const(1, 0), a, b)) is b


def test_simplify_case_unused_state_hits_default():
    # A 3-bit selector with arms 0..5 only: values 6 and 7 fall through.
    arms = [(k, ex.const(3, (k + 1) % 6)) for k in range(6)]
    e = ex.case(ex.const(3, 6), arms, ex.const(3, 0))
    assert ex.simplify(e) is ex.const(3, 0)
    e7 = ex.case(ex.const(3, 7), arms, ex.const(3, 0))
    assert ex.simplify(e7) is ex.const(3, 0)
    e2 = ex.case(ex.const(3, 2), arms, ex.const(3, 0))
    assert ex.simplify(e2) is ex.const(3, 3)


def test_simplify_identity_and_annihilator_rules():
    x = ex.ref("x", 4)
    zero, ones = ex.const(4, 0), ex.const(4, 15)
    assert ex.simplify(ex.and_(x, zero)) is zero
    assert ex.simplify(ex.and_(x, ones)) is x
    assert ex.simplify(ex.or_(x, ones)) is ones
    assert ex.simplify(ex.or_(x, zero)) is x
    assert ex.simplify(ex.xor(x, x)) is zero
    assert ex.simplify(ex.add(x, zero)) is x
    assert ex.simplify(ex.sub(x, x)) is zero
    assert ex.simplify(ex.eq(x, x)) is ex.const(1, 1)


def test_simplify_random_exprs_agree_exhaustively():
    # 1,000 random expressions with <= 8-bit support, checked on every
    # assignment against an independent evaluator.
    rng = random.Random(1234)
    gen = ExprGen(rng, n_vars=2, var_width=4)
    for _ in range(1000):
        e = gen.gen(rng.randrange(1, 5))
        s = ex.simplify(e)
        leaves = support_leaves(e, s)
        if not leaves:
            assert naive_eval(e, {}) == naive_eval(s, {})
            continue
        bp = BitPlanes(leaves)
        assert bp.planes(e) == bp.planes(s), ex.pp(e)


def test_simplify_idempotent():
    rng = random.Random(99)
    gen = ExprGen(rng)
    for _ in range(300):
        s = ex.simplify(gen.gen(4))
        assert ex.simplify(s) is s


def test_evaluate_matches_naive_evaluator():
    rng = random.Random(7)
    gen = ExprGen(rng)
    for _ in range(200):
        e = gen.gen(4)
        leaves = support_leaves(e)
        env = {("var",) + v.aux: rng.randrange(1 << v.width) for v in leaves}
        assert ex.evaluate(e, env) == naive_eval(e, env)


@given(st.integers(0, 255), st.integers(0, 255))
def test_add_sub_mod_256(a, b):
    ea, eb = ex.const(8, a), ex.const(8, b)
    assert ex.evaluate(ex.add(ea, eb), {}) == (a + b) % 256
    assert ex.evaluate(ex.sub(ea, eb), {}) == (a - b) % 256


@given(st.integers(0, 7), st.integers(0, 7))
def test_comparison_semantics(a, b):
    ea, eb = ex.const(3, a), ex.const(3, b)
    assert ex.evaluate(ex.ult(ea, eb), {}) == int(a < b)
    assert ex.evaluate(ex.eq(ea, eb), {}) == int(a == b)


@settings(max_examples=60)
@given(st.integers(0, 15), st.integers(0, 7))
def test_shl_semantics(a, s):
    e = ex.shl(ex.const(4, a), ex.const(3, s))
    assert ex.evaluate(e, {}) == ((a << s) & 15 if s < 4 else 0)


def test_concat_slice_roundtrip():
    hi, lo = ex.const(3, 5), ex.const(2, 2)
    e = ex.concat(hi, lo)
    assert ex.evaluate(e, {}) == (5 << 2) | 2
    assert ex.evaluate(ex.slice_(e, 2, 4), {}) == 5
    assert ex.evaluate(ex.slice_(e, 0, 1), {}) == 2


def test_substitute_replaces_refs():
    x = ex.ref("x", 3)
    e = ex.add(x, ex.const(3, 1))
    out = ex.substitute(e, {"x": ex.const(3, 6)})
    assert ex.evaluate(out, {}) == 7
    with pytest.raises(WidthMismatch):
        ex.substitute(e, {"x": ex.const(4, 6)})


def test_replace_node_targets_identity():
    x = ex.ref("x", 3)
    m = ex.mux(ex.ref("c", 1), ex.const(3, 1), ex.const(3, 2))
    e = ex.add(m, x)
    out = ex.replace_node(e, m, ex.const(3, 1))
    assert out is ex.add(ex.const(3, 1), x)


def test_pp_stable_and_readable():
    e = ex.mux(ex.eq(ex.ref("s", 3), ex.const(3, 5)),
               ex.const(1, 1), ex.const(1, 0))
    assert ex.pp(e) == "s == 3'd5 ? 1'd1 : 1'd0"
    assert ex.pp(ex.var("pcmSq", 3, -1)) == "$pcmSq.init"


def _simplify_without_memo(e: ex.Expr) -> ex.Expr:
    """simplify as a plain bottom-up walk that never reads the memo."""
    out: dict[ex.Expr, ex.Expr] = {}
    for node in ex.postorder([e]):
        if not node.args:
            out[node] = node
        else:
            out[node] = ex._simp_node(node.op, node.width,
                                      tuple(out[a] for a in node.args),
                                      node.aux)
    return out[e]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_simplify_memo_matches_recompute(seed, depth):
    rng = random.Random(seed)
    gen = ExprGen(rng, n_vars=3, var_width=3)
    roots = [gen.gen(depth) for _ in range(3)]
    # Simplify a sub-DAG first and the concatenation last, so later walks
    # stop at memoised nodes.
    nodes = ex.postorder([roots[0]])
    ex.simplify(nodes[len(nodes) // 2])
    for e in roots + [ex.concat(*roots)]:
        s = ex.simplify(e)
        assert s is _simplify_without_memo(e)
        assert ex.simplify(s) is s
        assert s.simp is s and e.simp is s


def test_simplify_memo_stops_at_simplified_nodes():
    x = ex.var("x", 4, 0)
    zero = ex.const(4, 0)
    inner = ex.add(ex.and_(x, zero), x)
    assert ex.simplify(inner) is x
    outer = ex.xor(inner, ex.const(4, 3))
    assert ex.simplify(outer) is ex.xor(x, ex.const(4, 3))
    assert inner.simp is x and x.simp is x


def _hold_case(rng: random.Random, x: ex.Expr) -> ex.Expr:
    """case(x){k: k, ...; default: x}, now and then with an arm that is x
    itself or, as a near miss, a wrong constant or default."""
    w = x.width
    keys = sorted(rng.sample(range(1 << w), rng.randrange(1, (1 << w) + 1)))
    arms = []
    for k in keys:
        roll = rng.random()
        if roll < 0.15:
            arms.append((k, x))
        elif roll < 0.25:
            arms.append((k, ex.const(w, (k + 1) & ex.mask(w))))
        else:
            arms.append((k, ex.const(w, k)))
    default = x if rng.random() < 0.85 else ex.const(w, rng.randrange(1 << w))
    return ex.case(x, arms, default)


def _hold_mux(rng: random.Random, gen: ExprGen, x: ex.Expr,
              cond: ex.Expr) -> ex.Expr:
    """x under one more mux on cond, nested into a mux on cond (or, as a
    near miss, on another condition) in either branch."""
    other = gen.gen(1, x.width)
    inner_c = cond if rng.random() < 0.8 else gen.gen(1, 1)
    if rng.random() < 0.5:
        return ex.mux(cond, x, ex.mux(inner_c, other, gen.gen(1, x.width)))
    return ex.mux(cond, ex.mux(inner_c, gen.gen(1, x.width), other), x)


def _with_hold_logic(seed: int, depth: int) -> ex.Expr:
    rng = random.Random(seed)
    gen = ExprGen(rng, n_vars=2, var_width=3)
    cond = gen.gen(1, 1)
    e = gen.gen(depth, rng.choice([1, 2, 3]))
    for _ in range(rng.randrange(1, 6)):
        if e.width <= 3 and rng.random() < 0.5:
            e = _hold_case(rng, e)
        else:
            e = _hold_mux(rng, gen, e, cond)
        if rng.random() < 0.3:
            e = ex.xor(e, gen.gen(depth, e.width))
    return e


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3))
def test_simplify_hold_logic_agrees_with_evaluate(seed, depth):
    e = _with_hold_logic(seed, depth)
    s = ex.simplify(e)
    assert ex.simplify(s) is s
    assert s is _simplify_without_memo(e)
    leaves = support_leaves(e, s)
    bp = BitPlanes(leaves)
    for k in range(bp.count):
        env = bp.assignment_env(k)
        assert ex.evaluate(s, env) == ex.evaluate(e, env), ex.pp(e)


def _ops(e: ex.Expr) -> list[str]:
    """Operators of e's DAG: a failure report that stays small, where
    pp of nested hold logic would spell out 2^depth copies."""
    return [n.op for n in ex.postorder([e])]


def test_nested_hold_case_simplifies_to_register():
    x = ex.var("trojan_state", 2, -1)
    e = x
    for _ in range(60):
        e = ex.case(e, [(k, ex.const(2, k)) for k in range(3)], e)
    assert _ops(ex.simplify(e)) == ["var"]
    assert ex.simplify(e) is x


def test_repr_of_deep_hold_nest_is_bounded():
    """20 unsimplified hold-case layers: 23 DAG nodes, but a tree of
    about 3 * 2^20 nodes, which pp would spell out in full."""
    x = ex.var("trojan_state", 2, -1)
    e = x
    for _ in range(20):
        e = ex.case(e, [(k, ex.const(2, k)) for k in range(2)], e)
    assert len(ex.postorder([e])) == 23
    assert repr(e) == "<case:2, 23 nodes, tree over 200>"
    small = ex.case(x, [(0, ex.const(2, 0))], x)
    assert repr(small) == f"<{ex.pp(small)}:2>"


def test_mux_chain_on_one_condition_collapses():
    c = ex.var("en", 1, 0)
    x = ex.var("cnt", 4, -1)
    one = ex.const(4, 1)
    e = x
    for _ in range(60):
        e = ex.mux(c, one, e)
    assert _ops(ex.simplify(e)).count("mux") == 1
    assert ex.simplify(e) is ex.mux(c, one, x)
    e = x
    for _ in range(60):
        e = ex.mux(c, e, one)
    assert _ops(ex.simplify(e)).count("mux") == 1
    assert ex.simplify(e) is ex.mux(c, x, one)


def test_hold_case_rule_needs_every_arm_to_hold():
    x = ex.var("s", 2, 0)
    near = ex.case(x, [(0, ex.const(2, 0)), (1, ex.const(2, 2))], x)
    assert ex.simplify(near) is near
    other_default = ex.case(x, [(0, ex.const(2, 0))], ex.const(2, 3))
    assert ex.simplify(other_default) is other_default
