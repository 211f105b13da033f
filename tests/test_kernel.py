"""The concrete step kernel: compiled straight-line code that steps
constant states of split-free circuits in Reach explorations.  Every
answer equals the symbolic step's, and every case the kernel does not
answer falls back to the symbolic step."""

from __future__ import annotations

import json
import logging
import random
from dataclasses import replace as dc_replace

import pytest

from dctforge import corpus, engine, solve
from dctforge import expr as ex
from dctforge.blif import parse_blif
from dctforge.circuit import Circuit, Register, validate
from dctforge.detect import detect_trojan, oracle_analyze
from dctforge.engine import (FIXPOINT, Kind, Mode, explore, reset_state,
                             step_cycle, symbolic_state, symbolic_step)
from dctforge.errors import CapExceeded, PathExplosion
from dctforge.kernel import compile_kernel
from dctforge.rtl import parse_rtl
from dctforge.solve import SolverLimits

from bruteforce import ExprGen, naive_eval, per_path_explore, support_leaves
from conftest import config_for, counter_blif

_ALL_OPS = {"const", "var", "not", "neg", "redor", "redand", "and", "or",
            "xor", "add", "sub", "eq", "ne", "ult", "shl", "mux", "case",
            "slice", "concat", "zext"}


def test_kernel_equals_naive_eval_on_every_op():
    rng = random.Random(2024)
    ops = set()
    for seed in range(150):
        gen = ExprGen(random.Random(seed), n_vars=3, var_width=3)
        roots = [gen.gen(4) for _ in range(2)]
        order = ex.postorder(roots)
        ops |= {n.op for n in order}
        leaves = support_leaves(*roots)
        fn, nodes = compile_kernel(order, leaves, {}, roots)
        assert fn.__code__.co_names == ()
        assert nodes <= len(order)
        for _ in range(8):
            vals = [rng.randrange(1 << leaf.width) for leaf in leaves]
            env = {(leaf.op,) + leaf.aux: v for leaf, v in zip(leaves, vals)}
            assert fn(*vals) == tuple(naive_eval(r, env) for r in roots)
    assert ops == _ALL_OPS


def test_kernel_compiles_long_chains():
    """A chain of nodes each read once is written as nested expressions,
    and a long one is cut into statements before the parser's nesting
    limit."""
    x, y = ex.var("x", 8, 0), ex.var("y", 8, 0)
    e = x
    for i in range(600):
        e = ex.xor(ex.add(e, ex.const(8, i % 256)), y)
    fn, nodes = compile_kernel(ex.postorder([e]), [x, y], {}, [e])
    assert nodes == 1200
    for xv, yv in [(0, 0), (3, 200), (255, 17)]:
        assert fn(xv, yv) == (ex.evaluate(e, {("var", "x", 0): xv,
                                              ("var", "y", 0): yv}),)


def _split_free_netlist(seed, inputs, spec_regs, other_regs, n_nets=10,
                        private_input=None):
    """A random netlist with no Case or Mux node.  Registers are
    (name, width) pairs.  With private_input, a (name, width) input that
    only the first register of other_regs reads: it copies that input,
    so every destination has several of its valuations."""
    rng = random.Random(seed)
    regs = list(spec_regs) + list(other_regs)
    signals = list(inputs) + regs

    def operand(width):
        if rng.random() < 0.1:
            return ex.const(width, rng.randrange(1 << width))
        name, w = rng.choice(signals)
        e = ex.ref(name, w)
        if w > width:
            lo = rng.randrange(w - width + 1)
            return ex.slice_(e, lo, lo + width - 1)
        return ex.zext(e, width) if w < width else e

    def gate(width):
        op = rng.choice(["and", "or", "xor", "add", "sub", "not", "neg",
                         "cmp", "red", "shl", "concat"])
        if op in ("and", "or", "xor", "add", "sub"):
            fn = {"and": ex.and_, "or": ex.or_, "xor": ex.xor, "add": ex.add,
                  "sub": ex.sub}[op]
            return fn(operand(width), operand(width))
        if op == "not":
            return ex.not_(operand(width))
        if op == "neg":
            return ex.neg(operand(width))
        if op == "shl":
            return ex.shl(operand(width), operand(2))
        if op == "concat" and width >= 2:
            w1 = rng.randrange(1, width)
            return ex.concat(operand(width - w1), operand(w1))
        if op == "cmp" and width == 1:
            w = rng.choice([1, 2, 3])
            return rng.choice([ex.eq, ex.ne, ex.ult])(operand(w), operand(w))
        if op == "red" and width == 1:
            return rng.choice([ex.redor, ex.redand])(operand(3))
        return ex.xor(operand(width), operand(width))

    nets = []
    for i in range(n_nets):
        w = rng.choice([1, 2, 3, 4])
        nets.append((f"n{i}", w, gate(w)))
        signals.append((f"n{i}", w))
    nexts = [gate(w) for _, w in regs]
    if private_input is not None:
        name, w = private_input
        inputs = list(inputs) + [private_input]
        copied = ex.ref(name, w)
        width = other_regs[0][1]
        nexts[len(spec_regs)] = (ex.zext(copied, width) if w < width
                                 else ex.slice_(copied, 0, width - 1))
    registers = tuple(Register(n, w, rng.randrange(1 << w), e)
                      for (n, w), e in zip(regs, nexts))
    outputs = (("y", 2, gate(2)), ("z", 1, gate(1)))
    c = Circuit(f"rnd{seed}", tuple(inputs), outputs, registers, tuple(nets))
    validate(c)
    return c


def _cases():
    """(name, circuit, state registers, expected): expected is "kernel"
    when the kernel answers some step from depth 1 on, "fallback" when
    it answers none, None when the case makes no claim."""
    cases = []
    for w in range(2, 7):
        cases.append((f"cnt{w}.blif", parse_blif(counter_blif(w)),
                      [f"q{i}" for i in reversed(range(w))], "kernel"))
    cases.append(("ima_gate", corpus.load("ima_gate.blif"),
                  ["q2", "q1", "q0"], "kernel"))
    ins = [("a", 3), ("b", 1)]
    for seed in range(4):
        # Seed 0's non-spec register o has one valuation per destination;
        # the others' o reads an input that the spec logic may not pin.
        cases.append((f"rnd{seed}", _split_free_netlist(
            seed, ins, [("s", 3)], [("o", 2)]), ["s"],
            "kernel" if seed == 0 else None))
        cases.append((f"rnd{seed}+2spec", _split_free_netlist(
            seed, ins, [("s", 2), ("u", 2)], []), ["s", "u"], "kernel"))
        cases.append((f"rnd{seed}+private", _split_free_netlist(
            seed, ins, [("s", 3)], [("o", 2)], private_input=("p", 2)),
            ["s"], "fallback"))
    return cases


_CASES = _cases()


def _run(c, cfg, caplog):
    """The Reach exploration's Metadata fields and its explore_done
    step counts (kernel, table, memo), with a fresh SolverLimits."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
        meta = explore(c, [reset_state(c)],
                       dc_replace(cfg, limits=SolverLimits()))
    done = [json.loads(r.getMessage()) for r in caplog.records
            if r.name == "dctforge.engine" and r.levelno == logging.DEBUG
            and '"explore_done"' in r.getMessage()]
    fields = (meta.rs, {(b.src, b.dst, b.output, b.value) for b in meta.rbs},
              meta.paths_explored, meta.paths_pruned,
              meta.discovered_diameter, meta.depth_converged)
    return fields, tuple(done[-1][k] for k in ("kernel_steps", "table_steps",
                                               "memo_steps"))


def _kernel_off(monkeypatch):
    monkeypatch.setattr(engine, "_kernel_step", lambda c, s, cfg, k: None)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name,c,state_regs,expected", _CASES,
                         ids=[case[0] for case in _CASES])
def test_explore_with_and_without_kernel(name, c, state_regs, expected, mode,
                                         monkeypatch, caplog):
    for depth in (0, 1, 3, FIXPOINT):
        cfg = config_for(c, state_regs, depth=depth, mode=mode)
        got, (kernel_steps, _, _) = _run(c, cfg, caplog)
        with monkeypatch.context() as m:
            _kernel_off(m)
            ref, (off_steps, _, _) = _run(c, cfg, caplog)
        assert got == ref, (name, depth)
        assert off_steps == 0
        if expected == "fallback" or depth == 0:
            assert kernel_steps == 0, (name, depth)
        elif expected == "kernel":
            assert kernel_steps > 0, (name, depth)


def test_kernel_agrees_with_oracle():
    for seed in range(4):
        c = _split_free_netlist(seed, [("a", 3), ("b", 1)], [("s", 3)],
                                [("o", 2)])
        cfg = config_for(c, ["s"], depth=5, mode=Mode.BFS)
        om = oracle_analyze(c, cfg.state_spec, 5)
        meta = explore(c, [reset_state(c)], cfg)
        assert meta.rs == om.rs
        assert meta.rbs == om.rbs


_WIDE = """circuit wide
input x:4
output y:4 = x
reg st:4 reset 0 next x
"""

_CONST_NEXT = """circuit const_next
input x:4
output y:4 = x
reg st:4 reset 0 next st
"""


@pytest.mark.parametrize("text,kw,error", [
    (_WIDE, {"value_cap": 8}, CapExceeded),
    (_WIDE, {"path_cap": 8}, PathExplosion),
    (_CONST_NEXT, {"value_cap": 8}, CapExceeded),
], ids=["destinations>value_cap", "destinations>path_cap",
        "output-values>value_cap"])
@pytest.mark.parametrize("mode", [Mode.BFS, Mode.BFS_PRUNE],
                         ids=lambda m: m.value)
def test_fallback_raises_what_the_symbolic_step_raises(text, kw, error, mode,
                                                       monkeypatch, caplog):
    c = parse_rtl(text)
    cfg = config_for(c, ["st"], depth=2, mode=mode, **kw)
    with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
        with pytest.raises(error) as got:
            explore(c, [reset_state(c)], cfg)
    assert any('"kernel_built"' in r.getMessage() for r in caplog.records)
    with monkeypatch.context() as m:
        _kernel_off(m)
        with pytest.raises(error) as ref:
            explore(c, [reset_state(c)], dc_replace(cfg))
    assert str(got.value) == str(ref.value)


def test_partial_keeps_the_smallest_destination(monkeypatch, caplog):
    """Under partial, more destinations than value_cap is no error: the
    kernel keeps the smallest, as min_value does.  The path is 0, 3, 3,
    so the third step replays the second's from the step memo."""
    c = parse_rtl("circuit partial\n"
                  "input x:4\n"
                  "output y:1 = x == 4'd0\n"
                  "reg st:4 reset 0 next x | 4'd3\n")
    cfg = config_for(c, ["st"], depth=3, mode=Mode.PARTIAL, value_cap=2)
    got, steps = _run(c, cfg, caplog)
    with monkeypatch.context() as m:
        _kernel_off(m)
        ref, _ = _run(c, cfg, caplog)
    assert got == ref
    assert got[0] == {0, 3}
    assert steps == (2, 0, 1)


_TWO_OTHERS = """circuit two_others
input i:1
output y:1 = t
reg s:1 reset 0 next ~s
reg t:1 reset 0 next i
"""


def test_kernel_fallback_takes_the_table_step(caplog):
    """From reset, t takes two values on s's one destination, so the
    kernel falls back; that step is a table step, and the later steps,
    from a symbolic t, are the solver's.  RS, paths and RBS equal the
    per-path reference's (_build_plan's plan: solver steps only) and
    the oracle's."""
    c = parse_rtl(_TWO_OTHERS)
    cfg = config_for(c, ["s"], depth=3, mode=Mode.BFS)
    got, steps = _run(c, cfg, caplog)
    assert steps == (0, 1, 0)
    ref = per_path_explore(c, [reset_state(c)], cfg, Kind.REACH)
    om = oracle_analyze(c, cfg.state_spec, 3)
    rbs = {(b.src, b.dst, b.output, b.value) for b in ref.rbs}
    assert (got[0], got[1], got[2]) == (ref.rs, rbs, ref.paths_explored)
    assert got[0] == om.rs
    assert got[1] == {(b.src, b.dst, b.output, b.value) for b in om.rbs}


def test_signal_names_never_reach_the_kernel(monkeypatch, caplog):
    """Signals named like the kernel's generated names, or like a builtin,
    evaluate as any other."""
    c = parse_rtl("circuit names\n"
                  "input a0:1\n"
                  "input __import__:2\n"
                  "net t1:2 = __import__ ^ {a0, a0}\n"
                  "net t0:2 = t1 + a1\n"
                  "output kernel:2 = t0 - t1\n"
                  "reg a1:2 reset 0 next t0\n")
    cfg = config_for(c, ["a1"], depth=FIXPOINT, mode=Mode.BFS)
    got, (kernel_steps, _, _) = _run(c, cfg, caplog)
    with monkeypatch.context() as m:
        _kernel_off(m)
        ref, _ = _run(c, cfg, caplog)
    assert got == ref
    assert kernel_steps > 0
    om = oracle_analyze(c, cfg.state_spec, got[4] + 1)
    assert got[0] == om.rs
    assert got[1] == {(b.src, b.dst, b.output, b.value) for b in om.rbs}


def test_counter_stage1_asks_no_solver_query(monkeypatch, caplog):
    """Stage 1 of cnt6.blif at fixpoint: every step from reset is a kernel
    step, and nothing reaches the solver."""
    c = parse_blif(counter_blif(6))
    cfg = config_for(c, [f"q{i}" for i in reversed(range(6))],
                     depth=FIXPOINT, value_cap=128)
    calls = []
    real = solve._solutions

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(solve, "_solutions", counting)
    caplog.set_level(logging.DEBUG, logger="dctforge.engine")
    meta = explore(c, [reset_state(c)], cfg)
    assert meta.rs == set(range(62))
    assert calls == []
    events = [json.loads(r.getMessage()) for r in caplog.records
              if r.name == "dctforge.engine" and r.levelno == logging.DEBUG]
    built = [e for e in events if e["event"] == "kernel_built"]
    (done,) = [e for e in events if e["event"] == "explore_done"]
    assert len(built) == 1
    assert 0 < built[0]["nodes"] < len(engine._build_plan(c, cfg).order)
    assert done["kernel_steps"] == meta.paths_explored == 62


def test_detect_trojan_builds_the_kernel_once(ima_gate, caplog):
    """detect_trojan on ima_gate runs stage 1 and its stage-3
    exploration with one config: one kernel is built, stage 1 takes six
    steps on it and stage 3 replays its five from the step memo, a second
    analysis with that config builds none, and a replaced config builds
    its own."""
    cfg = config_for(ima_gate, ["q2", "q1", "q0"])

    def events():
        return [json.loads(r.getMessage()) for r in caplog.records
                if r.name == "dctforge.engine"
                and r.levelno == logging.DEBUG]

    with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
        tr = detect_trojan(ima_gate, cfg)
        assert tr.dct.dct == {(6, 0), (7, 0)}
        evs = events()
        (built,) = [e for e in evs if e["event"] == "kernel_built"]
        assert built["nodes"] > 0
        done = [(e["kernel_steps"], e["table_steps"], e["memo_steps"])
                for e in evs if e["event"] == "explore_done"]
        # Stage 1 and stage 3; stage 2 is no exploration.
        assert done == [(6, 0, 0), (0, 0, 5)]
        caplog.clear()
        detect_trojan(ima_gate, cfg)
        assert not any(e["event"] == "kernel_built" for e in events())
        detect_trojan(ima_gate, dc_replace(cfg))
        assert sum(e["event"] == "kernel_built" for e in events()) == 1


@pytest.mark.parametrize("name", ["ima_gate.blif", "cnt5.blif"])
def test_kernel_runs_only_in_explore(name, monkeypatch, caplog):
    """step_cycle, symbolic_step and the per-path reference stay symbolic
    under a config whose plan carries a kernel, and an explore after a
    step_cycle with that config still runs the kernel."""
    if name == "ima_gate.blif":
        c, regs = corpus.load(name), ["q2", "q1", "q0"]
    else:
        c = parse_blif(counter_blif(5))
        regs = [f"q{i}" for i in reversed(range(5))]
    cfg = config_for(c, regs, depth=3)

    def refuse(*args):
        raise AssertionError("kernel step outside explore")

    with monkeypatch.context() as m:
        m.setattr(engine, "_kernel_step", refuse)
        assert step_cycle(c, reset_state(c), cfg)
        assert symbolic_step(c, cfg)[1]
        per_path_explore(c, [reset_state(c)], cfg, Kind.REACH)
        per_path_explore(c, [symbolic_state(c, cfg.state_spec)],
                         dc_replace(cfg, depth=1, mode=Mode.BFS), Kind.STATES)
    with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
        explore(c, [reset_state(c)], cfg)
    (done,) = [json.loads(r.getMessage()) for r in caplog.records
               if '"explore_done"' in r.getMessage()]
    assert done["kernel_steps"] > 0
