"""Exploration engine: stepping semantics, scheduling modes, metadata."""

from __future__ import annotations

import logging
import random
import sys
from dataclasses import replace as dc_replace

import pytest

from dctforge import corpus, detect, engine, solve
from dctforge import expr as ex
from dctforge.blif import parse_blif
from dctforge.circuit import Circuit, Register, make_state_spec
from dctforge.detect import compute_dct, oracle_analyze, oracle_dct
from dctforge.engine import (FIXPOINT, ExploreConfig, Mode, explore, project,
                             reset_state, step_cycle, symbolic_state,
                             symbolic_step)
from dctforge.errors import CapExceeded, DuplicateName, PathExplosion
from dctforge.rtl import parse_rtl
from dctforge.solve import SolverLimits, pc_sat
from dctforge.trojanlab import gen_random_fsm

from bruteforce import (full_postorder, full_replace_simplify,
                        per_net_cycle_exprs)
from conftest import config_for, counter_blif, injected_counter


def behavior_tuples(meta):
    return {(b.src, b.dst, b.output, b.value) for b in meta.rbs}


def test_reset_state_ima(ima):
    s = reset_state(ima)
    assert s.regs["pcmSq"] is ex.const(3, 0)
    assert s.pc == ()


def test_reset_state_no_registers():
    c = parse_rtl("circuit id\ninput a:1\noutput y:1 = a\n")
    assert reset_state(c).regs == {}


def test_reset_state_trojan_registers(ima_trojan):
    s = reset_state(ima_trojan)
    assert s.regs["trojan_state"] is ex.const(2, 0)
    assert s.regs["trojan_ena"] is ex.const(1, 0)


def test_symbolic_state_covers_domain(ima, ima_cfg):
    s = symbolic_state(ima, ima_cfg.state_spec)
    assert project(s, ima_cfg.state_spec, ima_cfg) == set(range(8))


def test_symbolic_state_one_bit_register():
    c = parse_rtl("circuit t\nreg r:1 reset 0 next ~r\noutput y:1 = r\n")
    cfg = config_for(c, ["r"], depth=1)
    s = symbolic_state(c, cfg.state_spec)
    assert project(s, cfg.state_spec, cfg) == {0, 1}


def test_step_from_reset_splits_on_input(ima, ima_cfg):
    succs = step_cycle(ima, reset_state(ima), ima_cfg)
    projections = sorted(sorted(project(s, ima_cfg.state_spec, ima_cfg))
                         for s in succs)
    assert projections == [[0], [1]]


def test_step_symbolic_reaches_dct_edges(ima, ima_cfg):
    meta, _ = symbolic_step(ima, ima_cfg)
    assert {(6, 0), (7, 0)} <= meta.trans


def test_step_self_loop_single_successor():
    c = parse_rtl("circuit s\nreg r:2 reset 3 next r\noutput y:2 = r\n")
    cfg = config_for(c, ["r"], depth=1)
    succs = step_cycle(c, reset_state(c), cfg)
    assert len(succs) == 1
    assert project(succs[0], cfg.state_spec, cfg) == {3}


def test_project_examples(ima, ima_cfg):
    spec = ima_cfg.state_spec
    assert project(reset_state(ima), spec, ima_cfg) == {0}
    meta, _ = symbolic_step(ima, ima_cfg)
    pcm = ex.var("pcmSq", 3, -1)
    default_arm = ex.or_(ex.eq(pcm, ex.const(3, 6)), ex.eq(pcm, ex.const(3, 7)))
    default_succs = [s for s in meta.sym_states
                     if pc_sat(s.pc + (default_arm,))]
    assert default_succs
    assert project(default_succs[0], spec, ima_cfg) == {0}


def test_explore_ima_reach(ima, ima_cfg):
    meta = explore(ima, [reset_state(ima)], ima_cfg)
    assert meta.rs == {0, 1, 2, 3, 4, 5}
    assert behavior_tuples(meta) == {
        (0, 0, "outValid", 0), (0, 1, "outValid", 0), (1, 2, "outValid", 0),
        (2, 3, "outValid", 0), (3, 4, "outValid", 0), (4, 5, "outValid", 0),
        (5, 0, "outValid", 1)}


def test_explore_depth_zero_returns_init_projections(ima, ima_cfg):
    meta = explore(ima, [reset_state(ima)], dc_replace(ima_cfg, depth=0))
    assert meta.rs == {0}
    assert meta.paths_explored == 0


def test_states_mode_returns_frontier(ima, ima_cfg):
    meta, by_state = symbolic_step(ima, ima_cfg)
    assert len(meta.sym_states) == 8  # 6 used arms (one splits in two) + default
    assert len(meta.trans) == 9
    grouped = [s for group in by_state.values() for s in group]
    assert sorted(map(id, grouped)) == sorted(map(id, meta.sym_states))


def test_monotonicity_of_bounded_reachability(ima, ima_cfg, counter,
                                              counter_cfg):
    for circuit, cfg in ((ima, ima_cfg), (counter, counter_cfg)):
        prev: set[int] = set()
        for depth in range(0, 9):
            meta = explore(circuit, [reset_state(circuit)],
                           dc_replace(cfg, depth=depth))
            assert prev <= meta.rs
            prev = meta.rs


def test_prune_equivalent_to_bfs_and_cheaper(ima, ima_cfg):
    bfs = explore(ima, [reset_state(ima)],
                  dc_replace(ima_cfg, mode=Mode.BFS))
    prune = explore(ima, [reset_state(ima)],
                    dc_replace(ima_cfg, mode=Mode.BFS_PRUNE))
    assert bfs.rs == prune.rs
    assert behavior_tuples(bfs) == behavior_tuples(prune)
    assert prune.paths_explored < bfs.paths_explored


def test_partial_rs_subset_of_bfs(ima, ima_cfg):
    partial = explore(ima, [reset_state(ima)],
                      dc_replace(ima_cfg, mode=Mode.PARTIAL))
    bfs = explore(ima, [reset_state(ima)],
                  dc_replace(ima_cfg, mode=Mode.BFS))
    assert partial.rs <= bfs.rs
    assert partial.rs == {0}  # the else-first single path never leaves idle


def test_fixpoint_reports_diameter(ima, ima_cfg):
    meta = explore(ima, [reset_state(ima)], dc_replace(ima_cfg, depth=FIXPOINT))
    assert meta.rs == {0, 1, 2, 3, 4, 5}
    assert meta.discovered_diameter == 5
    # The closing layer still recorded state 5's outgoing behavior.
    assert (5, 0, "outValid", 1) in behavior_tuples(meta)


def test_depth_not_converged_flag(ima, ima_cfg):
    shallow = explore(ima, [reset_state(ima)], dc_replace(ima_cfg, depth=3))
    assert not shallow.depth_converged
    deep = explore(ima, [reset_state(ima)], dc_replace(ima_cfg, depth=7))
    assert deep.depth_converged


ONE_CYCLE = ("circuit c\ninput a:1\noutput y:1 = r\n"
             "reg r:1 reset 0 next a\n")


def test_depth_zero_is_not_converged(caplog):
    """Depth 0 steps no layer, so the initial projections are its final
    layer's new states: not converged, with the usual warning.  State 1
    is indeed reachable in one cycle."""
    c = parse_rtl(ONE_CYCLE)
    cfg = config_for(c, ["r"], depth=0)
    with caplog.at_level(logging.WARNING, logger="dctforge.engine"):
        meta = explore(c, [reset_state(c)], cfg)
    assert meta.rs == {0}
    assert not meta.depth_converged
    assert "new states appeared at the final layer 0; increase depth" \
        in caplog.text
    assert not compute_dct(c, cfg).stage1.depth_converged
    one = explore(c, [reset_state(c)], dc_replace(cfg, depth=1))
    assert one.rs == {0, 1}


def test_prune_warning_when_nonspec_feeds_spec(caplog):
    src = """\
circuit gated
input go:1
reg mode:1 reset 0 next go
reg st:2 reset 0 next mode ? st + 2'd1 : st
output y:2 = st
"""
    c = parse_rtl(src)
    cfg = config_for(c, ["st"], depth=4)
    with caplog.at_level("WARNING", logger="dctforge.engine"):
        explore(c, [reset_state(c)], cfg)
    assert any("outside the state spec" in r.message for r in caplog.records)


def test_prune_warning_when_nonspec_feeds_output(caplog):
    """tick feeds only the monitored output y, never s's next state, yet
    pruning by s alone drops behaviors of y: bfs matches the oracle's six
    stage-1 tuples, and bfs-prune warns and names the output."""
    src = """\
circuit tickout
input go:1
reg s:2 reset 0 next case(s){ 2'd0: go ? 2'd1 : 2'd0; 2'd1: 2'd0; \
default: 2'd0 }
reg tick:2 reset 0 next tick + 2'd1
output y:1 = tick == 2'd3
"""
    c = parse_rtl(src)
    bfs = detect.detect_trojan(c, config_for(c, ["s"], depth=6,
                                             mode=Mode.BFS))
    om = oracle_analyze(c, make_state_spec(c, ["s"]), 6)
    assert behavior_tuples(bfs.dct.stage1) == {
        (b.src, b.dst, b.output, b.value) for b in om.rbs}
    assert len(bfs.rbs) == 6
    with caplog.at_level("WARNING", logger="dctforge.engine"):
        explore(c, [reset_state(c)], config_for(c, ["s"], depth=6))
    warned = [r.getMessage() for r in caplog.records
              if "outside the state spec" in r.getMessage()]
    assert warned == ["register 'tick' outside the state spec feeds output "
                      "'y'; pruning by StateId may under-approximate"]


def test_prune_warning_names_every_cone(caplog):
    """A register feeding the spec logic and an output is named once,
    with both; a spec register is never named; bfs does not warn."""
    src = """\
circuit both
input go:1
reg mode:1 reset 0 next go
reg st:2 reset 0 next mode ? st + 2'd1 : st
output y:1 = mode
output z:2 = st
"""
    c = parse_rtl(src)
    with caplog.at_level("WARNING", logger="dctforge.engine"):
        explore(c, [reset_state(c)], config_for(c, ["st"], depth=1))
        explore(c, [reset_state(c)],
                config_for(c, ["st"], depth=1, mode=Mode.BFS))
    warned = [r.getMessage() for r in caplog.records
              if "outside the state spec" in r.getMessage()]
    assert warned == ["register 'mode' outside the state spec feeds "
                      "state-spec logic, output 'y'; pruning by StateId may "
                      "under-approximate"]


def test_prune_warning_after_symbolic_step(ima_trojan, caplog):
    """A symbolic step that warns first, here that the assumptions cut
    every successor, does not stop a later explore with the same config
    from naming trojan_ena, and the cut is not said twice."""
    cfg = config_for(ima_trojan, ["pcmSq"], depth=3,
                     assumes=(ex.const(1, 0),))
    with caplog.at_level("WARNING", logger="dctforge.engine"):
        symbolic_step(ima_trojan, cfg)
        explore(ima_trojan, [reset_state(ima_trojan)], cfg)
    assert [r.getMessage() for r in caplog.records] == [
        "the assumptions cut every successor of the initial states: 1'd0",
        "register 'trojan_ena' outside the state spec feeds output "
        "'outValid'; pruning by StateId may under-approximate"]


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("depth", [0, 3, FIXPOINT])
def test_explore_projects_only_initial_states(ima, ima_gate, mode, depth,
                                              monkeypatch):
    """Each successor comes with the StateId its step pinned, so explore
    calls project once per initial state and never on a successor, from
    reset, a doubled reset or the symbolic state."""
    projected = []

    def counted(s, spec, cfg):
        projected.append(s)
        return project(s, spec, cfg)

    monkeypatch.setattr(engine, "project", counted)
    for c, regs in ((ima, ["pcmSq"]), (ima_gate, ["q2", "q1", "q0"])):
        cfg = config_for(c, regs, depth=depth, mode=mode)
        for init, run_cfg in (
                ([reset_state(c)], cfg),
                ([reset_state(c), reset_state(c)], cfg),
                ([symbolic_state(c, cfg.state_spec)],
                 dc_replace(cfg, depth=1))):
            projected.clear()
            meta = explore(c, init, run_cfg)
            assert projected == init
            assert (meta.paths_explored > 0) == (run_cfg.depth != 0)


def test_path_explosion_cap(ima, ima_cfg):
    tiny = dc_replace(ima_cfg, path_cap=1)
    with pytest.raises(PathExplosion):
        symbolic_step(ima, tiny)


def test_assumes_restrict_next_state():
    src = """\
circuit a
input d:2
reg r:2 reset 0 next d
output y:2 = r
"""
    c = parse_rtl(src)
    cfg = config_for(c, ["r"], depth=1,
                     assumes=(ex.ult(ex.ref("r", 2), ex.const(2, 2)),))
    meta = explore(c, [reset_state(c)], cfg)
    assert meta.rs == {0, 1}


def _random_fsms(count=12, seed=5151):
    rng = random.Random(seed)
    for _ in range(count):
        yield gen_random_fsm(rng.randrange(1 << 30),
                             state_bits=rng.randrange(2, 5),
                             input_bits=rng.randrange(1, 4),
                             reachable_fraction=rng.choice([0.4, 0.6, 0.8]),
                             dct_count=rng.randrange(0, 2))


@pytest.mark.parametrize("assumed", [False, True])
def test_successors_keep_pc_invariant(assumed):
    """Every successor's pc is satisfiable, for three cycles from reset
    and from the fully symbolic state."""
    for c in _random_fsms():
        w = c.register_map()["st"].width
        assumes = (ex.ne(ex.ref("st", w), ex.const(w, 1)),) if assumed else ()
        cfg = config_for(c, ["st"], depth=1, assumes=assumes)
        frontier = [reset_state(c), symbolic_state(c, cfg.state_spec)]
        for _ in range(3):
            succs = [t for s in frontier for t in step_cycle(c, s, cfg)]
            for t in succs:
                assert pc_sat(t.pc)
                if assumed:
                    assert 1 not in project(t, cfg.state_spec, cfg)
            frontier = succs[:8]


def test_always_false_assume_gives_no_successors():
    for c in _random_fsms():
        st = ex.ref("st", c.register_map()["st"].width)
        never = ex.and_(ex.ult(st, ex.const(st.width, 1)),
                        ex.ne(st, ex.const(st.width, 0)))
        cfg = config_for(c, ["st"], depth=1, assumes=(never,))
        for s in (reset_state(c), symbolic_state(c, cfg.state_spec)):
            assert step_cycle(c, s, cfg) == []


def test_engine_matches_oracle_on_random_fsms():
    rng = random.Random(4242)
    for _ in range(15):
        seed = rng.randrange(1 << 30)
        c = gen_random_fsm(seed, state_bits=rng.randrange(2, 5),
                           input_bits=rng.randrange(1, 4),
                           reachable_fraction=rng.choice([0.4, 0.6, 0.8]),
                           dct_count=rng.randrange(0, 2))
        spec = make_state_spec(c, ["st"])
        depth = 1 << spec.total_width
        cfg = config_for(c, ["st"], depth=depth)
        meta = explore(c, [reset_state(c)], cfg)
        om = oracle_analyze(c, spec, depth)
        assert meta.rs == om.rs, seed
        assert behavior_tuples(meta) == {(b.src, b.dst, b.output, b.value)
                                         for b in om.rbs}, seed
        s2, _ = symbolic_step(c, cfg)
        assert s2.trans == om.trans, seed


def test_gate_level_enumeration_stepping(ima_gate):
    cfg = config_for(ima_gate, ["q2", "q1", "q0"], depth=1)
    succs = step_cycle(ima_gate, reset_state(ima_gate), cfg)
    projections = sorted(sorted(project(s, cfg.state_spec, cfg))
                         for s in succs)
    assert projections == [[0], [1]]


def test_unsatisfiable_assume_warns(ima, caplog):
    """Assumptions that cut every successor of the initial states leave
    the result as it was, and say so on the engine's logger."""
    never = config_for(ima, ["pcmSq"], depth=3, assumes=(ex.const(1, 0),))
    with caplog.at_level("WARNING", logger="dctforge.engine"):
        meta = explore(ima, [reset_state(ima)], never)
    assert meta.rs == {0}
    assert meta.trans == set() and meta.rbs == set()
    warned = [r.getMessage() for r in caplog.records
              if "cut every successor" in r.getMessage()]
    assert warned == ["the assumptions cut every successor of the initial "
                      "states: 1'd0"]
    caplog.clear()
    st = ex.ref("pcmSq", 3)
    some = config_for(ima, ["pcmSq"], depth=3,
                      assumes=(ex.ult(st, ex.const(3, 3)),))
    with caplog.at_level("WARNING", logger="dctforge.engine"):
        explore(ima, [reset_state(ima)], some)
    assert not any("cut every successor" in r.getMessage()
                   for r in caplog.records)


# A 3-bit enable counter, bit-blasted with two levels of carry nets.
_BLIF_COUNTER = """\
.model cnt3_gate
.inputs en
.outputs wrap
.latch d2 q2 0
.latch d1 q1 0
.latch d0 q0 0
.names en q0 d0
10 1
01 1
.names en q0 c1
11 1
.names c1 q1 d1
10 1
01 1
.names c1 q1 c2
11 1
.names c2 q2 d2
10 1
01 1
.names q2 q1 q0 wrap
111 1
.end
"""


def _step_cases():
    """(circuit, state registers, assumption) triples; the gate-level
    assumptions read nets, so they need the post-edge nets."""
    rng = random.Random(2468)
    cases = []
    for _ in range(12):
        bits = rng.randrange(2, 5)
        c = gen_random_fsm(rng.randrange(1 << 30), state_bits=bits,
                           input_bits=rng.randrange(1, 4),
                           reachable_fraction=rng.choice([0.4, 0.6, 0.8]),
                           dct_count=rng.randrange(0, 2))
        cases.append((c, ["st"], ex.ne(ex.ref("st", bits),
                                       ex.const(bits, rng.randrange(1, 1 << bits)))))
    bit = lambda name: ex.ref(name, 1)  # noqa: E731
    cases.append((corpus.load("ima_gate.blif"), ["q2", "q1", "q0"],
                  ex.not_(ex.and_(bit("n2"), bit("n1")))))
    # q0 stays outside the spec, so successors keep a symbolic register.
    cases.append((parse_blif(_BLIF_COUNTER), ["q2", "q1"],
                  ex.not_(ex.and_(bit("d2"), bit("c1")))))
    return cases


def _assert_same_nodes(got, want):
    assert (got is None) == (want is None)
    if want is None:
        return
    for g, w in zip(got[:2], want[:2]):
        assert g.keys() == w.keys()
        assert all(g[k] is w[k] for k in w)
    assert len(got[2]) == len(want[2])
    assert all(a is b for a, b in zip(got[2], want[2]))


@pytest.mark.parametrize("assume", [False, True])
def test_fused_step_matches_per_net_reference(assume, monkeypatch):
    """The fused walk over the plan yields the very next-state, output and
    path-constraint nodes of one substitute-and-simplify per net, and so
    the very same successors."""
    for c, state, assumption in _step_cases():
        cfg = config_for(c, state, depth=1,
                         assumes=(assumption,) if assume else ())
        plan = engine._build_plan(c, cfg)
        sym = symbolic_state(c, cfg.state_spec)
        states = [reset_state(c), sym] + step_cycle(c, sym, cfg)[:3]
        for s in states:
            want = per_net_cycle_exprs(c, s, cfg)
            _assert_same_nodes(engine._cycle_exprs(c, s, cfg, plan), want)
            with monkeypatch.context() as m:
                m.setattr(engine, "_cycle_exprs",
                          lambda c, s, cfg, plan: per_net_cycle_exprs(c, s, cfg))
                ref_results = engine._step(c, s, cfg, plan)
            results = engine._step(c, s, cfg, plan)
            assert len(results) == len(ref_results)
            for r, w in zip(results, ref_results):
                assert r.src_expr is w.src_expr
                _assert_same_nodes(
                    (r.state.regs, r.out_exprs, r.state.pc),
                    (w.state.regs, w.out_exprs, w.state.pc))


@pytest.mark.parametrize("assume", [False, True])
def test_net_order_built_once_per_explore(ima_gate, assume, monkeypatch):
    """compute_dct orders the nets once per stage (an explore and a
    symbolic_step call), not once per step, and evaluates cycles without
    substitute or output_exprs."""
    calls = {"net_topo_order": 0, "explore": 0, "symbolic_step": 0,
             "substitute": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "net_topo_order",
                        counted("net_topo_order", engine.net_topo_order))
    monkeypatch.setattr(detect, "explore", counted("explore", detect.explore))
    monkeypatch.setattr(detect, "symbolic_step",
                        counted("symbolic_step", detect.symbolic_step))
    monkeypatch.setattr(ex, "substitute", counted("substitute", ex.substitute))
    assumes = ((ex.not_(ex.and_(ex.ref("q2", 1), ex.ref("n0", 1))),)
               if assume else ())
    cfg = config_for(ima_gate, ["q2", "q1", "q0"], depth=7, assumes=assumes)
    report = compute_dct(ima_gate, cfg)
    assert calls["explore"] == calls["symbolic_step"] == 1
    assert report.paths_explored > 2
    assert calls["net_topo_order"] <= 2
    assert calls["substitute"] == 0


def _stage2(c, state_regs, **kw):
    """Stage 2 as compute_dct runs it: one BFS step from the fully
    symbolic state."""
    return symbolic_step(c, config_for(c, state_regs, **kw))[0]


@pytest.mark.parametrize("name", ["cnt4.blif", "cnt5.blif", "ima_gate.blif"])
def test_stage2_trans_matches_oracle_at_gate_level(name):
    if name == "ima_gate.blif":
        c, state_regs = corpus.load(name), ["q2", "q1", "q0"]
    else:
        w = int(name[3])
        c = parse_blif(counter_blif(w))
        state_regs = [f"q{i}" for i in reversed(range(w))]
    spec = make_state_spec(c, state_regs)
    assert _stage2(c, state_regs).trans == \
        oracle_analyze(c, spec, depth=1).trans


def test_stage2_enumerates_transitions_from_one_query(monkeypatch):
    """On cnt5.blif, stage 2's one symbolic step on the solver path
    (TABLE_BITS = -1, so no table step) finds Trans with one pair query:
    a solve per transition plus the final unsat one, and no source query
    per destination."""
    monkeypatch.setattr(solve, "TABLE_BITS", -1)
    labels = []

    class Labels:
        def dump(self, formula, label):
            labels.append(label)

    c = parse_blif(counter_blif(5))
    meta = _stage2(c, [f"q{i}" for i in reversed(range(5))],
                   limits=SolverLimits(dumper=Labels()))
    assert len(meta.trans) == 64
    assert labels == ["transitions"] * (len(meta.trans) + 1)


@pytest.mark.parametrize("text", [
    # 8 sources reach each of 2 destinations.
    "circuit t\noutput y:4 = r\nreg r:4 reset 0 next r & 4'd1\n",
    # 16 destinations.
    "circuit t\ninput i:4\noutput y:4 = r\nreg r:4 reset 0 next i\n",
])
def test_cap_exceeded_on_source_and_destination_overflow(text):
    c = parse_rtl(text)
    cfg = config_for(c, ["r"], value_cap=4)
    with pytest.raises(CapExceeded) as caught:
        compute_dct(c, cfg)
    assert caught.value.cap == 4


def test_stage2_symbolic_state_is_not_held_to_the_value_cap():
    """Stage 2 never projects the fully symbolic state, so a spec with
    more StateIds than value_cap raises nothing while no enumeration
    passes the cap: r:4 under value_cap 8 has 4 destinations, each
    reached from 4 sources, and the report equals the oracle's."""
    c = parse_rtl("circuit t\noutput y:4 = r\n"
                  "reg r:4 reset 0 next {r[3:2], 2'd0}\n")
    rep = compute_dct(c, config_for(c, ["r"], value_cap=8))
    om = oracle_analyze(c, make_state_spec(c, ["r"]), 7)
    assert rep.rs == om.rs == {0}
    assert rep.trans == om.trans and len(rep.trans) == 16
    assert rep.dct == oracle_dct(om) == {(1, 0), (2, 0), (3, 0)}


def test_source_overflow_raises_from_the_step():
    """A destination reached from more than value_cap sources raises
    CapExceeded from the step that enumerates its transitions."""
    c = parse_rtl("circuit t\noutput y:4 = r\n"
                  "reg r:4 reset 0 next r & 4'd1\n")
    cfg = config_for(c, ["r"], value_cap=4)
    with pytest.raises(CapExceeded):
        step_cycle(c, symbolic_state(c, cfg.state_spec), cfg)
    assert len(step_cycle(c, symbolic_state(c, cfg.state_spec),
                          dc_replace(cfg, value_cap=8))) == 2


def test_repeated_monitored_output_is_rejected(ima):
    """A monitored output named twice is an error, as a state register
    named twice is, before any query is asked."""
    class NoQueries:
        def dump(self, formula, label):
            raise AssertionError(f"{label} query asked")

    cfg = config_for(ima, ["pcmSq"], monitored=("outValid", "outValid"),
                     limits=SolverLimits(dumper=NoQueries()))
    for analysis in (compute_dct, detect.detect_trojan):
        with pytest.raises(DuplicateName) as caught:
            analysis(ima, cfg)
        assert caught.value.signal == "outValid"


def _split_walk_circuit(name):
    """(circuit, spec registers, start states) for the split walk tests:
    a corpus Trojan or an injected counter with its stage-3 starts, or a
    random FSM with its reset and fully symbolic states."""
    if name.startswith("fsm"):
        c = gen_random_fsm(int(name[3:]), state_bits=4, input_bits=3)
        spec = make_state_spec(c, ["st"])
        return c, ["st"], [reset_state(c), symbolic_state(c, spec)]
    if name.startswith("cnt"):
        c, regs = injected_counter(int(name[3:])), ["cnt"]
    else:
        c, regs = corpus.load(name), ["pcmSq"]
    cfg = config_for(c, regs, depth=FIXPOINT, value_cap=256)
    stages = detect._run_stages(c, cfg)
    report = detect._build_dct_report(c, cfg, *stages)
    assert report.dest
    return c, regs, [st for d in sorted(report.dest) for st in stages[2][d]]


def _assert_same_step(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dst == b.dst and a.src_vals == b.src_vals
        assert a.src_expr is b.src_expr
        assert a.state.var_epoch == b.state.var_epoch
        assert list(a.state.regs) == list(b.state.regs)
        assert all(a.state.regs[r] is b.state.regs[r] for r in a.state.regs)
        assert len(a.state.pc) == len(b.state.pc)
        assert all(p is q for p, q in zip(a.state.pc, b.state.pc))
        assert list(a.out_exprs) == list(b.out_exprs)
        assert all(a.out_exprs[o] is b.out_exprs[o] for o in a.out_exprs)


_SPLIT_WALK_CIRCUITS = (["ima_trojan.snl"]
                        + [f"ima_trojan_{n:02d}.snl" for n in range(1, 13)]
                        + ["cnt4", "cnt5", "cnt6"]
                        + [f"fsm{seed}" for seed in range(4)])


@pytest.mark.parametrize("name", _SPLIT_WALK_CIRCUITS)
def test_split_walk_steps_as_the_full_walk(name, monkeypatch):
    """_step with the eid-bounded split walk gives the very results (by
    identity) that it gives with the full-order reference walk patched
    in, under every mode, from the stage-3 starts of the corpus Trojans
    and the injected counters and from random FSMs' reset and symbolic
    states, and from their successors two steps on."""
    c, regs, starts = _split_walk_circuit(name)
    for mode in Mode:
        cfg = config_for(c, regs, depth=FIXPOINT, mode=mode, value_cap=256)
        plan = engine._build_plan(c, cfg)
        frontier = starts
        for _ in range(3):
            successors = []
            for s in frontier:
                with monkeypatch.context() as m:
                    m.setattr(ex, "postorder", full_postorder)
                    m.setattr(ex, "replace_simplify", full_replace_simplify)
                    want = engine._step(c, s, cfg, plan)
                got = engine._step(c, s, cfg, plan)
                _assert_same_step(got, want)
                successors += [r.state for r in got]
            frontier = successors[:24]


def test_split_walk_visits_only_nodes_no_older_than_the_split(monkeypatch):
    """On detect_trojan of cnt4.inject every split walk visits the split
    node and no node older than it, and all of them visit fewer nodes
    than the full walks would.  The walks are engine._resolve's, the
    split worklist of both the solver's and the table's steps."""
    postorder, replace_simplify = ex.postorder, ex.replace_simplify
    orders = []  # (order, its roots) of each split node's walk
    walks = []

    def from_step():
        return sys._getframe(2).f_code is engine._resolve.__code__

    def recording_postorder(roots, lo=0):
        order = postorder(roots, lo)
        if from_step():
            orders.append((order, list(roots)))
        return order

    def recording_replace(order, repl):
        if from_step():
            walks.append((order, repl))
        return replace_simplify(order, repl)

    monkeypatch.setattr(ex, "postorder", recording_postorder)
    monkeypatch.setattr(ex, "replace_simplify", recording_replace)
    c = injected_counter(4)
    tr = detect.detect_trojan(c, config_for(c, ["cnt"], depth=FIXPOINT,
                                            value_cap=256))
    monkeypatch.undo()
    assert tr.verdict is detect.Verdict.TROJAN_DETECTED
    assert walks
    visited = full = 0
    for order, repl in walks:
        (node,) = repl
        assert node in order
        assert all(n.eid >= node.eid for n in order)
        visited += len(order)
        (roots,) = [r for o, r in orders if o is order]
        full += len(full_postorder(roots))
    assert visited < full
