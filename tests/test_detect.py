"""DCT computation, three-stage Trojan detection, oracle cross-checks."""

from __future__ import annotations

import random
from dataclasses import replace as dc_replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctforge import corpus, detect, engine, solve
from dctforge.circuit import Circuit, Register, make_state_spec
from dctforge.detect import (Verdict, compute_dct, detect_trojan,
                             diff_behaviors, oracle_analyze, oracle_dct,
                             replay_dct_witness)
from dctforge.engine import Behavior, Mode, explore, reset_state
from dctforge.errors import DuplicateName, TooLargeForOracle, UnknownOutput
from dctforge.rtl import parse_rtl
from dctforge.solve import SolverLimits
from dctforge.trojanlab import gen_random_fsm
from dctforge import expr as ex

from bruteforce import (BitPlanes, ExprGen, naive_eval, pinned_witness,
                        support_leaves)
from conftest import config_for


def test_compute_dct_ima(ima, ima_cfg):
    rep = compute_dct(ima, ima_cfg)
    assert rep.rs == {0, 1, 2, 3, 4, 5}
    assert rep.dct == {(6, 0), (7, 0)}
    assert rep.dest == {0}
    assert set(rep.witnesses) == {(6, 0), (7, 0)}
    assert set(rep.constraint_dumps) == {(6, 0), (7, 0)}
    assert "$pcmSq.init" in rep.constraint_dumps[(6, 0)]


def test_compute_dct_counter_empty(counter, counter_cfg):
    rep = compute_dct(counter, counter_cfg)
    assert len(rep.rs) == 8
    assert rep.dct == set()


def test_dct_requires_reachable_destination():
    # The default arm sends unused states to another unreachable state, so
    # no unreachable-to-reachable edge exists.
    src = """\
circuit sink
input go:1
reg st:2 reset 0 next case(st){ 2'd0: go ? 2'd1 : 2'd0; 2'd1: 2'd0; default: 2'd2 }
output y:1 = st == 2'd1
"""
    c = parse_rtl(src)
    cfg = config_for(c, ["st"], depth=4)
    rep = compute_dct(c, cfg)
    assert rep.rs == {0, 1}
    assert (2, 2) in rep.trans and (3, 2) in rep.trans
    assert rep.dct == set()
    om = oracle_analyze(c, make_state_spec(c, ["st"]), 4)
    assert oracle_dct(om) == set()


def test_witnesses_replay_concretely(ima, ima_cfg):
    rep = compute_dct(ima, ima_cfg)
    for edge, w in rep.witnesses.items():
        assert replay_dct_witness(ima, ima_cfg.state_spec, edge, w)


def test_witness_minimal_and_deterministic(ima, ima_cfg):
    first = compute_dct(ima, ima_cfg)
    second = compute_dct(ima, ima_cfg)
    assert first.witnesses == second.witnesses
    w = first.witnesses[(6, 0)]
    assert w.source == 6
    assert w.inputs == {"inValid": 0, "inSamp": 0}
    assert w.registers == {"pcmSq": 6}


def test_witness_query_leaves_unread_inputs_out(ima, ima_cfg, monkeypatch):
    """No conjunct of a stage-2 path constraint reads ima's inSamp:16, so
    the witness query leaves it out (it is 0) and stays small enough for
    a truth table: no CDCL solver is built."""
    builds = []
    loaded = solve._loaded

    def counting(*args):
        builds.append(args)
        return loaded(*args)

    monkeypatch.setattr(solve, "_loaded", counting)
    rep = compute_dct(ima, dc_replace(ima_cfg, limits=SolverLimits()))
    assert set(rep.witnesses) == {(6, 0), (7, 0)}
    assert all(w.inputs["inSamp"] == 0 for w in rep.witnesses.values())
    assert builds == []


def test_detect_trojan_on_injected_ima(ima_trojan):
    cfg = config_for(ima_trojan, ["pcmSq"])
    tr = detect_trojan(ima_trojan, cfg)
    assert tr.verdict is Verdict.TROJAN_DETECTED
    assert tr.dct.dct == {(6, 0), (7, 0)}
    deviant = {(b.src, b.dst, b.value) for b in tr.dbs}
    assert deviant == {(0, 0, 1), (0, 1, 1), (1, 2, 1),
                       (2, 3, 1), (3, 4, 1), (4, 5, 1)}
    # The 5 -> 0 hop outputs 1 honestly, so it reveals nothing.
    assert not any((b.src, b.dst) == (5, 0) for b in tr.dbs)
    assert set(tr.per_dest) == {0}


def test_prune_warning_once_per_analysis(ima_trojan, caplog, monkeypatch):
    """detect_trojan explores ima_trojan under bfs-prune in stage 1 and
    three times in stage 3, all with one config, and names trojan_ena
    once.  A standalone explore, or an analysis with a replaced config,
    warns again."""
    reach = []

    def counting(circuit, init, config, **kw):
        reach.append(circuit)
        return engine.explore(circuit, init, config, **kw)

    def warned():
        return [r.getMessage() for r in caplog.records
                if "outside the state spec" in r.getMessage()]

    once = ["register 'trojan_ena' outside the state spec feeds output "
            "'outValid'; pruning by StateId may under-approximate"]
    cfg = config_for(ima_trojan, ["pcmSq"], depth=7)
    with caplog.at_level("WARNING", logger="dctforge.engine"):
        with monkeypatch.context() as m:
            m.setattr(detect, "explore", counting)
            tr = detect_trojan(ima_trojan, cfg)
        assert tr.verdict is Verdict.TROJAN_DETECTED
        assert len(reach) == 4
        assert warned() == once
        detect_trojan(ima_trojan, cfg)
        assert warned() == once
        explore(ima_trojan, [reset_state(ima_trojan)],
                config_for(ima_trojan, ["pcmSq"], depth=7))
        assert warned() == once * 2
        detect_trojan(ima_trojan, dc_replace(cfg, depth=6))
        assert warned() == once * 3


@pytest.mark.parametrize("analyse", [compute_dct, detect_trojan])
def test_assumption_cut_warning_once_per_analysis(analyse, ima, caplog):
    """Stage 1 from reset and stage 2 from the symbolic state both find
    that the assumptions cut every successor; the analysis says so once."""
    cfg = config_for(ima, ["pcmSq"], assumes=(ex.const(1, 0),))
    with caplog.at_level("WARNING", logger="dctforge.engine"):
        analyse(ima, cfg)
    assert [r.getMessage() for r in caplog.records
            if "cut every successor" in r.getMessage()] == [
        "the assumptions cut every successor of the initial states: 1'd0"]


def test_one_plan_per_circuit_and_config(ima_trojan, ima_gate, monkeypatch):
    """An analysis builds one step plan for its circuit and config, which
    its four explorations and its symbolic step share; a second analysis
    with that config builds none, a replaced config builds its own, and
    one config used on two circuit objects builds one for each."""
    built = []
    real = engine._build_plan

    def counting(c, cfg):
        built.append(c)
        return real(c, cfg)

    def builds(analyse, c, cfg):
        built.clear()
        analyse(c, cfg)
        return len(built)

    monkeypatch.setattr(engine, "_build_plan", counting)
    cfg = config_for(ima_trojan, ["pcmSq"], depth=7)
    assert builds(detect_trojan, ima_trojan, cfg) == 1
    assert builds(detect_trojan, ima_trojan, cfg) == 0
    assert builds(detect_trojan, ima_trojan, dc_replace(cfg, depth=6)) == 1
    assert builds(compute_dct, ima_gate,
                  config_for(ima_gate, ["q2", "q1", "q0"])) == 1
    a, b = corpus.load("ima.snl"), corpus.load("ima.snl")
    cfg = config_for(a, ["pcmSq"])
    built.clear()
    compute_dct(a, cfg)
    compute_dct(b, cfg)
    assert built == [a, b]


def test_detect_trojan_clean_ima(ima, ima_cfg):
    tr = detect_trojan(ima, ima_cfg)
    assert tr.verdict is Verdict.CLEAN
    assert tr.dct.dct == {(6, 0), (7, 0)}
    assert tr.dbs == set()


def test_detect_trojan_counter_no_dct(counter, counter_cfg):
    tr = detect_trojan(counter, counter_cfg)
    assert tr.verdict is Verdict.NO_DCT
    assert tr.per_dest == {}


def test_diff_behaviors():
    x = {Behavior(0, 1, "y", 1), Behavior(1, 2, "y", 0)}
    assert diff_behaviors(x, x) == set()
    one = {Behavior(5, 0, "outValid", 1)}
    assert diff_behaviors(one, set()) == one
    assert diff_behaviors(set(), one) == set()


def test_diff_ignores_witnesses():
    a = Behavior(0, 1, "y", 1, witness=(("in", 0),))
    b = Behavior(0, 1, "y", 1, witness=(("in", 1),))
    assert diff_behaviors({a}, {b}) == set()


def test_oracle_toggle_register():
    c = parse_rtl("circuit t\nreg r:1 reset 0 next ~r\noutput y:1 = r\n")
    meta = oracle_analyze(c, make_state_spec(c, ["r"]), 4)
    assert meta.rs == {0, 1}
    assert meta.trans == {(0, 1), (1, 0)}


def test_oracle_ima_matches_engine(ima, ima_cfg):
    rep = compute_dct(ima, ima_cfg)
    om = oracle_analyze(ima, ima_cfg.state_spec, 7)
    assert om.rs == rep.rs
    assert om.trans == rep.trans
    assert oracle_dct(om) == rep.dct
    assert {(b.src, b.dst, b.output, b.value) for b in om.rbs} == \
        {(b.src, b.dst, b.output, b.value) for b in rep.stage1.rbs}


@pytest.mark.parametrize("monitored,error,name", [
    (("nosuch",), UnknownOutput, "nosuch"),
    (("outValid", "nosuch"), UnknownOutput, "nosuch"),
    (("outValid", "outValid"), DuplicateName, "outValid")])
def test_oracle_checks_monitored_outputs_as_the_engine_does(ima, monitored,
                                                         error, name):
    """The oracle rejects an unknown or repeated monitored output with
    the error the engine raises for it."""
    cfg = config_for(ima, ["pcmSq"], depth=2, monitored=monitored)
    for run in (lambda: oracle_analyze(ima, cfg.state_spec, 2, monitored),
                lambda: compute_dct(ima, cfg)):
        with pytest.raises(error) as caught:
            run()
        assert name in str(caught.value)


def test_oracle_size_cap():
    c = Circuit("wide", (), (),
                (Register("r", 24, 0, ex.const(24, 0)),), ())
    with pytest.raises(TooLargeForOracle):
        oracle_analyze(c, make_state_spec(c, ["r"]), 1)


def test_oracle_counts_only_live_input_bits(ima):
    """ima.snl plus a 1-bit dbg register is 4 register bits and 17 input
    bits, but nothing reads inSamp:16, which the oracle pins to 0: its
    4 + 1 live bits fit the cap, and the oracle gives the answer it gives
    without inSamp."""
    text = corpus.corpus_path("ima.snl").read_text()
    assert "input inSamp:16\n" in text
    dbg = "reg dbg:1 reset 0 next dbg\n"
    with_samp = parse_rtl(text + dbg)
    without = parse_rtl(text.replace("input inSamp:16\n", "") + dbg)
    spec = make_state_spec(with_samp, ["pcmSq"])
    got = oracle_analyze(with_samp, spec, 7)
    want = oracle_analyze(without, make_state_spec(without, ["pcmSq"]), 7)
    assert (got.rs, got.trans, got.discovered_diameter) == (
        want.rs, want.trans, want.discovered_diameter)
    assert {(b.src, b.dst, b.output, b.value) for b in got.rbs} == {
        (b.src, b.dst, b.output, b.value) for b in want.rbs}
    assert oracle_dct(got) == {(6, 0), (7, 0)}


def test_oracle_cap_counts_live_inputs():
    """More than 20 register and live input bits still raise: 4 register
    bits and the 17 input bits that outValid reads are 21."""
    c = parse_rtl("circuit wide_live\n"
                  "input a:16\n"
                  "input b:1\n"
                  "input dead:8\n"
                  "output y:1 = a == 16'd7\n"
                  "reg s:4 reset 0 next b ? s + 4'd1 : s\n")
    spec = make_state_spec(c, ["s"])
    with pytest.raises(TooLargeForOracle, match="21 "):
        oracle_analyze(c, spec, 1)
    oracle_analyze(c, spec, 1, monitored=())


def test_partial_mode_overapproximates_dct(ima):
    spec = make_state_spec(ima, ["pcmSq"])
    full = compute_dct(ima, config_for(ima, ["pcmSq"], mode=Mode.BFS))
    partial = compute_dct(ima, config_for(ima, ["pcmSq"], mode=Mode.PARTIAL))
    assert full.dct < partial.dct
    assert partial.dct == {(5, 0), (6, 0), (7, 0)}
    # Partial-mode extras still replay: they are real transitions whose
    # source was merely mislabeled as unreachable.
    for edge, w in partial.witnesses.items():
        assert replay_dct_witness(ima, spec, edge, w)


def test_clean_corpus_never_flags_trojan(counter, counter_cfg, ima, ima_cfg,
                                         ima_gate):
    assert detect_trojan(ima, ima_cfg).verdict is Verdict.CLEAN
    assert detect_trojan(counter, counter_cfg).verdict is Verdict.NO_DCT
    gate_cfg = config_for(ima_gate, ["q2", "q1", "q0"])
    assert detect_trojan(ima_gate, gate_cfg).verdict is Verdict.CLEAN


def test_random_fsm_dct_matches_oracle():
    rng = random.Random(777)
    for _ in range(10):
        seed = rng.randrange(1 << 30)
        c = gen_random_fsm(seed, state_bits=3, input_bits=2,
                           reachable_fraction=0.6,
                           dct_count=rng.randrange(0, 3))
        cfg = config_for(c, ["st"], depth=8)
        rep = compute_dct(c, cfg)
        om = oracle_analyze(c, cfg.state_spec, 8)
        assert rep.dct == oracle_dct(om), seed
        for edge, w in rep.witnesses.items():
            assert replay_dct_witness(c, cfg.state_spec, edge, w), seed


_WITNESS_CIRCUITS = [
    parse_rtl("circuit w\ninput a:2\ninput b:1\n"
              "reg s:2 reset 0 next a\nreg r:2 reset 0 next s\n"
              "reg q:1 reset 0 next b\noutput y:2 = r\n"),
    parse_rtl("circuit w\ninput a:3\nreg s:2 reset 0 next a[1:0]\n"
              "output y:2 = s\n"),
]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(_WITNESS_CIRCUITS),
       st.booleans())
def test_witness_equals_per_variable_pinning(seed, c, any_source):
    """One min_value over the inputs, then the non-spec registers, gives
    the witness the per-variable pinning loop gives, and the
    lexicographically smallest feasible tuple by the bit-plane oracle,
    on random satisfiable path constraints over those variables and the
    spec register.  With any_source the source is any StateId, and the
    witness is None exactly when the oracle finds the pinned path
    constraint unsatisfiable."""
    rng = random.Random(seed)
    cfg = config_for(c, ["s"], depth=1)
    spec = cfg.state_spec
    leaves = ([ex.var(name, w, 0) for name, w in c.inputs]
              + [ex.var(r.name, r.width, -1) for r in c.registers])
    gen = ExprGen(rng)
    gen.vars = leaves
    env = {(v.op,) + v.aux: rng.randrange(1 << v.width) for v in leaves}
    pc = tuple(gen.gen(rng.randrange(1, 4), 1)
               for _ in range(rng.randrange(0, 5)))
    pc = tuple(p if naive_eval(p, env) else ex.not_(p) for p in pc)
    source = env[("var", "s", -1)]
    if any_source:
        source = rng.randrange(1 << spec.total_width)
    state = engine.SymState({}, pc, 0)
    got = detect._extract_witness(c, spec, state, source, cfg)
    pinned = pc + (ex.eq(ex.var("s", 2, -1), ex.const(2, source)),)
    if not BitPlanes(support_leaves(*leaves)).truth_plane(pinned):
        assert got is None
        return
    inputs, free = pinned_witness(c, spec, pinned, cfg)
    assert got.inputs == inputs
    assert got.registers == {"s": source, **free}
    assert list(got.registers) == [r.name for r in c.registers]
    parts = [v for v in leaves if v.aux != ("s", -1)]
    whole = parts[0] if len(parts) == 1 else ex.concat(*parts)
    smallest = min(BitPlanes(support_leaves(whole, *pinned))
                   .value_set(whole, pinned))
    flat = 0
    for p, v in zip(parts, [*inputs.values(), *free.values()]):
        flat = (flat << p.width) | v
    assert flat == smallest


@pytest.mark.parametrize("analysis", [compute_dct, detect_trojan])
def test_stage2_states_projected_once_per_analysis(ima, ima_cfg, analysis,
                                                   monkeypatch):
    """symbolic_step groups the stage-2 states by the StateId their step
    pinned, so on ima, with two DCT edges into one destination, detect
    projects no stage-2 state, for the witnesses or for stage 3.  Stage
    3's explorations start from the states of that destination, and
    explore projects each once, as its initial state; compute_dct
    projects none of them."""
    projected = []
    real = engine.project

    def counted(s, spec, cfg):
        projected.append(s)
        return real(s, spec, cfg)

    monkeypatch.setattr(detect, "project", counted)
    monkeypatch.setattr(engine, "project", counted)
    report = analysis(ima, ima_cfg)
    if analysis is detect_trojan:
        assert report.verdict is Verdict.CLEAN
        report = report.dct
    assert report.dct == {(6, 0), (7, 0)}
    assert set(report.witnesses) == report.dct
    stage2 = report.stage2.sym_states
    assert len(stage2) == 8
    again = [s for s in projected if any(s is t for t in stage2)]
    starts = (engine.symbolic_step(ima, ima_cfg)[1][0]
              if analysis is detect_trojan else [])
    assert [engine._content(s) for s in again] == \
        [engine._content(s) for s in starts]
    # The rest is stage 1's initial state.
    assert len(projected) == 1 + len(again)
