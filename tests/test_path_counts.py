"""The exploration frontier carries path counts: engine.explore steps each
distinct state once, and everything it reports equals the per-path
reference loop (bruteforce.per_path_explore), as does everything
engine.symbolic_step reports."""

from __future__ import annotations

import json
import logging
from collections import Counter, defaultdict
from dataclasses import replace as dc_replace

import pytest

from dctforge import corpus, engine
from dctforge import expr as ex
from dctforge.circuit import make_state_spec
from dctforge.detect import compute_dct, oracle_analyze, oracle_dct
from dctforge.engine import (FIXPOINT, Kind, Mode, explore, reset_state,
                             symbolic_state, symbolic_step)
from dctforge.rtl import parse_rtl
from dctforge.solve import CnfDumper, SolverLimits
from dctforge.trojanlab import gen_random_fsm

from bruteforce import per_path_explore
from conftest import config_for, counter_rtl


def _fields(meta):
    """The Metadata fields, with sym_states as its distinct contents in
    first-occurrence order and the number of paths to each: the per-path
    loop interleaves the copies of a state that explore lists side by
    side.  Where every state has one path the two lists are equal."""
    contents = [engine._content(s) for s in meta.sym_states]
    return {"rs": meta.rs, "trans": meta.trans,
            "rbs": {(b.src, b.dst, b.output, b.value) for b in meta.rbs},
            "paths_explored": meta.paths_explored,
            "paths_pruned": meta.paths_pruned,
            "discovered_diameter": meta.discovered_diameter,
            "depth_converged": meta.depth_converged,
            "sym_states": (list(dict.fromkeys(contents)), Counter(contents))}


def _cases():
    """(name, circuit, state registers, assumptions)."""
    ima = corpus.load("ima.snl")
    gate = corpus.load("ima_gate.blif")
    cases = [("ima", ima, ["pcmSq"], ()),
             ("ima+assume", ima, ["pcmSq"],
              (ex.ne(ex.ref("pcmSq", 3), ex.const(3, 2)),)),
             ("ima+input-assume", ima, ["pcmSq"],
              (ex.ult(ex.ref("inSamp", 16), ex.const(16, 9)),)),
             ("ima_gate", gate, ["q2", "q1", "q0"], ())]
    for seed, state_bits, input_bits in [(0, 2, 1), (1, 3, 2), (2, 4, 3),
                                         (3, 3, 3), (4, 4, 1), (5, 2, 2)]:
        c = gen_random_fsm(seed, state_bits, input_bits)
        cases.append((f"fsm{seed}", c, ["st"], ()))
    return cases


_CASES = _cases()


def _per_path_reach(c, init, cfg):
    """The per-path reference for explore."""
    return per_path_explore(c, init, cfg, Kind.REACH)


def _explorations(c, state_regs, assumes, mode):
    """(label, init, config) for every exploration one case runs: from
    reset at fixed depths and at FIXPOINT, from a doubled reset state
    (two paths in one entry) and from the fully symbolic state."""
    for depth in (0, 1, 3, FIXPOINT):
        cfg = config_for(c, state_regs, depth=depth, mode=mode,
                         assumes=assumes)
        yield (depth, "reset"), [reset_state(c)], cfg
        if depth == 3:
            yield ((depth, "reset x2"), [reset_state(c), reset_state(c)],
                   cfg)
    spec = make_state_spec(c, state_regs)
    for depth in (1, 2):
        cfg = config_for(c, state_regs, depth=depth, mode=mode,
                         assumes=assumes)
        yield (depth, "symbolic"), [symbolic_state(c, spec)], cfg


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name,c,state_regs,assumes", _CASES,
                         ids=[case[0] for case in _CASES])
def test_explore_equals_per_path_reference(name, c, state_regs, assumes,
                                           mode):
    """Each run gets a fresh SolverLimits, so neither replays the other's
    memoised answers."""
    for label, init, cfg in _explorations(c, state_regs, assumes, mode):
        ref = _per_path_reach(c, init, dc_replace(cfg, limits=SolverLimits()))
        got = explore(c, init, dc_replace(cfg, limits=SolverLimits()))
        assert _fields(got) == _fields(ref), (name, label)


def _symbolic_step_reference(c, cfg):
    """symbolic_step by the per-path loop: one step from the symbolic
    state under BFS, and its successors grouped by their projection."""
    spec = cfg.state_spec
    meta = per_path_explore(c, [symbolic_state(c, spec)],
                            dc_replace(cfg, depth=1, mode=Mode.BFS),
                            Kind.STATES)
    by_state = defaultdict(list)
    for s in meta.sym_states:
        (d,) = engine.project(s, spec, cfg)
        by_state[d].append(s)
    return meta, dict(by_state)


def _step_fields(meta, by_state):
    """Every Metadata field, with sym_states and the groups (in their
    first-occurrence order) as the contents of their states, in order."""
    return {**_fields(meta), "kind": meta.kind,
            "sym_states": [engine._content(s) for s in meta.sym_states],
            "by_state": [(d, [engine._content(s) for s in group])
                         for d, group in by_state.items()]}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name,c,state_regs,assumes", _CASES,
                         ids=[case[0] for case in _CASES])
def test_symbolic_step_equals_per_path_reference(name, c, state_regs,
                                                 assumes, mode):
    """symbolic_step under any mode and depth equals the per-path loop's
    one BFS step from the symbolic state, with and without assumptions
    (the ima+ cases).  Each run gets a fresh SolverLimits."""
    cfg = config_for(c, state_regs, depth=3, mode=mode, assumes=assumes)
    ref = _symbolic_step_reference(c, dc_replace(cfg, limits=SolverLimits()))
    got = symbolic_step(c, dc_replace(cfg, limits=SolverLimits()))
    assert _step_fields(*got) == _step_fields(*ref), name
    assert got[0].kind is Kind.STATES and got[0].paths_explored == 1


def _dumped_run(fn, c, init, cfg, directory, caplog):
    """The Metadata, the --dump-cnf files (name -> bytes) and the
    solver_stats events of one exploration with a fresh SolverLimits."""
    limits = SolverLimits(dumper=CnfDumper(str(directory)))
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="dctforge.solve"):
        meta = fn(c, init, dc_replace(cfg, limits=limits))
    stats = [r.getMessage() for r in caplog.records
             if r.name == "dctforge.solve"]
    files = {p.name: p.read_bytes() for p in directory.iterdir()}
    return _fields(meta), files, stats


@pytest.mark.parametrize("case", ["ima+input-assume", "fsm2"])
def test_bfs_dumps_and_solver_events_unchanged(case, tmp_path, caplog,
                                               monkeypatch):
    """The steps that merging saves only replayed memoised answers: a bfs
    run writes the same DIMACS files, byte for byte, and logs the same
    solver_stats events as the per-path loop.  explore's table step asks
    no query from a constant state, where the per-path loop's plan asks
    them, so it is off here."""
    monkeypatch.setattr(engine, "_table_step", lambda *args: None)
    _, c, state_regs, assumes = next(k for k in _CASES if k[0] == case)
    cfg = config_for(c, state_regs, depth=4, mode=Mode.BFS, assumes=assumes)
    ref = _dumped_run(_per_path_reach, c, [reset_state(c)], cfg,
                      tmp_path / "ref", caplog)
    got = _dumped_run(explore, c, [reset_state(c)], cfg, tmp_path / "got",
                      caplog)
    assert ref[1] and ref[2]
    assert got == ref


def _counting_step(monkeypatch):
    """Wrap engine._step; the returned list collects, per call, whether
    the state stepped is the fully symbolic one (stage 2's source), the
    layer the successors join (the state's var_epoch plus one, which
    counts the steps taken from reset) and the number of successors."""
    calls = []
    real = engine._step

    def counting(c, s, cfg, plan):
        results = real(c, s, cfg, plan)
        symbolic = s.regs == symbolic_state(c, cfg.state_spec).regs
        calls.append((symbolic, s.var_epoch + 1, len(results)))
        return results

    monkeypatch.setattr(engine, "_step", counting)
    return calls


def test_counter_bfs_depth_40_steps_distinct_states(monkeypatch):
    """cnt:6 under bfs at depth 40: layer l holds the l distinct counts
    0..l-1, reached by 2^(l-1) paths, so stage 1 explores 2^40 - 1 paths
    in 1 + 2 + ... + 40 = 820 steps, and stage 2 adds one step from the
    symbolic state.  The counter wraps to 0 at K = 2^w - 3, so RS is
    {0..40}, and the unreachable codes K and 2^w - 1 go to 0."""
    w, depth = 6, 40
    c = parse_rtl(counter_rtl(w))
    calls = _counting_step(monkeypatch)
    rep = compute_dct(c, config_for(c, ["cnt"], depth=depth, mode=Mode.BFS))
    assert rep.stage1.paths_explored == 2**depth - 1
    assert rep.stage2.paths_explored == 1
    assert rep.rs == set(range(depth + 1))
    assert rep.dct == {((1 << w) - 3, 0), ((1 << w) - 1, 0)}
    assert len(calls) == 821
    assert Counter(symbolic for symbolic, _, _ in calls) == {False: 820,
                                                             True: 1}


@pytest.mark.parametrize("seed", range(5))
def test_random_fsm_bfs_depth_6_equals_oracle(seed):
    c = gen_random_fsm(seed, 4, 3)
    spec = make_state_spec(c, ["st"])
    rep = compute_dct(c, config_for(c, ["st"], depth=6, mode=Mode.BFS))
    om = oracle_analyze(c, spec, 6)
    assert rep.stage1.paths_explored == 37449  # 8^0 + 8^1 + ... + 8^5
    assert rep.rs == om.rs
    assert rep.trans == om.trans
    assert rep.dct == oracle_dct(om)
    assert rep.stage1.rbs == om.rbs


def _path_events(records):
    """Per layer, the (event, paths) of each path event of the first
    exploration (up to its explore_done)."""
    layers = defaultdict(list)
    for r in records:
        if r.name != "dctforge.engine" or r.levelno != logging.DEBUG:
            continue
        event = json.loads(r.getMessage())
        if event["event"] == "explore_done":
            break
        if event["event"] in ("path_spawned", "path_pruned"):
            layers[event["layer"]].append((event["event"], event["paths"]))
    return layers


def _events_of(fn, c, init, cfg, caplog):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
        fn(c, init, dc_replace(cfg, limits=SolverLimits()))
    return _path_events(caplog.records)


@pytest.mark.parametrize("mode", [Mode.BFS, Mode.BFS_PRUNE],
                         ids=lambda m: m.value)
def test_path_events_sum_to_successor_paths(mode, monkeypatch, caplog):
    """Per layer, the paths fields of the spawned and pruned events sum to
    the layer's successor paths (one reference event per path).  There is
    one event per successor of an entry, or two under bfs-prune when a
    successor with a new StateId stands for several paths: one spawned,
    the rest pruned."""
    for name, c, state_regs, assumes in _CASES:
        cfg = config_for(c, state_regs, depth=3, mode=mode, assumes=assumes)
        init = [reset_state(c), reset_state(c)]
        ref = _events_of(_per_path_reach, c, init, cfg, caplog)
        with monkeypatch.context() as m:
            calls = _counting_step(m)
            got = _events_of(explore, c, init, cfg, caplog)
        successors = Counter()
        for _, layer, n in calls:
            successors[layer] += n
        assert got.keys() == ref.keys(), name
        for layer, events in got.items():
            assert sum(p for _, p in events) == len(ref[layer]), (name, layer)
            bound = successors[layer] * (1 if mode is Mode.BFS else 2)
            assert len(events) <= bound, (name, layer)


def test_path_events_linear_at_depth_40(caplog):
    """Debug logging never loops over a path count: the w=6 counter at bfs
    depth 40 logs one spawned event per successor entry, whose paths add
    up to 2^l in layer l."""
    c = parse_rtl(counter_rtl(6))
    cfg = config_for(c, ["cnt"], depth=40, mode=Mode.BFS)
    layers = _events_of(explore, c, [reset_state(c)], cfg, caplog)
    assert sorted(layers) == list(range(1, 41))
    for layer, events in layers.items():
        assert {e for e, _ in events} == {"path_spawned"}
        assert len(events) == 2 * layer
        assert sum(p for _, p in events) == 2**layer
