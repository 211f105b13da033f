"""Live path constraints: Reach explorations keep only the conjuncts
linked to the registers, and that changes no answer."""

from __future__ import annotations

import json
import logging
import random
from dataclasses import replace as dc_replace

import pytest

from dctforge import corpus, detect, engine
from dctforge import expr as ex
from dctforge.circuit import make_state_spec
from dctforge.detect import (Verdict, compute_dct, detect_trojan,
                             oracle_analyze, oracle_dct)
from dctforge.engine import FIXPOINT, Mode
from dctforge.rtl import parse_rtl
from dctforge.solve import SolverLimits, live_conjuncts
from dctforge.trojanlab import (StuckAt, TriggerSpec, gen_random_fsm,
                                inject_trojan)

from conftest import config_for, counter_rtl


def _keep_all(pc, leaves):
    return tuple(pc)


def _meta_fields(meta):
    return {"kind": meta.kind, "rs": meta.rs, "trans": meta.trans,
            "rbs": {(b.src, b.dst, b.output, b.value) for b in meta.rbs},
            "paths_explored": meta.paths_explored,
            "paths_pruned": meta.paths_pruned,
            "discovered_diameter": meta.discovered_diameter,
            "depth_converged": meta.depth_converged}


def _report_fields(tr):
    d = tr.dct
    return {"verdict": tr.verdict, "rbs": tr.rbs, "per_dest": tr.per_dest,
            "stage3_paths": tr.stage3_paths, "dct": d.dct, "dest": d.dest,
            "witnesses": d.witnesses, "constraint_dumps": d.constraint_dumps,
            "stage1": _meta_fields(d.stage1),
            "stage2": _meta_fields(d.stage2)}


def _detect_recorded(monkeypatch, c, cfg):
    """detect_trojan's report fields and the Metadata of every Reach
    exploration it ran (stage 1 and each stage-3 exploration)."""
    reach = []

    def recording(circuit, init, config, **kw):
        meta = engine.explore(circuit, init, config, **kw)
        reach.append(_meta_fields(meta))
        return meta

    with monkeypatch.context() as m:
        m.setattr(detect, "explore", recording)
        return _report_fields(detect_trojan(c, cfg)), reach


def _assert_trimming_changes_nothing(monkeypatch, c, cfg):
    """The detect_trojan report with live path constraints, after
    checking it and every Reach Metadata against a run that keeps every
    conjunct.  Each run gets a fresh SolverLimits, so neither replays
    the other's memoised answers."""
    with monkeypatch.context() as m:
        m.setattr(engine, "live_conjuncts", _keep_all)
        full = _detect_recorded(monkeypatch, c,
                                dc_replace(cfg, limits=SolverLimits()))
    live = _detect_recorded(monkeypatch, c,
                            dc_replace(cfg, limits=SolverLimits()))
    assert live == full
    return live[0]


def _injected_counter(w):
    clean = parse_rtl(counter_rtl(w))
    k = (1 << w) - 3
    trig = TriggerSpec(frozenset({(k + 1, 0)}),
                       make_state_spec(clean, ["cnt"]))
    return inject_trojan(clean, trig, StuckAt("wrap", 1))


_MODES = [(Mode.BFS, 6), (Mode.BFS_PRUNE, FIXPOINT), (Mode.BFS_PRUNE, 7),
          (Mode.PARTIAL, FIXPOINT)]
_TROJANS = ["ima_trojan.snl"] + [f"ima_trojan_{n:02d}.snl"
                                 for n in range(1, 13)]


@pytest.mark.parametrize("mode", [Mode.BFS, Mode.BFS_PRUNE, Mode.PARTIAL],
                         ids=lambda m: m.value)
def test_corpus_trojans_equal_untrimmed(monkeypatch, mode):
    for name in _TROJANS:
        c = corpus.load(name)
        report = _assert_trimming_changes_nothing(
            monkeypatch, c, config_for(c, ["pcmSq"], depth=7, mode=mode))
        if mode is not Mode.PARTIAL:
            assert report["verdict"] is Verdict.TROJAN_DETECTED, name


@pytest.mark.parametrize("mode,depth", _MODES,
                         ids=lambda v: getattr(v, "value", str(v)))
def test_injected_counters_equal_untrimmed(monkeypatch, mode, depth):
    for w in (4, 5, 6):
        c = _injected_counter(w)
        _assert_trimming_changes_nothing(
            monkeypatch, c, config_for(c, ["cnt"], depth=depth, mode=mode,
                                       value_cap=1 << (w + 1)))


@pytest.mark.parametrize("mode,depth", [(Mode.BFS, 4)] + _MODES[1:],
                         ids=lambda v: getattr(v, "value", str(v)))
def test_random_fsms_equal_untrimmed(monkeypatch, mode, depth):
    rng = random.Random(7373)
    for _ in range(6):
        c = gen_random_fsm(rng.randrange(1 << 30),
                           state_bits=rng.randrange(2, 4),
                           input_bits=rng.randrange(1, 3),
                           reachable_fraction=rng.choice([0.4, 0.6]),
                           dct_count=1)
        _assert_trimming_changes_nothing(
            monkeypatch, c, config_for(c, ["st"], depth=depth, mode=mode))


_HOLD = """\
circuit keep
input load:1
input din:2
reg hold:2 reset 0 next load ? din : hold
reg st:2 reset 0 next case(st){ 2'd0: hold == 2'd1 ? 2'd1 : 2'd0; \
2'd1: hold == 2'd2 ? 2'd2 : 2'd1; 2'd2: 2'd0; default: 2'd0 }
output y:1 = hold == 2'd3
"""


def _spawned_pc_sizes(records):
    """pc_conjuncts of each path_spawned event up to the first
    explore_done, i.e. of stage 1."""
    sizes = []
    for r in records:
        if r.levelno != logging.DEBUG:
            continue
        event = json.loads(r.getMessage())
        if event["event"] == "explore_done":
            break
        if event["event"] == "path_spawned":
            sizes.append(event["pc_conjuncts"])
    return sizes


def test_kept_group_matches_oracle(monkeypatch, caplog):
    """hold stays symbolic, so its conjuncts are live and kept; the
    result equals the untrimmed one and the oracle's."""
    c = parse_rtl(_HOLD)
    cfg = config_for(c, ["st"], depth=4, mode=Mode.BFS)
    report = _assert_trimming_changes_nothing(monkeypatch, c, cfg)
    om = oracle_analyze(c, make_state_spec(c, ["st"]), 4)
    assert report["stage1"]["rs"] == om.rs == {0, 1, 2}
    assert report["stage1"]["rbs"] == {(b.src, b.dst, b.output, b.value)
                                       for b in om.rbs}
    assert report["stage2"]["trans"] == om.trans
    assert report["dct"] == oracle_dct(om) == {(3, 0)}
    with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
        compute_dct(c, dc_replace(cfg, limits=SolverLimits()))
    assert max(_spawned_pc_sizes(caplog.records)) > 0


def test_live_conjuncts_keeps_linked_groups_in_order():
    a, b, c, d = (ex.var(n, 2, 0) for n in "abcd")
    pc = (ex.eq(a, b), ex.ne(c, ex.const(2, 1)), ex.ult(b, d),
          ex.eq(c, ex.const(2, 2)))
    assert live_conjuncts(pc, frozenset({d})) == (pc[0], pc[2])
    assert live_conjuncts(pc, frozenset({c})) == (pc[1], pc[3])
    assert live_conjuncts(pc, frozenset()) == ()


def test_counter_scale_stays_concrete(caplog):
    """A w=9 counter at fixpoint equals its closed form, and no stage-1
    frontier state keeps a conjunct: its registers are concrete, so the
    path constraint cannot grow with depth."""
    w = 9
    c = parse_rtl(counter_rtl(w))
    cfg = config_for(c, ["cnt"], depth=FIXPOINT, value_cap=1 << (w + 1))
    with caplog.at_level(logging.DEBUG, logger="dctforge.engine"):
        rep = compute_dct(c, cfg)
    assert rep.rs == set(range((1 << w) - 2))
    assert rep.dct == {((1 << w) - 1, 0)}
    sizes = _spawned_pc_sizes(caplog.records)
    assert len(sizes) == len(rep.rs) - 1
    assert set(sizes) == {0}

    inj = _injected_counter(8)
    tr = detect_trojan(inj, config_for(inj, ["cnt"], depth=FIXPOINT,
                                       value_cap=1 << 9))
    assert tr.verdict is Verdict.TROJAN_DETECTED
