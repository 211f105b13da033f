"""Acceptance criteria.

Each test prints one [PASS]/[FAIL] line (visible with pytest -v -s or in
captured output on failure).  All set-level comparisons are exact; the
stated wall-clock budgets are asserted.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import replace as dc_replace

from dctforge import corpus
from dctforge.circuit import make_state_spec
from dctforge.cnf import bit_blast
from dctforge.detect import (Verdict, compute_dct, detect_trojan,
                             oracle_analyze, oracle_dct, replay_dct_witness)
from dctforge.engine import ExploreConfig, Mode, explore, reset_state
from dctforge.sat import check_sat
from dctforge.trojanlab import gen_random_fsm

from bruteforce import BitPlanes, ExprGen, support_leaves
from conftest import config_for


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label} "
          f"({time.perf_counter() - start:.2f}s)")


def state_regs_for(name: str) -> list[str]:
    if name == "counter.snl":
        return ["cnt"]
    if name.endswith(".blif"):
        return ["q2", "q1", "q0"]
    return ["pcmSq"]


def depth_for(name: str) -> int:
    return 8 if name == "counter.snl" else 7


def test_criterion_1_ima_dct_reproduction(ima):
    with criterion(1, "IMA DCT reproduction: |RS|=6, DCT={(6,0),(7,0)}, "
                      "|Dest|=1"):
        t0 = time.perf_counter()
        cfg = config_for(ima, ["pcmSq"], depth=7, mode=Mode.BFS_PRUNE)
        rep = compute_dct(ima, cfg)
        assert rep.rs == {0, 1, 2, 3, 4, 5}
        assert len(rep.rs) == 6
        assert rep.dct == {(6, 0), (7, 0)}
        assert len(rep.dct) == 2
        assert rep.dest == {0}
        assert len(rep.dest) == 1
        assert time.perf_counter() - t0 < 10.0


def test_criterion_2_trojan_table_reproduction(ima_trojan):
    with criterion(2, "Trojan table: six (0,1) rows, (5,0) is (1,1) and "
                      "not revealing"):
        t0 = time.perf_counter()
        cfg = config_for(ima_trojan, ["pcmSq"], depth=7,
                         monitored=("outValid",))
        tr = detect_trojan(ima_trojan, cfg)
        assert tr.verdict is Verdict.TROJAN_DETECTED

        stage3_all = set()
        for rbs_d, _ in tr.per_dest.values():
            stage3_all |= rbs_d
        transitions = sorted({(b.src, b.dst) for b in tr.rbs})
        assert transitions == [(0, 0), (0, 1), (1, 2), (2, 3), (3, 4),
                               (4, 5), (5, 0)]
        table = {}
        for src, dst in transitions:
            stage1 = {b.value for b in tr.rbs if (b.src, b.dst) == (src, dst)}
            deviant = {b.value for b in tr.dbs if (b.src, b.dst) == (src, dst)}
            observed = {b.value for b in stage3_all
                        if (b.src, b.dst) == (src, dst)}
            stage3 = deviant if deviant else observed
            table[(src, dst)] = (stage1, stage3, bool(deviant))
        for key in ((0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)):
            assert table[key] == ({0}, {1}, True), key
        assert table[(5, 0)] == ({1}, {1}, False)
        assert time.perf_counter() - t0 < 20.0


def test_criterion_3_trojan_variant_sweep():
    with criterion(3, "all 12 single-edge Trojan variants detected"):
        t0 = time.perf_counter()
        for n in range(1, 13):
            name = f"ima_trojan_{n:02d}.snl"
            c = corpus.load(name)
            tr = detect_trojan(c, config_for(c, ["pcmSq"], depth=7))
            assert tr.verdict is Verdict.TROJAN_DETECTED, name
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_no_dct_counter(counter):
    with criterion(4, "fully specified counter: |RS|=8, no DCTs"):
        rep = compute_dct(counter, config_for(counter, ["cnt"], depth=8))
        assert len(rep.rs) == 8
        assert rep.dct == set()


def test_criterion_5_pruning_equivalence_and_benefit():
    with criterion(5, "BFS == BFS+prune on the whole corpus; pruning "
                      "explores strictly fewer paths on IMA"):
        ratio = None
        for name in corpus.corpus_names():
            c = corpus.load(name)
            regs = state_regs_for(name)
            depth = depth_for(name)
            reports = {}
            for mode in (Mode.BFS, Mode.BFS_PRUNE):
                cfg = config_for(c, regs, depth=depth, mode=mode)
                reports[mode] = compute_dct(c, cfg)
            bfs, prune = reports[Mode.BFS], reports[Mode.BFS_PRUNE]
            assert bfs.rs == prune.rs, name
            assert bfs.trans == prune.trans, name
            assert bfs.dct == prune.dct, name
            if name == "ima.snl":
                assert prune.stage1.paths_explored < bfs.stage1.paths_explored
                ratio = bfs.stage1.paths_explored / prune.stage1.paths_explored
        print(f"  IMA stage-1 path reduction: {ratio:.2f}x")


def test_criterion_6_oracle_equivalence_100_fsms():
    with criterion(6, "engine equals oracle on 100 seeded random FSMs"):
        for seed in range(100):
            rng = random.Random(seed)
            state_bits = 2 + seed % 3
            input_bits = 1 + seed % 3
            n_states = 1 << state_bits
            n_reach = rng.randrange(1, n_states + 1)
            dct_count = rng.randrange(0, n_states - n_reach + 1)
            c = gen_random_fsm(seed, state_bits=state_bits,
                               input_bits=input_bits,
                               reachable_fraction=n_reach / n_states,
                               dct_count=dct_count)
            spec = make_state_spec(c, ["st"])
            depth = n_states
            cfg = config_for(c, ["st"], depth=depth)
            rep = compute_dct(c, cfg)
            om = oracle_analyze(c, spec, depth)
            assert rep.rs == om.rs, seed
            assert rep.trans == om.trans, seed
            assert rep.dct == oracle_dct(om), seed


def test_criterion_7_zero_false_positives():
    with criterion(7, "every reported DCT witness replays concretely"):
        cases = [(corpus.load(n), state_regs_for(n), depth_for(n))
                 for n in corpus.corpus_names()]
        for seed in range(30):
            c = gen_random_fsm(1000 + seed, state_bits=3,
                               input_bits=1 + seed % 3,
                               reachable_fraction=0.6,
                               dct_count=seed % 3)
            cases.append((c, ["st"], 8))
        total = 0
        for c, regs, depth in cases:
            cfg = config_for(c, regs, depth=depth)
            rep = compute_dct(c, cfg)
            assert set(rep.witnesses) == rep.dct
            for edge, witness in rep.witnesses.items():
                assert replay_dct_witness(c, cfg.state_spec, edge, witness), \
                    (c.name, edge)
                total += 1
        print(f"  replayed {total} witnesses")


def test_criterion_8_partial_mode_false_positives(ima):
    with criterion(8, "partial mode strictly over-approximates the IMA "
                      "DCT set"):
        full = compute_dct(ima, config_for(ima, ["pcmSq"], depth=7,
                                           mode=Mode.BFS_PRUNE))
        partial = compute_dct(ima, config_for(ima, ["pcmSq"], depth=7,
                                              mode=Mode.PARTIAL))
        assert full.dct < partial.dct


def test_criterion_9_monotonicity():
    with criterion(9, "RS(k) never shrinks as the bound grows, over the "
                      "whole corpus"):
        for name in corpus.corpus_names():
            c = corpus.load(name)
            cfg = config_for(c, state_regs_for(name), depth=1)
            prev: set[int] = set()
            for k in range(0, depth_for(name) + 1):
                meta = explore(c, [reset_state(c)], dc_replace(cfg, depth=k))
                assert prev <= meta.rs, (name, k)
                prev = meta.rs


def test_criterion_10_solver_soundness_1000_queries():
    with criterion(10, "1,000 random queries agree with exhaustive "
                       "enumeration; models re-evaluate true"):
        rng = random.Random(31415)
        gen = ExprGen(rng, n_vars=4, var_width=3)  # 12-bit support
        sat_count = 0
        for _ in range(1000):
            e = gen.gen(3, width=1)
            pc = tuple(gen.gen(2, width=1)
                       for _ in range(rng.randrange(0, 3)))
            formula = bit_blast(e, pc)
            outcome = check_sat(formula)
            leaves = support_leaves(e, *pc)
            bp = BitPlanes(leaves)
            expected_sat = bp.truth_plane((e,) + pc) != 0
            assert outcome.is_sat == expected_sat
            if outcome.is_sat:
                sat_count += 1
                from dctforge import expr as ex
                env = {}
                for leaf in leaves:
                    v = 0
                    for i in range(leaf.width):
                        if outcome.lit_value(formula.bit_map[(leaf, i)]):
                            v |= 1 << i
                    env[("var",) + leaf.aux] = v
                assert ex.evaluate(e, env) == 1
                for conj in pc:
                    assert ex.evaluate(conj, env) == 1
        print(f"  {sat_count}/1000 queries satisfiable")
