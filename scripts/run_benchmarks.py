#!/usr/bin/env python3
"""Desk-scale benchmark sweep over the bundled corpus.

Prints one table for don't-care transition detection (comparing the BFS
and BFS+pruning schedulers) and one for Trojan detection on the injected
variants.  Everything is exact set-level computation; times are
wall-clock on this machine.

Usage: python scripts/run_benchmarks.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dctforge import corpus
from dctforge.circuit import make_state_spec
from dctforge.detect import Verdict, compute_dct, detect_trojan
from dctforge.engine import ExploreConfig, Mode


def state_regs_for(name: str) -> list[str]:
    if name == "counter.snl":
        return ["cnt"]
    if name.endswith(".blif"):
        return ["q2", "q1", "q0"]
    return ["pcmSq"]


def depth_for(name: str) -> int:
    return 8 if name == "counter.snl" else 7


def config(circuit, name: str, mode: Mode) -> ExploreConfig:
    return ExploreConfig(
        state_spec=make_state_spec(circuit, state_regs_for(name)),
        depth=depth_for(name), mode=mode,
        monitored_outputs=tuple(n for n, _, _ in circuit.outputs))


def dct_table() -> None:
    bases = [n for n in corpus.corpus_names() if "trojan" not in n]
    print(f"{'circuit':<16} {'mode':<10} {'d':>2} {'|RS|':>4} {'|DCT|':>5} "
          f"{'|Dest|':>6} {'paths':>6} {'pruned':>6} {'ms':>8}")
    for name in bases:
        c = corpus.load(name)
        for mode in (Mode.BFS, Mode.BFS_PRUNE):
            t0 = time.perf_counter()
            rep = compute_dct(c, config(c, name, mode))
            ms = (time.perf_counter() - t0) * 1000
            print(f"{name:<16} {mode.value:<10} {depth_for(name):>2} "
                  f"{len(rep.rs):>4} {len(rep.dct):>5} {len(rep.dest):>6} "
                  f"{rep.paths_explored:>6} {rep.paths_pruned:>6} {ms:>8.1f}")


def trojan_table() -> None:
    names = ["ima_trojan.snl"] + [f"ima_trojan_{n:02d}.snl"
                                  for n in range(1, 13)]
    print(f"{'benchmark':<20} {'verdict':<16} {'|DCT|':>5} {'|DBS|':>5} "
          f"{'ms':>8}")
    for name in names:
        c = corpus.load(name)
        t0 = time.perf_counter()
        tr = detect_trojan(c, config(c, name, Mode.BFS_PRUNE))
        ms = (time.perf_counter() - t0) * 1000
        print(f"{name:<20} {tr.verdict.value:<16} {len(tr.dct.dct):>5} "
              f"{len(tr.dbs):>5} {ms:>8.1f}")
        assert tr.verdict is Verdict.TROJAN_DETECTED, name


def main() -> None:
    print("== don't-care transition detection ==")
    dct_table()
    print()
    print("== Trojan detection on injected variants ==")
    trojan_table()


if __name__ == "__main__":
    main()
