from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from dctforge import corpus
from dctforge.circuit import make_state_spec
from dctforge.engine import ExploreConfig, Mode


@pytest.fixture(scope="session")
def ima():
    return corpus.load("ima.snl")


@pytest.fixture(scope="session")
def ima_trojan():
    return corpus.load("ima_trojan.snl")


@pytest.fixture(scope="session")
def counter():
    return corpus.load("counter.snl")


@pytest.fixture(scope="session")
def ima_gate():
    return corpus.load("ima_gate.blif")


def config_for(circuit, state_regs, depth=7, mode=Mode.BFS_PRUNE,
               monitored=None, **kw):
    spec = make_state_spec(circuit, state_regs)
    if monitored is None:
        monitored = tuple(n for n, _, _ in circuit.outputs)
    return ExploreConfig(state_spec=spec, depth=depth, mode=mode,
                         monitored_outputs=tuple(monitored), **kw)


@pytest.fixture(scope="session")
def ima_cfg(ima):
    return config_for(ima, ["pcmSq"])


@pytest.fixture(scope="session")
def counter_cfg(counter):
    return config_for(counter, ["cnt"], depth=8)


def counter_blif(w: int) -> str:
    """The gate-level benchmark's cnt{w}.blif netlist, from
    perfbench/workloads.py (which imports nothing of dctforge)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name].counter_blif(w)
