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


def _workloads():
    """perfbench/workloads.py, which imports nothing of dctforge."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def counter_blif(w: int) -> str:
    """The gate-level benchmark's cnt{w}.blif netlist."""
    return _workloads().counter_blif(w)


def counter_rtl(w: int) -> str:
    """The benchmark's RTL enable counter of width w, wrapping to 0 at
    2^w - 3."""
    return _workloads().counter_rtl(w)


def injected_counter(w: int):
    """The trojan-deviance benchmark's cnt{w}.inject circuit: the RTL
    counter with a Trojan that the edge (K + 1, 0) triggers and that
    holds wrap at 1."""
    from dctforge.rtl import parse_rtl
    from dctforge.trojanlab import StuckAt, TriggerSpec, inject_trojan
    clean = parse_rtl(counter_rtl(w))
    trigger = TriggerSpec(frozenset({(_workloads().counter_limit(w) + 1, 0)}),
                          make_state_spec(clean, ["cnt"]))
    return inject_trojan(clean, trigger, StuckAt("wrap", 1))


def with_side_counter(fsm, width: int = 2):
    """fsm, a gen_random_fsm circuit, with a free-running side counter
    `side:width` (reset 0, next side + 1) beside its state register st:
    while side is 1, st steps to st + 1 instead of its FSM successor, and
    a new output `tick` is 1.  So a register outside the state spec feeds
    both the next-state logic and an output, as a baud counter beside a
    UART controller does, and within three cycles of reset."""
    from dctforge import expr as ex
    from dctforge.circuit import Circuit, Register, validate
    (st,) = fsm.registers
    side = ex.ref("side", width)
    tick = ex.eq(side, ex.const(width, 1))
    st_plus_1 = ex.add(ex.ref(st.name, st.width), ex.const(st.width, 1))
    regs = (Register(st.name, st.width, st.reset_value,
                     ex.mux(tick, st_plus_1, st.next)),
            Register("side", width, 0, ex.add(side, ex.const(width, 1))))
    c = Circuit(f"{fsm.name}_side", fsm.inputs,
                fsm.outputs + (("tick", 1, tick),), regs, fsm.nets)
    validate(c)
    return c
