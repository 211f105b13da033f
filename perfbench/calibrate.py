"""Host-speed calibration for the benchmark's times.

The benchmark shares a small host with other work. The host's speed
changes by tens of percent within seconds, and process CPU time changes
with wall time, so neither raw clock shows a change of a few percent.
While a pass runs, a timer signal therefore interrupts it every
INTERVAL_S and runs one probe: a fixed piece of plain interpreter work
(a memoised walk over an object DAG, like `expr`'s walks, and a scan of
clause lists, like the SAT core's). The probes run at the same moments
as the analyses, so they see the same host speed. A timed section
reports its own time (elapsed time minus the probes inside it) scaled
by REF_PROBE_S / (mean probe time): "seconds on a host where one probe
takes REF_PROBE_S". The probes use no dctforge code, and the garbage
collector is off while one runs, so neither a change to dctforge nor
the size of its heap can move them.
"""

from __future__ import annotations

import gc
import random
import signal
import time

INTERVAL_S = 0.02
REF_PROBE_S = 0.001

_rng = random.Random(7)
_NV = 500
_CLAUSES = [[_rng.choice((1, -1)) * _rng.randrange(1, _NV + 1)
             for _ in range(3)] for _ in range(1500)]
_ASSIGN = [0] + [_rng.choice((1, -1)) for _ in range(_NV)]


class _Node:
    __slots__ = ("op", "args", "value")

    def __init__(self, op: int, args: tuple, value: int):
        self.op = op
        self.args = args
        self.value = value


_NODES = [_Node(0, (), i) for i in range(32)]
for _i in range(32, 1024):
    _NODES.append(_Node(1 + _i % 3, (_NODES[_i - 1],
                                     _NODES[_rng.randrange(_i)]), 0))


def _walk() -> int:
    memo: dict[_Node, int] = {}
    for n in _NODES:
        if not n.args:
            v = n.value
        elif n.op == 1:
            v = memo[n.args[0]] + memo[n.args[1]]
        elif n.op == 2:
            v = memo[n.args[0]] ^ (memo[n.args[1]] << 1)
        else:
            v = max(memo[n.args[0]], memo[n.args[1]]) + 1
        memo[n] = v & 0xFFFF
    return memo[_NODES[-1]]


def _scan() -> int:
    unsat = 0
    assign = _ASSIGN
    for cl in _CLAUSES:
        for lit in cl:
            v = assign[lit if lit > 0 else -lit]
            if (v if lit > 0 else -v) == 1:
                break
        else:
            unsat += 1
    return unsat


def run_probe() -> float:
    """Seconds one probe took."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _walk()
        _scan()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Probes:
    """Runs a probe from SIGALRM every INTERVAL_S while entered.

    on_probe(seconds), if given, is called after each probe so a tracer
    can keep the probe out of its spans.
    """

    def __init__(self, on_probe=None):
        self.on_probe = on_probe
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self._old = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        seconds = run_probe()
        self.samples.append((start, seconds))
        if self.on_probe is not None:
            self.on_probe(seconds)

    def __enter__(self) -> "Probes":
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def own(self, start: float, end: float) -> tuple[float, list[float]]:
        """Time from start to end minus the probes that ran in it, and
        those probes' durations."""
        inside = [s for t, s in self.samples if start <= t < end]
        return end - start - sum(inside), inside

    def speed(self, probes: list[float] | None = None) -> float:
        """Factor from this host's seconds to reference seconds, from the
        given probes or from all of them."""
        if probes is None:
            probes = [s for _, s in self.samples]
        return REF_PROBE_S * len(probes) / sum(probes)
