"""Workload definitions: circuits, configs and the fixed list of analyses.

Every circuit is generated in-process and deterministically.  The seed
only picks the random FSMs of `rtl-reach`; the other two workloads are
fixed lists.  Nothing here imports dctforge at module level, so the
caller decides when the import (which `setup_s` times) happens.

See README.md next to this file for why each workload exists and which
sizes are left out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("rtl-reach", "trojan-deviance", "gate-level")

# Every config uses this cap: the default of 64 raises CapExceeded from
# w=7 on.
VALUE_CAP = 256

# Random FSMs are drawn from this pool of generator seeds, so every one
# of them has a recorded report digest.
FSM_POOL = 256
FSMS_PER_PASS = 8

# The analysis whose wall time is `largest_s`.
LARGEST = {
    "rtl-reach": "cnt7.fix",
    "trojan-deviance": "cnt6.inject",
    "gate-level": "cnt6.blif",
}


@dataclass
class Analysis:
    name: str
    kind: str                 # "dct" (compute_dct) or "trojan" (detect_trojan)
    circuit: object
    cfg: object
    counter: tuple | None = None   # (w, depth) when the closed form applies
    verdict: str | None = None     # expected Verdict value for "trojan"
    largest: bool = False          # timed as largest_s


def counter_limit(w: int) -> int:
    """K: the value at which the counter wraps to 0."""
    return (1 << w) - 3


def counter_rtl(w: int) -> str:
    k = counter_limit(w)
    return (f"circuit cnt{w}\n"
            f"input en:1\n"
            f"output wrap:1 = cnt == {w}'d{k}\n"
            f"reg cnt:{w} reset 0 next "
            f"en ? (cnt == {w}'d{k} ? {w}'d0 : cnt + {w}'d1) : cnt\n")


def counter_next(w: int, cnt: int, en: int) -> int:
    if not en:
        return cnt
    return 0 if cnt == counter_limit(w) else (cnt + 1) & ((1 << w) - 1)


def counter_blif(w: int) -> str:
    """The RTL counter bit-blasted by truth table: one `.names` on-set
    cover per next-state bit over (en, q[w-1..0])."""
    qs = [f"q{i}" for i in reversed(range(w))]
    lines = [f"# counter w={w} bit-blasted", f".model cnt{w}_gate",
             ".inputs en", ".outputs wrap"]
    lines += [f".latch n{i} q{i} 0" for i in reversed(range(w))]
    for i in reversed(range(w)):
        lines.append(f".names en {' '.join(qs)} n{i}")
        for en in (0, 1):
            for cnt in range(1 << w):
                if (counter_next(w, cnt, en) >> i) & 1:
                    lines.append(f"{en}{cnt:0{w}b} 1")
    lines.append(f".names {' '.join(qs)} wrap")
    lines.append(f"{counter_limit(w):0{w}b} 1")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def fsm_seeds(seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(FSM_POOL), FSMS_PER_PASS))


def _config(circuit, state_regs, depth, mode=None):
    from dctforge import ExploreConfig, Mode, make_state_spec
    return ExploreConfig(
        state_spec=make_state_spec(circuit, state_regs), depth=depth,
        mode=Mode.BFS_PRUNE if mode is None else mode,
        monitored_outputs=tuple(n for n, _, _ in circuit.outputs),
        value_cap=VALUE_CAP)


def _corpus_depth(name: str) -> int:
    return 8 if name == "counter.snl" else 7


def _corpus_state(name: str) -> list[str]:
    if name == "counter.snl":
        return ["cnt"]
    if name.endswith(".blif"):
        return ["q2", "q1", "q0"]
    return ["pcmSq"]


def _corpus(name: str, kind: str, verdict: str | None = None) -> Analysis:
    from dctforge import corpus
    c = corpus.load(name)
    return Analysis(name, kind, c,
                    _config(c, _corpus_state(name), _corpus_depth(name)),
                    verdict=verdict)


def _rtl_counter(w: int, label: str, kind: str = "dct", depth=None,
                 mode=None, verdict=None) -> Analysis:
    from dctforge import parse_rtl
    c = parse_rtl(counter_rtl(w))
    return Analysis(f"cnt{w}.{label}", kind, c,
                    _config(c, ["cnt"], depth, mode),
                    counter=(w, depth), verdict=verdict)


def _rtl_reach(seed: int, smallest: bool) -> list[Analysis]:
    from dctforge import Mode
    widths = [4] if smallest else [4, 5, 6, 7]
    out = [_rtl_counter(w, "fix") for w in widths]
    if smallest:
        return out
    out.append(_rtl_counter(6, "bfs10", depth=10, mode=Mode.BFS))
    out.append(_rtl_counter(6, "clean", kind="trojan", verdict="Clean"))
    out.append(_corpus("ima.snl", "dct"))
    out.append(_corpus("counter.snl", "dct"))
    out += [random_fsm(s) for s in fsm_seeds(seed)]
    return out


def random_fsm(fsm_seed: int) -> Analysis:
    from dctforge import gen_random_fsm
    c = gen_random_fsm(fsm_seed, state_bits=4, input_bits=3)
    return Analysis(f"fsm{fsm_seed:03d}", "dct", c, _config(c, ["st"], None))


def _trojan_deviance(smallest: bool) -> list[Analysis]:
    from dctforge import (StuckAt, TriggerSpec, inject_trojan,
                          make_state_spec, parse_rtl)
    out = []
    if not smallest:
        names = ["ima_trojan.snl"] + [f"ima_trojan_{n:02d}.snl"
                                      for n in range(1, 13)]
        out = [_corpus(n, "trojan", "TrojanDetected") for n in names]
    for w in ([4] if smallest else [4, 5, 6]):
        clean = parse_rtl(counter_rtl(w))
        k = counter_limit(w)
        trig = TriggerSpec(frozenset({(k + 1, 0)}),
                           make_state_spec(clean, ["cnt"]))
        c = inject_trojan(clean, trig, StuckAt("wrap", 1))
        out.append(Analysis(f"cnt{w}.inject", "trojan", c,
                            _config(c, ["cnt"], None),
                            verdict="TrojanDetected"))
    return out


def _gate_level(smallest: bool) -> list[Analysis]:
    from dctforge import parse_blif
    out = [] if smallest else [_corpus("ima_gate.blif", "dct")]
    for w in ([4] if smallest else [4, 5, 6]):
        c = parse_blif(counter_blif(w))
        state = [f"q{i}" for i in reversed(range(w))]
        out.append(Analysis(f"cnt{w}.blif", "dct", c,
                            _config(c, state, None), counter=(w, None)))
    return out


def build(workload: str, seed: int, smallest: bool = False) -> list[Analysis]:
    """The workload's analyses in run order.  smallest keeps only the
    smallest counter instance, for the self-test; it then counts as the
    largest one."""
    if workload == "rtl-reach":
        out = _rtl_reach(seed, smallest)
    elif workload == "trojan-deviance":
        out = _trojan_deviance(smallest)
    elif workload == "gate-level":
        out = _gate_level(smallest)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    target = out[-1].name if smallest else LARGEST[workload]
    for a in out:
        a.largest = a.name == target
    return out
