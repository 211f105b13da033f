"""The concrete step kernel: a split-free step plan evaluated on one truth
table, or compiled to straight-line Python.

engine.explore steps a state whose registers are all constants, and
whose path constraint is empty, by plain simulation when its circuit and
config allow it (see "Concrete steps" in engine's module docstring).
This module is that simulation.  A Kernel groups the assignments of a
circuit's live inputs, for one valuation of its registers, by next
StateId, and is built in one of two ways.  When the plan's register and
live input bits total at most solve.TABLE_BITS, its roots are evaluated
once, by cnf.PlaneEncoder, on one table of every register and input
assignment; a step splits the state's block of rows on the roots'
planes, and stage 2 reads its (source, destination) pairs from the same
planes (Kernel.pairs).  Otherwise compile_kernel turns the plan's
children-first node order into one Python function over plain ints,
which a step runs once per input assignment.  engine decides when a
kernel applies and what its groups become.

engine imports this module when it first builds a kernel, not when
dctforge is imported: circuits with Case/Mux logic never need it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from . import expr as ex
from . import solve
from .circuit import Circuit, StateSpec, state_concat_expr
from .cnf import PlaneEncoder
from .engine import _log_event

__all__ = ["compile_kernel", "Kernel"]

# Python source of each operator over its operands' code {0}, {1}, {2};
# {m} is the result's mask, {w} its width, {am} the first operand's mask
# and {lo} a slice's low bit.  Case and concat are built apart.
_CODE = {
    "and": "{0} & {1}", "or": "{0} | {1}", "xor": "{0} ^ {1}",
    "add": "({0} + {1}) & {m}", "sub": "({0} - {1}) & {m}",
    "eq": "1 if {0} == {1} else 0", "ne": "1 if {0} != {1} else 0",
    "ult": "1 if {0} < {1} else 0",
    "shl": "({0} << {1}) & {m} if {1} < {w} else 0",
    "not": "{0} ^ {m}", "neg": "-{0} & {m}",
    "redor": "1 if {0} else 0", "redand": "1 if {0} == {am} else 0",
    "mux": "{1} if {0} else {2}", "slice": "{0} >> {lo} & {m}",
}
# A node that one other node reads is written inside that node's
# expression, up to this nesting depth.  `compile` holds about 2.5 KB
# per statement while it runs, and about 0.5 KB per inlined operator.
_INLINE_DEPTH = 32


def compile_kernel(order: Sequence[ex.Expr], params: Sequence[ex.Expr],
                   links: Mapping[str, ex.Expr], roots: Sequence[ex.Expr]
                   ) -> tuple[Callable[..., tuple[int, ...]], int]:
    """One Python function that computes the values of `roots` from one
    int per node of `params`, and the number of nodes it computes.

    `order` lists each node once, children before parents, as a step
    plan's order does, and a Ref named in `links` takes the value of the
    linked node, which comes earlier.  Only the nodes that the roots
    read are computed.  The source is straight-line code over generated
    names, a{i} for the i-th parameter and t{j} for each node read more
    than once, and integer literals: no signal name reaches it, and it
    runs with no builtins.  A node read once is written inside its
    reader's expression."""
    text: dict[ex.Expr, str] = {p: f"a{i}" for i, p in enumerate(params)}

    def value(node: ex.Expr) -> ex.Expr:
        """The node whose value node has: Refs to nets and zext pass
        their operand's value through."""
        while node not in text and node.op in ("ref", "zext"):
            node = (links[node.aux[0]] if node.op == "ref"
                    else node.args[0])
        return node

    # The nodes the roots need, and how often each is read.  A Case
    # writes its scrutinee once per arm and shl its amount twice, so
    # their operands are never inlined.
    uses = Counter(value(r) for r in roots)
    for node in reversed(order):
        if node in uses and node not in text:
            for x in node.args:
                uses[value(x)] += 2 if node.op in ("case", "shl") else 1
    lines: list[str] = []
    depth: dict[ex.Expr, int] = {}
    computed = 0
    for node in order:
        if node not in uses or node in text:
            continue
        if node.op == "const":
            text[node] = str(node.aux[0])
            continue
        computed += 1
        a = [text[value(x)] for x in node.args]
        if node.op == "case":
            t = text[node] = f"t{len(lines)}"
            lines.append(f"{t} = {a[-1]}")
            lines += [f"if {a[0]} == {k}: {t} = {arm}"
                      for k, arm in zip(node.aux, a[1:-1])]
            continue
        if node.op == "concat":
            shift = node.width
            parts = []
            for x, code in zip(node.args, a):
                shift -= x.width
                parts.append(f"{code} << {shift}" if shift else code)
            code = " | ".join(parts)
        else:
            code = _CODE[node.op].format(
                *a, m=ex.mask(node.width), w=node.width,
                am=ex.mask(node.args[0].width),
                lo=node.aux[0] if node.op == "slice" else 0)
        d = 1 + max(depth.get(value(x), 0) for x in node.args)
        if uses[node] == 1 and d <= _INLINE_DEPTH:
            text[node] = f"({code})"
            depth[node] = d
        else:
            text[node] = f"t{len(lines)}"
            lines.append(f"{text[node]} = {code}")
    args = ", ".join(f"a{i}" for i in range(len(params)))
    body = "".join(f"    {line}\n" for line in lines)
    result = "".join(f"{text[value(r)]}, " for r in roots)
    namespace: dict = {"__builtins__": {}}
    exec(compile(f"def kernel({args}):\n{body}    return ({result})\n",
                 "<dctforge step kernel>", "exec"), namespace)
    return namespace["kernel"], computed


class _Planes(NamedTuple):
    """A table build's planes, each list most significant first."""
    ones: int                 # the mask of every row
    dst: list[int]            # the next StateId
    others: list[int]         # the others' next values, concatenated
    outputs: list[list[int]]  # each monitored output
    spec: list[int]           # the spec registers, concatenated


class Kernel:
    """The concrete step of one circuit under one state spec and list of
    monitored outputs, given as a step plan's order, links and outputs.
    It is built once, on its first use: on one truth table when its
    register and live input bits fit solve.TABLE_BITS, else compiled."""

    def __init__(self, c: Circuit, spec: StateSpec,
                 outputs: Sequence[tuple[str, ex.Expr]],
                 order: tuple[ex.Expr, ...], links: Mapping[str, ex.Expr],
                 live_inputs: Sequence[tuple[str, int]]):
        regs = c.register_map()
        self.registers = tuple(r.name for r in c.registers)
        # The registers outside the spec, in register order.
        self.others = tuple(r.name for r in c.registers
                            if r.name not in spec.registers)
        self._widths = tuple(r.width for r in c.registers)
        self._other_widths = tuple(regs[r].width for r in self.others)
        self._input_widths = tuple(w for _, w in live_inputs)
        # A table build's rows: the live inputs' bits, then the
        # registers' bits above them.
        self._input_bits = sum(self._input_widths)
        self.bits = self._input_bits + sum(self._widths)
        dst = state_concat_expr(spec, {r: regs[r].next
                                       for r in spec.registers})
        if len(spec.registers) > 1:  # else dst is a node of order already
            order = order + (dst,)
        params = ([ex.ref(r.name, r.width) for r in c.registers]
                  + [ex.ref(name, w) for name, w in live_inputs])
        roots = ([dst] + [regs[r].next for r in self.others]
                 + [e for _, e in outputs])
        self._parts = (order, params, links, roots)
        self._spec_registers = spec.registers
        self.fn: Callable[..., tuple[int, ...]] | None = None
        self.table: _Planes | None = None

    def build(self) -> tuple[str, int]:
        """Build the kernel on a table when its bits are at most
        solve.TABLE_BITS, read now, else compiled, and log a kernel_built
        event; returns the build ("table" or "compiled") and the number
        of nodes it computes."""
        if self.bits <= solve.TABLE_BITS:
            build = "table"
            self.table, nodes = self._evaluate()
        else:
            build = "compiled"
            self.fn, nodes = compile_kernel(*self._parts)
            self._assignments = list(itertools.product(
                *(range(1 << w) for w in self._input_widths)))
        _log_event(event="kernel_built", build=build, nodes=nodes)
        return build, nodes

    def _evaluate(self) -> tuple[_Planes, int]:
        """The roots' planes on one cnf.PlaneEncoder of the kernel's
        bits, and the number of nodes evaluated; the encoder is dropped."""
        order, params, links, roots = self._parts
        n_regs = len(self.registers)
        enc = PlaneEncoder(self.bits)
        # The live inputs take the low row bits, the registers the rest.
        enc.bits(*params[n_regs:], *params[:n_regs])
        # A Ref to a net takes its net's planes.  order has every net
        # before its Refs, so each net finds the nets it reads encoded.
        for node in order:
            if node.op == "ref" and node.aux[0] in links:
                enc._bits[node] = enc.bits(links[node.aux[0]])[0]

        def planes(es: Sequence[ex.Expr]) -> list[int]:
            return [p for bits in enc.bits(*es) for p in reversed(bits)]

        n_others = len(self.others)
        leaf = {p.aux[0]: p for p in params}
        table = _Planes(enc.ones, planes(roots[:1]),
                        planes(roots[1:1 + n_others]),
                        [planes([e]) for e in roots[1 + n_others:]],
                        planes([leaf[r] for r in self._spec_registers]))
        return table, sum(e.op not in ("ref", "const") for e in enc._bits)

    def step(self, regs: Mapping[str, int]
             ) -> dict[int, tuple[set[tuple[int, ...]], list[set[int]]]]:
        """For register values regs, each next StateId with the set of
        next values of the registers outside the spec (as tuples in
        `others` order) and each output's set of values, over every
        assignment of the live inputs."""
        if self.fn is None and self.table is None:
            self.build()
        if self.table is not None:
            return self._table_groups(regs)
        fn = self.fn
        values = [regs[name] for name in self.registers]
        rows = {fn(*values, *ins) for ins in self._assignments}
        n = len(self.others) + 1
        by_dst: dict[int, tuple[set[tuple[int, ...]], list[set[int]]]] = {}
        for row in rows:
            group = by_dst.get(row[0])
            if group is None:
                group = by_dst[row[0]] = (set(), [set() for _ in row[n:]])
            group[0].add(row[1:n])
            for vals, v in zip(group[1], row[n:]):
                vals.add(v)
        return by_dst

    def _table_groups(self, regs: Mapping[str, int]
                      ) -> dict[int, tuple[set[tuple[int, ...]],
                                            list[set[int]]]]:
        """step on the table: the state's rows, one contiguous block of
        2^m rows for m live input bits, split on the destination's
        planes, then each destination's rows on the others' planes and
        on each output's planes."""
        t = self.table
        packed = 0
        for name, w in zip(self.registers[::-1], self._widths[::-1]):
            packed = packed << w | regs[name]
        m = self._input_bits
        block = ((1 << (1 << m)) - 1) << (packed << m)
        split = PlaneEncoder.split
        by_dst = {}
        for v, rows in split(t.dst, block):
            others = set()
            for u, _ in split(t.others, rows):
                vals = []
                for w in self._other_widths[::-1]:
                    vals.append(u & ex.mask(w))
                    u >>= w
                others.add(tuple(reversed(vals)))
            by_dst[v] = (others, [{u for u, _ in split(planes, rows)}
                                  for planes in t.outputs])
        return by_dst

    def pairs(self) -> Iterator[tuple[int, int]] | None:
        """(source << w | destination, rows) for each (source,
        destination) pair over every row, w the spec's width: one split
        over the spec registers' planes and then the destination's, so
        the pairs come ascending, as solve.transitions enumerates them.
        None unless the kernel is built on a table, which it is now when
        it is not built yet and its bits are at most solve.TABLE_BITS."""
        if self.bits > solve.TABLE_BITS:
            return None
        if self.fn is None and self.table is None:
            self.build()
        t = self.table
        return None if t is None else PlaneEncoder.split(t.spec + t.dst,
                                                         t.ones)
