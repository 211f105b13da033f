"""One circuit per operator, over CNF literals or over bit planes.

Encoder._encode builds each operator's circuit from gate primitives
(TRUE, FALSE, new_var, neg and the mk_* gates): ripple-carry adders, a
borrow chain for comparisons, a case as one mux per arm, a shift by a
symbolic amount as one mux stage per amount bit.  Encoder's gates are
Tseitin-encoded: variable 1 is a reserved constant forced true, so
constant bits are the literals 1 and -1 and every gate short-circuits
constant and repeated inputs.  bit_blast's formula carries a bit_map:
for every encoded expression bit, the CNF literal carrying it (possibly
negative, possibly the constant literal).  PlaneEncoder's gates are
bitwise operations on truth-table planes, ints whose bit k is a bit's
value under assignment number k of n support bits, so the same circuit
is evaluated under all 2^n assignments at once and adds no clause.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Iterator

from . import expr as ex
from .errors import ResourceOut

__all__ = ["CnfFormula", "Encoder", "PlaneEncoder", "bit_blast"]

DEFAULT_CLAUSE_CAP = 10 ** 7


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[list[int]]
    bit_map: dict[tuple[ex.Expr, int], int] = field(default_factory=dict)

    def to_dimacs(self, comment: str = "") -> str:
        lines = []
        if comment:
            for row in comment.splitlines():
                lines.append(f"c {row}")
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        for cl in self.clauses:
            lines.append(" ".join(map(str, cl)) + " 0")
        return "\n".join(lines) + "\n"


class Encoder:
    """Accumulates clauses while encoding expressions bottom-up; reusable
    across several roots so shared sub-DAGs encode once."""

    TRUE = 1
    FALSE = -1

    def __init__(self, clause_cap: int = DEFAULT_CLAUSE_CAP):
        self.clause_cap = clause_cap
        self.clauses: list[list[int]] = [[1]]
        self.num_vars = 1
        self._bits: dict[ex.Expr, list[int]] = {}

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits: list[int]) -> None:
        if len(self.clauses) >= self.clause_cap:
            raise ResourceOut("clause-cap")
        self.clauses.append(lits)

    def assert_lit(self, lit: int) -> None:
        self.add_clause([lit])

    # Gate primitives over CNF literals; each mk_* gate returns a literal
    # and short-circuits constant and repeated inputs.

    def neg(self, a: int) -> int:
        return -a

    def mk_and(self, a: int, b: int) -> int:
        if a == self.FALSE or b == self.FALSE or a == -b:
            return self.FALSE
        if a == self.TRUE:
            return b
        if b == self.TRUE or a == b:
            return a
        out = self.new_var()
        self.add_clause([-out, a])
        self.add_clause([-out, b])
        self.add_clause([out, -a, -b])
        return out

    def mk_or(self, a: int, b: int) -> int:
        return -self.mk_and(-a, -b)

    def mk_xor(self, a: int, b: int) -> int:
        if a == self.FALSE:
            return b
        if b == self.FALSE:
            return a
        if a == self.TRUE:
            return -b
        if b == self.TRUE:
            return -a
        if a == b:
            return self.FALSE
        if a == -b:
            return self.TRUE
        out = self.new_var()
        self.add_clause([-out, a, b])
        self.add_clause([-out, -a, -b])
        self.add_clause([out, -a, b])
        self.add_clause([out, a, -b])
        return out

    def mk_maj(self, a: int, b: int, c: int) -> int:
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if x == y:
                return x
            if x == -y:
                return z
        consts = [l for l in (a, b, c) if abs(l) == 1]
        if consts:
            lit = consts[0]
            others = [a, b, c]
            others.remove(lit)
            return self.mk_and(*others) if lit == self.FALSE else self.mk_or(*others)
        out = self.new_var()
        self.add_clause([-out, a, b])
        self.add_clause([-out, a, c])
        self.add_clause([-out, b, c])
        self.add_clause([out, -a, -b])
        self.add_clause([out, -a, -c])
        self.add_clause([out, -b, -c])
        return out

    def mk_mux(self, c: int, t: int, e: int) -> int:
        if c == self.TRUE:
            return t
        if c == self.FALSE:
            return e
        if t == e:
            return t
        if t == self.TRUE and e == self.FALSE:
            return c
        if t == self.FALSE and e == self.TRUE:
            return -c
        out = self.new_var()
        self.add_clause([-out, -c, t])
        self.add_clause([out, -c, -t])
        self.add_clause([-out, c, e])
        self.add_clause([out, c, -e])
        return out

    def mk_and_many(self, lits: list[int]) -> int:
        lits = [l for l in lits if l != self.TRUE]
        if any(l == self.FALSE for l in lits):
            return self.FALSE
        uniq: list[int] = []
        for l in lits:
            if -l in uniq:
                return self.FALSE
            if l not in uniq:
                uniq.append(l)
        if not uniq:
            return self.TRUE
        if len(uniq) == 1:
            return uniq[0]
        out = self.new_var()
        for l in uniq:
            self.add_clause([-out, l])
        self.add_clause([out] + [-l for l in uniq])
        return out

    def mk_or_many(self, lits: list[int]) -> int:
        return -self.mk_and_many([-l for l in lits])

    # Word-level circuits, the same over every gate algebra.

    def _adder(self, abits: list[int], bbits: list[int], carry: int) -> list[int]:
        out = []
        for a, b in zip(abits, bbits):
            t = self.mk_xor(a, b)
            out.append(self.mk_xor(t, carry))
            carry = self.mk_maj(a, b, carry)
        return out

    def _eq_bits(self, abits: list[int], bbits: list[int]) -> int:
        return self.mk_and_many(
            [self.neg(self.mk_xor(a, b)) for a, b in zip(abits, bbits)])

    def eq_const(self, abits: list[int], value: int) -> int:
        """The bit that says abits equal value: a case arm's select."""
        return self.mk_and_many(
            [a if (value >> i) & 1 else self.neg(a)
             for i, a in enumerate(abits)])

    def _ult(self, abits: list[int], bbits: list[int]) -> int:
        borrow = self.FALSE
        for a, b in zip(abits, bbits):
            borrow = self.mk_maj(self.neg(a), b, borrow)
        return borrow

    def bits(self, *roots: ex.Expr) -> list[list[int]]:
        """Encode roots (and anything they share) in one postorder, the
        first root's nodes first, returning each root's LSB-first bits."""
        b = self._bits
        # ex.postorder(roots[::-1]) less the nodes already encoded: the
        # descendants of an encoded node are all encoded, so the walk
        # stops there and the new nodes keep their order.
        seen: set[ex.Expr] = set()
        stack = [(r, False) for r in roots[::-1]]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                b[node] = self._encode(node)
                continue
            if node in b or node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for a in reversed(node.args):
                if a not in b and a not in seen:
                    stack.append((a, False))
        return [b[r] for r in roots]

    def _encode(self, node: ex.Expr) -> list[int]:
        op = node.op
        b = self._bits
        if op == "const":
            v = node.aux[0]
            return [self.TRUE if (v >> i) & 1 else self.FALSE
                    for i in range(node.width)]
        if op in ("ref", "var"):
            return [self.new_var() for _ in range(node.width)]
        if op == "not":
            return list(map(self.neg, b[node.args[0]]))
        if op == "neg":
            zero = [self.FALSE] * node.width
            return self._adder(zero, list(map(self.neg, b[node.args[0]])),
                               self.TRUE)
        if op == "redor":
            return [self.mk_or_many(b[node.args[0]])]
        if op == "redand":
            return [self.mk_and_many(b[node.args[0]])]
        if op in ("and", "or", "xor"):
            gate = getattr(self, "mk_" + op)
            return list(map(gate, b[node.args[0]], b[node.args[1]]))
        if op == "add":
            return self._adder(b[node.args[0]], b[node.args[1]], self.FALSE)
        if op == "sub":
            return self._adder(b[node.args[0]],
                               list(map(self.neg, b[node.args[1]])), self.TRUE)
        if op == "eq":
            return [self._eq_bits(b[node.args[0]], b[node.args[1]])]
        if op == "ne":
            return [self.neg(self._eq_bits(b[node.args[0]], b[node.args[1]]))]
        if op == "ult":
            return [self._ult(b[node.args[0]], b[node.args[1]])]
        if op == "shl":
            cur = list(b[node.args[0]])
            for k, sbit in enumerate(b[node.args[1]]):
                amount = 1 << k
                if amount >= node.width:
                    shifted = [self.FALSE] * node.width
                else:
                    shifted = [self.FALSE] * amount + cur[:node.width - amount]
                cur = [self.mk_mux(sbit, s, c) for s, c in zip(shifted, cur)]
            return cur
        if op == "mux":
            c = b[node.args[0]][0]
            return [self.mk_mux(c, t, e)
                    for t, e in zip(b[node.args[1]], b[node.args[2]])]
        if op == "case":
            scrut = b[node.args[0]]
            result = list(b[node.args[-1]])
            for key, arm in reversed(list(zip(node.aux, node.args[1:-1]))):
                sel = self.eq_const(scrut, key)
                result = [self.mk_mux(sel, t, e)
                          for t, e in zip(b[arm], result)]
            return result
        if op == "slice":
            lo, hi = node.aux
            return b[node.args[0]][lo:hi + 1]
        if op == "concat":
            out: list[int] = []
            for a in reversed(node.args):
                out.extend(b[a])
            return out
        if op == "zext":
            pad = node.width - node.args[0].width
            return b[node.args[0]] + [self.FALSE] * pad
        raise AssertionError(op)

    def to_formula(self) -> CnfFormula:
        return CnfFormula(self.num_vars, self.clauses)


@functools.cache
def _row_planes(n: int) -> tuple[int, list[int]]:
    """(ones, planes) for the 2^n assignments of n support bits: bit k of
    ones is 1 for every k, and bit k of planes[p] is bit p of k."""
    ones = (1 << (1 << n)) - 1
    return ones, [ones // ((1 << (2 << p)) - 1)
                  * (((1 << (1 << p)) - 1) << (1 << p)) for p in range(n)]


class PlaneEncoder(Encoder):
    """Encoder's circuits over the truth table of n support bits: each
    leaf bit new_var hands out is the next plane of _row_planes(n), and
    each gate is one bitwise operation.  A plane is read modulo ones,
    the mask of the 2^n rows, so TRUE is -1 and neg is ~."""

    TRUE = -1
    FALSE = 0
    neg = staticmethod(operator.invert)
    mk_and = staticmethod(operator.and_)
    mk_or = staticmethod(operator.or_)
    mk_xor = staticmethod(operator.xor)
    mk_maj = staticmethod(lambda a, b, c: a & b | c & (a | b))
    mk_mux = staticmethod(lambda c, t, e: e ^ (t ^ e) & c)
    mk_and_many = staticmethod(
        lambda planes: functools.reduce(operator.and_, planes, -1))
    mk_or_many = staticmethod(
        lambda planes: functools.reduce(operator.or_, planes, 0))

    def __init__(self, n: int):
        self.ones, leaves = _row_planes(n)
        self.new_var = iter(leaves).__next__
        self._bits: dict[ex.Expr, list[int]] = {}

    @staticmethod
    def split(proj: list[int], rows: int) -> Iterator[tuple[int, int]]:
        """(value, rows where proj takes it) for each distinct value that
        the planes proj, most significant first, take on rows: rows are
        split on each plane in turn, 0 first, so the values come lazily
        and in ascending order.  A split goes on down its 0 side and
        stacks only its 1 side, so a plane that is constant on the rows
        costs no stack entry."""
        stack = [(rows, 0, 0)] if rows else []
        while stack:
            rows, depth, value = stack.pop()
            for d in range(depth, len(proj)):
                one = rows & proj[d]
                if one == rows:
                    value = value << 1 | 1
                    continue
                if one:
                    stack.append((one, d + 1, value << 1 | 1))
                    rows ^= one
                value <<= 1
            yield value, rows


def bit_blast(e: ex.Expr, pc, clause_cap: int = DEFAULT_CLAUSE_CAP) -> CnfFormula:
    """CNF equisatisfiable with (pc AND e); e must be one bit wide."""
    from .errors import WidthMismatch
    if e.width != 1:
        raise WidthMismatch(f"bit_blast query must be 1 bit wide, got {e.width}")
    enc = Encoder(clause_cap)
    for conj in pc:
        enc.assert_lit(enc.bits(conj)[0][0])
    enc.assert_lit(enc.bits(e)[0][0])
    bit_map = {(node, i): lit for node, bits in enc._bits.items()
               for i, lit in enumerate(bits)}
    return CnfFormula(enc.num_vars, enc.clauses, bit_map)
