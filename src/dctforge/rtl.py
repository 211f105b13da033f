"""Parser for the RTL-FSM text format.

Line-oriented, UTF-8.  Declarations:

    circuit <name>
    input <name>:<width>
    output <name>:<width> = <expr>
    reg <name>:<width> reset <uint> next <expr>
    net <name>:<width> = <expr>

Expression grammar, lowest precedence first: ternary `c ? a : b`; the
bitwise tier `| & ^`; comparisons `== != <`; additive `+ - <<`; unary
`~ -`; postfix slice `[hi:lo]`; primaries `case(...){...}`, `{a,b}`
concatenation, `zext(e,w)`, `redor(e)`, `redand(e)`, sized constants
`<width>'d<value>` (value decimal, as in Verilog even with leading
zeros, or 0b... or 0x...), parentheses, and signal names.  Widths run
from 1 to MAX_WIDTH.  `#` starts a comment.  Declarations may appear in
any order; references are resolved after all declarations are known.
Ternary else-chains and unary prefixes are parsed iteratively, so they
may be arbitrarily long; brackets and ternary then-branches may nest at
most MAX_NESTING levels deep, and deeper input is a ParseError.
"""

from __future__ import annotations

import re

from . import expr as ex
from .circuit import Circuit, Register, validation_errors
from .errors import DuplicateName, ParseError, UnknownSignal

__all__ = ["parse_rtl", "MAX_NESTING", "MAX_WIDTH"]

MAX_NESTING = 100
MAX_WIDTH = 1 << 16

_KEYWORDS = {"circuit", "input", "output", "reg", "net", "reset", "next",
             "case", "default", "zext", "redor", "redand"}

_TOKEN_RE = re.compile(r"""
      (?P<CONST>\d+'d(?:0b[01]+|0x[0-9a-fA-F]+|\d+))
    | (?P<NUMBER>\d+)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<OP><<|==|!=|[?:|&^<+\-~(){}\[\],;=])
    | (?P<WS>\s+)
""", re.VERBOSE)


def _tokenize(text: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(lineno, pos + 1, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        if kind != "WS":
            tokens.append((kind, m.group(), pos + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    def __init__(self, tokens: list[tuple[str, str, int]], lineno: int,
                 widths: dict[str, int]):
        self.tokens = tokens
        self.lineno = lineno
        self.widths = widths
        self.i = 0
        self.depth = -1  # the top-level expression is not nested

    def error(self, expected: str):
        col = self.tokens[self.i][2] if self.i < len(self.tokens) else (
            self.tokens[-1][2] + len(self.tokens[-1][1]) if self.tokens else 1)
        raise ParseError(self.lineno, col, expected)

    def peek(self) -> tuple[str, str] | None:
        if self.i < len(self.tokens):
            kind, text, _ = self.tokens[self.i]
            return kind, text
        return None

    def take(self) -> tuple[str, str]:
        if self.i >= len(self.tokens):
            self.error("unexpected end of line")
        kind, text, _ = self.tokens[self.i]
        self.i += 1
        return kind, text

    def expect(self, text: str):
        tok = self.peek()
        if tok is None or tok[1] != text:
            self.error(f"expected {text!r}")
        self.i += 1

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[1] == text

    def _int(self, text: str, base: int = 10) -> int:
        try:
            return int(text, base)
        except ValueError:  # more digits than int() accepts
            self.error(f"number too long: {text[:16]}...")

    def _width(self, w: int) -> int:
        if not 1 <= w <= MAX_WIDTH:
            self.error(f"width must be between 1 and {MAX_WIDTH}, got {w}")
        return w

    def number(self) -> int:
        kind, text = self.take()
        if kind != "NUMBER":
            self.error("expected a number")
        return self._int(text)

    def width(self) -> int:
        return self._width(self.number())

    def const_token(self) -> ex.Expr:
        kind, text = self.take()
        if kind != "CONST":
            self.error("expected a sized constant like 3'd5")
        w_text, v_text = text.split("'d", 1)
        base = {"0x": 16, "0b": 2}.get(v_text[:2], 10)
        return ex.const(self._width(self._int(w_text)),
                        self._int(v_text, base))

    def expr(self) -> ex.Expr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"expression nested more than {MAX_NESTING} levels deep")
        branches = []  # (cond, then) of a right-associative ternary chain
        e = self.bits()
        while self.at("?"):
            self.take()
            then = self.expr()
            self.expect(":")
            branches.append((e, then))
            e = self.bits()
        for cond, then in reversed(branches):
            e = ex.mux(cond, then, e)
        self.depth -= 1
        return e

    def bits(self) -> ex.Expr:
        lhs = self.cmp()
        while self.peek() and self.peek()[1] in ("|", "&", "^"):
            _, op = self.take()
            rhs = self.cmp()
            lhs = {"|": ex.or_, "&": ex.and_, "^": ex.xor}[op](lhs, rhs)
        return lhs

    def cmp(self) -> ex.Expr:
        lhs = self.arith()
        while self.peek() and self.peek()[1] in ("==", "!=", "<"):
            _, op = self.take()
            rhs = self.arith()
            lhs = {"==": ex.eq, "!=": ex.ne, "<": ex.ult}[op](lhs, rhs)
        return lhs

    def arith(self) -> ex.Expr:
        lhs = self.unary()
        while self.peek() and self.peek()[1] in ("+", "-", "<<"):
            _, op = self.take()
            rhs = self.unary()
            lhs = {"+": ex.add, "-": ex.sub, "<<": ex.shl}[op](lhs, rhs)
        return lhs

    def unary(self) -> ex.Expr:
        prefixes = []
        while self.at("~") or self.at("-"):
            prefixes.append(self.take()[1])
        e = self.postfix()
        for op in reversed(prefixes):
            e = ex.not_(e) if op == "~" else ex.neg(e)
        return e

    def postfix(self) -> ex.Expr:
        e = self.primary()
        while self.at("["):
            self.take()
            hi = self.number()
            self.expect(":")
            lo = self.number()
            self.expect("]")
            e = ex.slice_(e, lo, hi)
        return e

    def primary(self) -> ex.Expr:
        tok = self.peek()
        if tok is None:
            self.error("expected an expression")
        kind, text = tok
        if kind == "CONST":
            return self.const_token()
        if text == "(":
            self.take()
            e = self.expr()
            self.expect(")")
            return e
        if text == "{":
            self.take()
            parts = [self.expr()]
            while self.at(","):
                self.take()
                parts.append(self.expr())
            self.expect("}")
            if len(parts) < 2:
                self.error("concatenation needs at least two operands")
            return ex.concat(*parts)
        if text == "zext":
            self.take()
            self.expect("(")
            e = self.expr()
            self.expect(",")
            w = self.width()
            self.expect(")")
            return ex.zext(e, w)
        if text in ("redor", "redand"):
            self.take()
            self.expect("(")
            e = self.expr()
            self.expect(")")
            return ex.redor(e) if text == "redor" else ex.redand(e)
        if text == "case":
            return self.case_expr()
        if kind == "IDENT":
            if text in _KEYWORDS:
                self.error(f"keyword {text!r} cannot be used as a signal name")
            self.take()
            if text not in self.widths:
                raise UnknownSignal(text)
            return ex.ref(text, self.widths[text])
        self.error("expected an expression")

    def case_expr(self) -> ex.Expr:
        self.expect("case")
        self.expect("(")
        scrut = self.expr()
        self.expect(")")
        self.expect("{")
        arms: list[tuple[int, ex.Expr]] = []
        default = None
        while True:
            if self.at("default"):
                self.take()
                self.expect(":")
                default = self.expr()
                if self.at(";"):
                    self.take()
                self.expect("}")
                break
            key = self.const_token()
            if key.width != scrut.width:
                self.error(f"case key width {key.width} differs from "
                           f"scrutinee width {scrut.width}")
            self.expect(":")
            arms.append((key.aux[0], self.expr()))
            self.expect(";")
        return ex.case(scrut, arms, default)

    def finish(self) -> None:
        if self.i != len(self.tokens):
            self.error("trailing tokens after expression")


def parse_rtl(text: str) -> Circuit:
    """Parse the RTL-FSM format into a validated Circuit."""
    name = None
    decls: list[tuple] = []  # (kind, name, width, extra, tokens, lineno)
    widths: dict[str, int] = {}
    out_names: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = _tokenize(line, lineno)
        p = _ExprParser(tokens, lineno, widths)
        kind, word = p.take()
        if word == "circuit":
            if name is not None:
                raise ParseError(lineno, tokens[0][2], "duplicate circuit header")
            k, ident = p.take()
            if k != "IDENT" or ident in _KEYWORDS:
                p.error("expected circuit name")
            p.finish()
            name = ident
            continue
        if word not in ("input", "output", "reg", "net"):
            raise ParseError(lineno, tokens[0][2],
                             "expected circuit/input/output/reg/net")
        k, ident = p.take()
        if k != "IDENT" or ident in _KEYWORDS:
            p.error("expected a signal name")
        p.expect(":")
        width = p.width()
        if word == "output":
            if ident in out_names:
                raise DuplicateName(ident)
            out_names.add(ident)
        else:
            if ident in widths:
                raise DuplicateName(ident)
            widths[ident] = width
        reset_value = None
        if word == "input":
            p.finish()
            rest = None
        elif word == "reg":
            tok = p.peek()
            if tok is None or tok[1] != "reset":
                p.error("expected 'reset'")
            p.take()
            reset_value = p.number()
            tok = p.peek()
            if tok is None or tok[1] != "next":
                p.error("expected 'next'")
            p.take()
            rest = tokens[p.i:]
        else:
            p.expect("=")
            rest = tokens[p.i:]
        if rest is not None and not rest:
            p.error("expected an expression")
        decls.append((word, ident, width, reset_value, rest, lineno))

    if name is None:
        raise ParseError(1, 1, "missing 'circuit <name>' header")

    inputs: list[tuple[str, int]] = []
    outputs: list[tuple[str, int, ex.Expr]] = []
    registers: list[Register] = []
    nets: list[tuple[str, int, ex.Expr]] = []
    for word, ident, width, reset_value, rest, lineno in decls:
        if word == "input":
            inputs.append((ident, width))
            continue
        p = _ExprParser(rest, lineno, widths)
        e = p.expr()
        p.finish()
        if word == "output":
            outputs.append((ident, width, e))
        elif word == "reg":
            registers.append(Register(ident, width, reset_value, e))
        else:
            nets.append((ident, width, e))

    c = Circuit(name, tuple(inputs), tuple(outputs), tuple(registers),
                tuple(nets))
    errors = validation_errors(c)
    if errors:
        raise errors[0]
    return c
