"""Parser for a BLIF subset: .model/.inputs/.outputs/.names/.latch/.end.

Each `.names` block is a single-output cover; its on-set rows become a
sum-of-products net expression.  Don't-care literals (`-`) in a row are
expanded into explicit minterms, so every product references every input
of the cover.  Each `.latch <in> <out> <init>` becomes a one-bit register
(a 5-token form with an edge type and clock is accepted; the clock is
ignored since the IR is single-clock).  Off-set rows, multi-output
covers, and other directives are rejected.
"""

from __future__ import annotations

from . import expr as ex
from .circuit import Circuit, Register, validation_errors
from .errors import (DuplicateName, ParseError, UndrivenSignal,
                     UnsupportedDirective)

__all__ = ["parse_blif"]

_SUPPORTED = {".model", ".inputs", ".outputs", ".names", ".latch", ".end"}


def _logical_lines(text: str):
    """Yield (lineno, tokens) with comments stripped and continuations joined."""
    pending: list[str] = []
    start = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if pending:
            merged = " ".join(pending) + " " + line
        else:
            merged = line
            start = lineno
        if merged.endswith("\\"):
            pending = [merged[:-1].rstrip()]
            continue
        pending = []
        tokens = merged.split()
        if tokens:
            yield start, tokens
    tokens = " ".join(pending).split()  # a file ending in a continuation
    if tokens:
        yield start, tokens


def _cover_expr(input_names: list[str],
                rows: list[tuple[str, int, str]]) -> ex.Expr:
    """Sum-of-products over the on-set rows (constant 0 for an empty cover)."""
    products: list[ex.Expr] = []
    for plane, lineno, _ in rows:
        dash_positions = [i for i, ch in enumerate(plane) if ch == "-"]
        for fill in range(1 << len(dash_positions)):
            literals: list[ex.Expr] = []
            for i, ch in enumerate(plane):
                if ch == "-":
                    bit = (fill >> dash_positions.index(i)) & 1
                else:
                    bit = int(ch)
                leaf = ex.ref(input_names[i], 1)
                literals.append(leaf if bit else ex.not_(leaf))
            products.append(ex.and_all(literals))
    if not rows:
        return ex.const(1, 0)
    return ex.or_all(products)


def parse_blif(text: str) -> Circuit:
    name = None
    inputs: list[str] = []
    output_names: list[str] = []
    covers: list[tuple[list[str], str, list[tuple[str, int, str]], int]] = []
    latches: list[tuple[str, str, int, int]] = []
    current_cover = None
    ended = False

    for lineno, tokens in _logical_lines(text):
        head = tokens[0]
        if head.startswith("."):
            current_cover = None
            if head not in _SUPPORTED:
                raise UnsupportedDirective(f"line {lineno}: {head}")
            if ended:
                raise ParseError(lineno, 1, "content after .end")
            if head == ".model":
                if name is not None:
                    raise ParseError(lineno, 1, "duplicate .model")
                if len(tokens) != 2:
                    raise ParseError(lineno, 1, ".model expects one name")
                name = tokens[1]
            elif head == ".inputs":
                inputs.extend(tokens[1:])
            elif head == ".outputs":
                output_names.extend(tokens[1:])
            elif head == ".latch":
                if len(tokens) == 4:
                    d, q, init = tokens[1], tokens[2], tokens[3]
                elif len(tokens) == 6:
                    d, q, init = tokens[1], tokens[2], tokens[5]
                else:
                    raise ParseError(lineno, 1,
                                     ".latch expects <in> <out> [<type> <ctl>] <init>")
                if init not in ("0", "1"):
                    raise ParseError(lineno, 1, "latch init must be 0 or 1")
                latches.append((d, q, int(init), lineno))
            elif head == ".names":
                if len(tokens) < 2:
                    raise ParseError(lineno, 1, ".names expects signal names")
                current_cover = (tokens[1:-1], tokens[-1], [], lineno)
                covers.append(current_cover)
            elif head == ".end":
                ended = True
        else:
            if current_cover is None:
                raise ParseError(lineno, 1, "cover row outside a .names block")
            cover_inputs, _, rows, _ = current_cover
            if cover_inputs:
                if len(tokens) != 2:
                    raise ParseError(lineno, 1, "cover row needs <plane> <output>")
                plane, out_bit = tokens
            else:
                if len(tokens) != 1:
                    raise ParseError(lineno, 1, "constant cover row is one token")
                plane, out_bit = "", tokens[0]
            if len(plane) != len(cover_inputs):
                raise ParseError(lineno, 1,
                                 f"plane has {len(plane)} literals, cover has "
                                 f"{len(cover_inputs)} inputs")
            if any(ch not in "01-" for ch in plane):
                raise ParseError(lineno, 1, "plane literals must be 0, 1, or -")
            if out_bit != "1":
                raise ParseError(lineno, 1, "only on-set covers are supported")
            rows.append((plane, lineno, out_bit))

    if name is None:
        raise ParseError(1, 1, "missing .model")
    if not ended:
        raise ParseError(1, 1, "missing .end")

    names_seen: set[str] = set()
    for s in inputs + [q for _, q, _, _ in latches] + \
            [out for _, out, _, _ in covers]:
        if s in names_seen:
            raise DuplicateName(s)
        names_seen.add(s)
    driven = names_seen

    def check_ref(s: str, what: str):
        if s not in driven:
            raise UndrivenSignal(s)

    registers = []
    for d, q, init, _ in latches:
        check_ref(d, "latch input")
        registers.append(Register(q, 1, init, ex.ref(d, 1)))

    nets = []
    for cover_inputs, out, rows, _ in covers:
        for s in cover_inputs:
            check_ref(s, "cover input")
        nets.append((out, 1, _cover_expr(cover_inputs, rows)))

    outputs = []
    for out in output_names:
        check_ref(out, "model output")
        outputs.append((out, 1, ex.ref(out, 1)))

    c = Circuit(name, tuple((i, 1) for i in inputs), tuple(outputs),
                tuple(registers), tuple(nets))
    errors = validation_errors(c)
    if errors:
        raise errors[0]
    return c
