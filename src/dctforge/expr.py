"""Hash-consed bit-vector expression DAG.

One node type serves both circuit logic (Ref leaves) and symbolic values
(Var leaves).  Structurally identical nodes are interned to a single
object, so equality is identity and sub-DAGs are shared across the whole
process.  Nodes are immutable apart from two memo slots: `simp` holds
simplify()'s result and `leaves` leaf_set()'s.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .errors import WidthMismatch

__all__ = [
    "Expr", "const", "ref", "var", "not_", "neg", "redor", "redand",
    "and_", "or_", "xor", "add", "sub", "eq", "ne", "ult", "shl",
    "mux", "case", "slice_", "concat", "zext",
    "mask", "postorder", "evaluate", "substitute", "replace_node",
    "simplify", "leaf_set", "pp", "and_all", "or_all",
]

_BINARY = frozenset(["and", "or", "xor", "add", "sub"])
_COMPARE = frozenset(["eq", "ne", "ult"])
_REPR_TREE_CAP = 200  # tree nodes, shared sub-DAGs counted once per use


def mask(width: int) -> int:
    return (1 << width) - 1


class Expr:
    """A node in the interned expression DAG.  Do not construct directly;
    use the module-level constructor functions."""

    __slots__ = ("op", "width", "args", "aux", "eid", "simp", "leaves")

    op: str
    width: int
    args: tuple["Expr", ...]
    aux: tuple
    simp: "Expr | None"  # simplify(self) once computed, else None
    leaves: "frozenset[Expr] | None"  # leaf_set(self) once computed

    def __repr__(self) -> str:
        # pp's text grows with the tree, which can be exponential in the
        # DAG; print it only when the tree is small.
        size: dict[Expr, int] = {}
        for node in postorder([self]):
            size[node] = min(1 + sum(size[a] for a in node.args),
                             _REPR_TREE_CAP + 1)
        if size[self] <= _REPR_TREE_CAP:
            return f"<{pp(self)}:{self.width}>"
        return (f"<{self.op}:{self.width}, {len(size)} nodes, "
                f"tree over {_REPR_TREE_CAP}>")

    # Identity comparison is structural equality, by interning.
    __hash__ = object.__hash__


_intern_table: dict[tuple, Expr] = {}
_next_eid = 0


def _mk(op: str, width: int, args: tuple[Expr, ...], aux: tuple = ()) -> Expr:
    global _next_eid
    key = (op, width, aux, tuple(a.eid for a in args))
    node = _intern_table.get(key)
    if node is None:
        node = Expr.__new__(Expr)
        node.op = op
        node.width = width
        node.args = args
        node.aux = aux
        node.eid = _next_eid
        node.simp = None
        node.leaves = None
        _next_eid += 1
        _intern_table[key] = node
    return node


def _need(cond: bool, detail: str):
    if not cond:
        raise WidthMismatch(detail)


def const(width: int, value: int) -> Expr:
    _need(width >= 1, f"constant width must be >= 1, got {width}")
    _need(0 <= value <= mask(width), f"value {value} does not fit in {width} bits")
    return _mk("const", width, (), (value,))


def ref(name: str, width: int) -> Expr:
    _need(width >= 1, f"signal width must be >= 1, got {width}")
    return _mk("ref", width, (), (name,))


def var(name: str, width: int, step: int) -> Expr:
    """A symbolic variable; (name, step) is its identity."""
    _need(width >= 1, f"variable width must be >= 1, got {width}")
    return _mk("var", width, (), (name, step))


def not_(a: Expr) -> Expr:
    return _mk("not", a.width, (a,))


def neg(a: Expr) -> Expr:
    return _mk("neg", a.width, (a,))


def redor(a: Expr) -> Expr:
    return _mk("redor", 1, (a,))


def redand(a: Expr) -> Expr:
    return _mk("redand", 1, (a,))


def _binop(op: str, a: Expr, b: Expr) -> Expr:
    _need(a.width == b.width, f"{op} operand widths differ: {a.width} vs {b.width}")
    return _mk(op, a.width, (a, b))


def and_(a: Expr, b: Expr) -> Expr:
    return _binop("and", a, b)


def or_(a: Expr, b: Expr) -> Expr:
    return _binop("or", a, b)


def xor(a: Expr, b: Expr) -> Expr:
    return _binop("xor", a, b)


def add(a: Expr, b: Expr) -> Expr:
    return _binop("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    return _binop("sub", a, b)


def eq(a: Expr, b: Expr) -> Expr:
    _need(a.width == b.width, f"eq operand widths differ: {a.width} vs {b.width}")
    return _mk("eq", 1, (a, b))


def ne(a: Expr, b: Expr) -> Expr:
    _need(a.width == b.width, f"ne operand widths differ: {a.width} vs {b.width}")
    return _mk("ne", 1, (a, b))


def ult(a: Expr, b: Expr) -> Expr:
    _need(a.width == b.width, f"ult operand widths differ: {a.width} vs {b.width}")
    return _mk("ult", 1, (a, b))


def shl(a: Expr, amount: Expr) -> Expr:
    return _mk("shl", a.width, (a, amount))


def mux(cond: Expr, then: Expr, els: Expr) -> Expr:
    _need(cond.width == 1, f"mux condition must be 1 bit, got {cond.width}")
    _need(then.width == els.width,
          f"mux branch widths differ: {then.width} vs {els.width}")
    return _mk("mux", then.width, (cond, then, els))


def case(scrutinee: Expr, arms: Iterable[tuple[int, Expr]], default: Expr) -> Expr:
    arms = tuple(arms)
    keys = tuple(k for k, _ in arms)
    _need(len(set(keys)) == len(keys), "case arm keys must be distinct")
    for k, e in arms:
        _need(0 <= k <= mask(scrutinee.width),
              f"case key {k} does not fit scrutinee width {scrutinee.width}")
        _need(e.width == default.width,
              f"case arm width {e.width} differs from default width {default.width}")
    return _mk("case", default.width,
               (scrutinee,) + tuple(e for _, e in arms) + (default,), keys)


def slice_(a: Expr, lo: int, hi: int) -> Expr:
    _need(0 <= lo <= hi < a.width,
          f"slice [{hi}:{lo}] out of range for width {a.width}")
    return _mk("slice", hi - lo + 1, (a,), (lo, hi))


def concat(*parts: Expr) -> Expr:
    """Concatenation; the first argument occupies the most significant bits."""
    _need(len(parts) >= 2, "concat needs at least two operands")
    return _mk("concat", sum(p.width for p in parts), tuple(parts))


def zext(a: Expr, width: int) -> Expr:
    _need(width >= a.width, f"zext target width {width} < operand width {a.width}")
    return _mk("zext", width, (a,))


def and_all(conjuncts: list[Expr]) -> Expr:
    """Balanced conjunction of width-1 expressions (true constant if empty)."""
    if not conjuncts:
        return const(1, 1)
    while len(conjuncts) > 1:
        conjuncts = [and_(conjuncts[i], conjuncts[i + 1])
                     if i + 1 < len(conjuncts) else conjuncts[i]
                     for i in range(0, len(conjuncts), 2)]
    return conjuncts[0]


def or_all(disjuncts: list[Expr]) -> Expr:
    """Balanced disjunction (false constant if empty; width taken from operands)."""
    if not disjuncts:
        return const(1, 0)
    while len(disjuncts) > 1:
        disjuncts = [or_(disjuncts[i], disjuncts[i + 1])
                     if i + 1 < len(disjuncts) else disjuncts[i]
                     for i in range(0, len(disjuncts), 2)]
    return disjuncts[0]


def postorder(roots: Iterable[Expr]) -> list[Expr]:
    """All nodes reachable from roots, children before parents, each once."""
    seen: set[Expr] = set()
    order: list[Expr] = []
    stack: list[tuple[Expr, bool]] = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for a in reversed(node.args):
            if a not in seen:
                stack.append((a, False))
    return order


def _case_pick(node: Expr, scrut_val: int) -> Expr:
    for i, k in enumerate(node.aux):
        if k == scrut_val:
            return node.args[1 + i]
    return node.args[-1]


def _fold(op: str, width: int, vals: list[int], aux: tuple, arg_width: int) -> int:
    """Concrete semantics of one operator.  width is the result width,
    arg_width the width of the first operand (they differ for reductions,
    comparisons, and slices)."""
    m = mask(width)
    if op == "not":
        return ~vals[0] & m
    if op == "neg":
        return -vals[0] & m
    if op == "redor":
        return int(vals[0] != 0)
    if op == "redand":
        return int(vals[0] == mask(arg_width))
    if op == "and":
        return vals[0] & vals[1]
    if op == "or":
        return vals[0] | vals[1]
    if op == "xor":
        return vals[0] ^ vals[1]
    if op == "add":
        return (vals[0] + vals[1]) & m
    if op == "sub":
        return (vals[0] - vals[1]) & m
    if op == "eq":
        return int(vals[0] == vals[1])
    if op == "ne":
        return int(vals[0] != vals[1])
    if op == "ult":
        return int(vals[0] < vals[1])
    if op == "shl":
        return (vals[0] << vals[1]) & m if vals[1] < width else 0
    if op == "mux":
        return vals[1] if vals[0] else vals[2]
    if op == "slice":
        lo, hi = aux
        return (vals[0] >> lo) & mask(hi - lo + 1)
    if op == "zext":
        return vals[0]
    raise AssertionError(f"cannot fold {op}")


def evaluate(e: Expr, env: Mapping[tuple, int] | Callable[[Expr], int]) -> int:
    """Concrete evaluation.  env maps ('ref', name) and ('var', name, step)
    keys to unsigned integers (or is a callable from leaf node to value)."""
    lookup = env if callable(env) else None
    vals: dict[Expr, int] = {}
    for node in postorder([e]):
        op = node.op
        if op == "const":
            vals[node] = node.aux[0]
        elif op == "ref" or op == "var":
            if lookup is not None:
                vals[node] = lookup(node)
            else:
                vals[node] = env[(op,) + node.aux]
        elif op == "case":
            picked = _case_pick(node, vals[node.args[0]])
            vals[node] = vals[picked]
        elif op == "concat":
            acc = 0
            for a in node.args:
                acc = (acc << a.width) | vals[a]
            vals[node] = acc
        else:
            vals[node] = _fold(op, node.width, [vals[a] for a in node.args],
                               node.aux, node.args[0].width)
    return vals[e]


def substitute(e: Expr, env: Mapping[str, Expr]) -> Expr:
    """Replace Ref leaves by env[name]; refs not in env are kept."""
    out: dict[Expr, Expr] = {}
    for node in postorder([e]):
        if node.op == "ref" and node.aux[0] in env:
            repl = env[node.aux[0]]
            if repl.width != node.width:
                raise WidthMismatch(
                    f"substitution for {node.aux[0]!r} has width {repl.width}, "
                    f"expected {node.width}")
            out[node] = repl
        elif any(out.get(a, a) is not a for a in node.args):
            out[node] = _mk(node.op, node.width,
                            tuple(out.get(a, a) for a in node.args), node.aux)
        else:
            out[node] = node
    return out[e]


def replace_node(e: Expr, target: Expr, replacement: Expr) -> Expr:
    """Rebuild e with every occurrence of the node `target` replaced."""
    out: dict[Expr, Expr] = {target: replacement}
    for node in postorder([e]):
        if node in out:
            continue
        if any(out.get(a, a) is not a for a in node.args):
            out[node] = _mk(node.op, node.width,
                            tuple(out.get(a, a) for a in node.args), node.aux)
        else:
            out[node] = node
    return out[e]


def leaf_set(e: Expr) -> frozenset[Expr]:
    """Ref and Var leaves of e, memoised on e's `leaves` slot."""
    if e.leaves is None:
        e.leaves = frozenset(n for n in postorder([e])
                             if n.op in ("ref", "var"))
    return e.leaves


def _is_const(e: Expr, value: int | None = None) -> bool:
    return e.op == "const" and (value is None or e.aux[0] == value)


def _simp_node(op: str, width: int, args: tuple[Expr, ...], aux: tuple) -> Expr:
    """Build a node from already-simplified children, applying local rules."""
    if op == "concat":
        if all(_is_const(a) for a in args):
            acc = 0
            for a in args:
                acc = (acc << a.width) | a.aux[0]
            return const(width, acc)
        return _mk(op, width, args, aux)
    if op == "case":
        scrut = args[0]
        if _is_const(scrut):
            node = _mk(op, width, args, aux)
            return _case_pick(node, scrut.aux[0])
        arms = args[1:-1]
        if all(a is args[-1] for a in arms):
            return args[-1]
        # Hold logic: every arm k yields k and the default the scrutinee.
        if args[-1] is scrut and all(
                a is scrut or _is_const(a, k) for k, a in zip(aux, arms)):
            return scrut
        return _mk(op, width, args, aux)
    if op == "mux":
        c, t, e = args
        if _is_const(c):
            return t if c.aux[0] else e
        if t is e:
            return t
        if width == 1 and _is_const(t, 1) and _is_const(e, 0):
            return c
        # A branch that tests c again can only take c's side of it.
        if t.op == "mux" and t.args[0] is c:
            return _simp_node(op, width, (c, t.args[1], e), aux)
        if e.op == "mux" and e.args[0] is c:
            return _simp_node(op, width, (c, t, e.args[2]), aux)
        return _mk(op, width, args, aux)
    if all(_is_const(a) for a in args):
        return const(width, _fold(op, width, [a.aux[0] for a in args], aux,
                                  args[0].width))
    m = mask(width)
    if op == "and":
        a, b = args
        if _is_const(a, 0) or _is_const(b, 0):
            return const(width, 0)
        if _is_const(a, m):
            return b
        if _is_const(b, m):
            return a
        if a is b:
            return a
    elif op == "or":
        a, b = args
        if _is_const(a, m) or _is_const(b, m):
            return const(width, m)
        if _is_const(a, 0):
            return b
        if _is_const(b, 0):
            return a
        if a is b:
            return a
    elif op == "xor":
        a, b = args
        if a is b:
            return const(width, 0)
        if _is_const(a, 0):
            return b
        if _is_const(b, 0):
            return a
    elif op in ("add", "sub"):
        a, b = args
        if _is_const(b, 0):
            return a
        if op == "add" and _is_const(a, 0):
            return b
        if op == "sub" and a is b:
            return const(width, 0)
    elif op == "eq":
        if args[0] is args[1]:
            return const(1, 1)
    elif op == "ne":
        if args[0] is args[1]:
            return const(1, 0)
    elif op == "ult":
        if args[0] is args[1]:
            return const(1, 0)
        if _is_const(args[1], 0):
            return const(1, 0)
    elif op == "not":
        if args[0].op == "not":
            return args[0].args[0]
    elif op == "zext":
        if args[0].width == width:
            return args[0]
    elif op == "slice":
        lo, hi = aux
        if lo == 0 and hi == args[0].width - 1:
            return args[0]
    return _mk(op, width, args, aux)


def simplify(e: Expr) -> Expr:
    """Semantics-preserving rewrite: constant folding, identity and
    annihilator rules, case-on-constant resolution.  Idempotent.

    Two rules keep hold logic from nesting cycle after cycle:
    case(x){k: k, ...; default: x} is x, and a mux branch that tests the
    mux's own condition again is replaced by the side that condition
    selects (mux(c, t, mux(c, _, e)) is mux(c, t, e), and likewise in
    the then-branch).

    Memoised on the interned node: each node keeps its result in its
    `simp` slot, each result is marked as its own fixed point, and the
    walk stops at nodes already simplified."""
    if e.simp is not None:
        return e.simp
    stack: list[tuple[Expr, bool]] = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        if node.simp is not None:
            continue
        if not expanded:
            stack.append((node, True))
            for a in reversed(node.args):
                if a.simp is None:
                    stack.append((a, False))
            continue
        if node.args:
            result = _simp_node(node.op, node.width,
                                tuple(a.simp for a in node.args), node.aux)
        else:
            result = node
        result.simp = result
        node.simp = result
    return e.simp


_PREC_MUX = 0
_PREC_BITS = 1
_PREC_CMP = 2
_PREC_ARITH = 3
_PREC_UNARY = 4
_PREC_POSTFIX = 5
_PREC_PRIMARY = 6

_OP_PREC = {
    "mux": _PREC_MUX,
    "or": _PREC_BITS, "and": _PREC_BITS, "xor": _PREC_BITS,
    "eq": _PREC_CMP, "ne": _PREC_CMP, "ult": _PREC_CMP,
    "add": _PREC_ARITH, "sub": _PREC_ARITH, "shl": _PREC_ARITH,
    "not": _PREC_UNARY, "neg": _PREC_UNARY,
    "slice": _PREC_POSTFIX,
}

_OP_TOKEN = {"or": "|", "and": "&", "xor": "^", "eq": "==", "ne": "!=",
             "ult": "<", "add": "+", "sub": "-", "shl": "<<"}


def pp(e: Expr) -> str:
    """Pretty-print in the RTL expression grammar (vars as $name.step)."""
    text: dict[Expr, str] = {}

    def wrap(child: Expr, minimum: int) -> str:
        prec = _OP_PREC.get(child.op, _PREC_PRIMARY)
        s = text[child]
        return f"({s})" if prec < minimum else s

    for node in postorder([e]):
        op = node.op
        if op == "const":
            text[node] = f"{node.width}'d{node.aux[0]}"
        elif op == "ref":
            text[node] = node.aux[0]
        elif op == "var":
            name, step = node.aux
            text[node] = f"${name}.{'init' if step < 0 else step}"
        elif op in _OP_TOKEN:
            lhs = wrap(node.args[0], _OP_PREC[op])
            rhs = wrap(node.args[1], _OP_PREC[op] + 1)
            text[node] = f"{lhs} {_OP_TOKEN[op]} {rhs}"
        elif op == "not":
            text[node] = f"~{wrap(node.args[0], _PREC_UNARY)}"
        elif op == "neg":
            text[node] = f"-{wrap(node.args[0], _PREC_UNARY)}"
        elif op == "redor":
            text[node] = f"redor({text[node.args[0]]})"
        elif op == "redand":
            text[node] = f"redand({text[node.args[0]]})"
        elif op == "mux":
            c = wrap(node.args[0], _PREC_MUX + 1)
            t = wrap(node.args[1], _PREC_MUX + 1)
            f_ = wrap(node.args[2], _PREC_MUX)
            text[node] = f"{c} ? {t} : {f_}"
        elif op == "case":
            scrut = text[node.args[0]]
            w = node.args[0].width
            arms = "; ".join(f"{w}'d{k}: {text[a]}"
                             for k, a in zip(node.aux, node.args[1:-1]))
            sep = "; " if arms else ""
            text[node] = f"case({scrut}){{ {arms}{sep}default: {text[node.args[-1]]} }}"
        elif op == "slice":
            lo, hi = node.aux
            text[node] = f"{wrap(node.args[0], _PREC_POSTFIX)}[{hi}:{lo}]"
        elif op == "concat":
            text[node] = "{" + ", ".join(text[a] for a in node.args) + "}"
        elif op == "zext":
            text[node] = f"zext({text[node.args[0]]}, {node.width})"
        else:
            raise AssertionError(op)
    return text[e]
