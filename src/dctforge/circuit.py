"""Circuit intermediate representation: the synchronous Mealy-machine carrier.

A circuit has inputs, combinational nets, registers with reset values and
next-state expressions, and named outputs.  All state is updated
simultaneously on the (implicit) clock edge.  Inputs, registers, and nets
share one namespace and signal references resolve there; output names are
sinks and may alias a driven signal (the common exposed-port pattern).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import expr as ex
from .errors import (CombinationalCycle, DctForgeError, DuplicateName,
                     InvalidCircuit, StraySymbolic, UnknownSignal,
                     WidthMismatch)

__all__ = ["Circuit", "Register", "StateSpec", "validate",
           "validation_errors", "print_rtl", "make_state_spec",
           "state_concat_expr", "encode_state", "decode_state"]

STATE_WIDTH_CAP = 24


@dataclass(frozen=True)
class Register:
    name: str
    width: int
    reset_value: int
    next: ex.Expr


@dataclass(frozen=True)
class Circuit:
    name: str
    inputs: tuple[tuple[str, int], ...]
    outputs: tuple[tuple[str, int, ex.Expr], ...]
    registers: tuple[Register, ...]
    nets: tuple[tuple[str, int, ex.Expr], ...]

    def input_widths(self) -> dict[str, int]:
        return {n: w for n, w in self.inputs}

    def register_map(self) -> dict[str, Register]:
        return {r.name: r for r in self.registers}

    def output_exprs(self) -> dict[str, ex.Expr]:
        return {n: e for n, _, e in self.outputs}

    def output_widths(self) -> dict[str, int]:
        return {n: w for n, w, _ in self.outputs}


@dataclass(frozen=True)
class StateSpec:
    """Ordered register subset whose concatenation (first name most
    significant) forms the FSM state identifier."""
    registers: tuple[str, ...]
    total_width: int


def make_state_spec(c: Circuit, names: list[str] | tuple[str, ...]) -> StateSpec:
    regs = c.register_map()
    widths = []
    for n in names:
        if n not in regs:
            raise UnknownSignal(n)
        widths.append(regs[n].width)
    seen: set[str] = set()
    for n in names:
        if n in seen:
            raise DuplicateName(n)
        seen.add(n)
    total = sum(widths)
    if not names:
        raise DctForgeError("state spec needs at least one register")
    if total > STATE_WIDTH_CAP:
        raise WidthMismatch(
            f"state spec is {total} bits wide, cap is {STATE_WIDTH_CAP}")
    return StateSpec(tuple(names), total)


def state_concat_expr(spec: StateSpec, reg_exprs: dict[str, ex.Expr]) -> ex.Expr:
    parts = [reg_exprs[n] for n in spec.registers]
    return parts[0] if len(parts) == 1 else ex.concat(*parts)


def encode_state(c: Circuit, spec: StateSpec, valuation: dict[str, int]) -> int:
    regs = c.register_map()
    value = 0
    for n in spec.registers:
        value = (value << regs[n].width) | (valuation[n] & ex.mask(regs[n].width))
    return value


def decode_state(c: Circuit, spec: StateSpec, state_id: int) -> dict[str, int]:
    regs = c.register_map()
    out: dict[str, int] = {}
    shift = spec.total_width
    for n in spec.registers:
        shift -= regs[n].width
        out[n] = (state_id >> shift) & ex.mask(regs[n].width)
    return out


def _walk_refs(root: ex.Expr, widths: dict[str, int], context: str,
               errors: list[DctForgeError]) -> set[str]:
    """Check every leaf reference of root against the symbol table; return
    the referenced signal names."""
    seen: set[str] = set()
    for node in ex.postorder([root]):
        if node.op == "var":
            errors.append(StraySymbolic(node.aux[0]))
        elif node.op == "ref":
            name = node.aux[0]
            seen.add(name)
            if name not in widths:
                errors.append(UnknownSignal(name))
            elif widths[name] != node.width:
                errors.append(WidthMismatch(
                    f"reference in {context} has width {node.width}, "
                    f"declared {widths[name]}", name))
    return seen


def validation_errors(c: Circuit) -> list[DctForgeError]:
    """All invariant violations of c (empty when the circuit is valid)."""
    errors: list[DctForgeError] = []
    widths: dict[str, int] = {}
    for name, w in c.inputs:
        if name in widths:
            errors.append(DuplicateName(name))
        widths[name] = w
    for r in c.registers:
        if r.name in widths:
            errors.append(DuplicateName(r.name))
        widths[r.name] = r.width
    for name, w, _ in c.nets:
        if name in widths:
            errors.append(DuplicateName(name))
        widths[name] = w

    out_names: set[str] = set()
    for name, _, _ in c.outputs:
        if name in out_names:
            errors.append(DuplicateName(name))
        out_names.add(name)

    for r in c.registers:
        if not (0 <= r.reset_value < (1 << r.width)):
            errors.append(WidthMismatch(
                f"reset value {r.reset_value} does not fit in {r.width} bits",
                r.name))
        if r.next.width != r.width:
            errors.append(WidthMismatch(
                f"next-state expression has width {r.next.width}, "
                f"register is {r.width}", r.name))
        _walk_refs(r.next, widths, f"register {r.name}", errors)

    for name, w, e in c.outputs:
        if e.width != w:
            errors.append(WidthMismatch(
                f"output expression has width {e.width}, declared {w}", name))
        _walk_refs(e, widths, f"output {name}", errors)

    # Nets and combinational-cycle detection over net-to-net references.
    net_deps: dict[str, set[str]] = {}
    net_names = {n for n, _, _ in c.nets}
    for name, w, e in c.nets:
        if e.width != w:
            errors.append(WidthMismatch(
                f"net expression has width {e.width}, declared {w}", name))
        refs = _walk_refs(e, widths, f"net {name}", errors)
        net_deps[name] = refs & net_names

    state = {n: 0 for n in net_deps}  # 0 unvisited, 1 on stack, 2 done
    def visit(n: str) -> bool:
        stack = [(n, iter(sorted(net_deps[n])))]
        state[n] = 1
        while stack:
            cur, it = stack[-1]
            advanced = False
            for dep in it:
                if state.get(dep, 2) == 1:
                    errors.append(CombinationalCycle(dep))
                    return True
                if state.get(dep, 2) == 0:
                    state[dep] = 1
                    stack.append((dep, iter(sorted(net_deps[dep]))))
                    advanced = True
                    break
            if not advanced:
                state[cur] = 2
                stack.pop()
        return False

    for n in sorted(net_deps):
        if state[n] == 0:
            if visit(n):
                break
    return errors


def validate(c: Circuit) -> None:
    """Raise InvalidCircuit carrying every violated invariant."""
    errors = validation_errors(c)
    if errors:
        raise InvalidCircuit(errors)


def net_topo_order(c: Circuit) -> list[tuple[str, int, ex.Expr]]:
    """Nets ordered so that each appears after the nets it references.
    Assumes the circuit validated (acyclic)."""
    by_name = {n: (n, w, e) for n, w, e in c.nets}
    deps = {}
    for n, _, e in c.nets:
        deps[n] = {r.aux[0] for r in ex.postorder([e])
                   if r.op == "ref" and r.aux[0] in by_name}
    order: list[str] = []
    done: set[str] = set()
    def emit(n: str):
        stack = [n]
        while stack:
            cur = stack[-1]
            pending = [d for d in sorted(deps[cur]) if d not in done]
            if pending:
                stack.extend(pending)
            else:
                if cur not in done:
                    done.add(cur)
                    order.append(cur)
                stack.pop()
    for n, _, _ in c.nets:
        if n not in done:
            emit(n)
    return [by_name[n] for n in order]


def print_rtl(c: Circuit) -> str:
    """Render a circuit in the RTL-FSM text format; parse_rtl inverts this."""
    lines = [f"circuit {c.name}"]
    for name, w in c.inputs:
        lines.append(f"input {name}:{w}")
    for name, w, e in c.outputs:
        lines.append(f"output {name}:{w} = {ex.pp(e)}")
    for r in c.registers:
        lines.append(f"reg {r.name}:{r.width} reset {r.reset_value} "
                     f"next {ex.pp(r.next)}")
    for name, w, e in c.nets:
        lines.append(f"net {name}:{w} = {ex.pp(e)}")
    return "\n".join(lines) + "\n"
