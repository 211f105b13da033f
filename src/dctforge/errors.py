"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class DctForgeError(Exception):
    """Base class for all toolkit errors."""


class ParseError(DctForgeError):
    """Syntax error in a circuit source file, with position information."""

    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: {expected}")


class UnsupportedDirective(DctForgeError):
    pass


class WidthMismatch(DctForgeError):
    def __init__(self, detail: str, signal: str | None = None):
        self.signal = signal
        super().__init__(detail if signal is None else f"{signal}: {detail}")


class UnknownSignal(DctForgeError):
    def __init__(self, signal: str):
        self.signal = signal
        super().__init__(f"unknown signal {signal!r}")


class DuplicateName(DctForgeError):
    def __init__(self, signal: str):
        self.signal = signal
        super().__init__(f"duplicate name {signal!r}")


class CombinationalCycle(DctForgeError):
    def __init__(self, signal: str):
        self.signal = signal
        super().__init__(f"combinational cycle through {signal!r}")


class UndrivenSignal(DctForgeError):
    def __init__(self, signal: str):
        self.signal = signal
        super().__init__(f"signal {signal!r} is referenced but never driven")


class StraySymbolic(DctForgeError):
    """A symbolic variable node appeared inside circuit logic."""

    def __init__(self, signal: str):
        self.signal = signal
        super().__init__(f"symbolic variable {signal!r} not allowed in circuit logic")


class InvalidCircuit(DctForgeError):
    """Raised by validate(); carries the full list of invariant violations."""

    def __init__(self, violations: list[DctForgeError]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class ResourceOut(DctForgeError):
    """A configured resource budget was exhausted."""

    def __init__(self, limit_name: str):
        self.limit_name = limit_name
        super().__init__(f"resource limit exceeded: {limit_name}")


class CapExceeded(DctForgeError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"more than {cap} satisfying values exist")


class PathExplosion(DctForgeError):
    def __init__(self, count: int, cap: int):
        super().__init__(f"one step produced {count} successors (cap {cap})")


class TooLargeForOracle(DctForgeError):
    def __init__(self, bits: int, cap: int):
        super().__init__(f"{bits} state+input bits exceed oracle cap of {cap}")


class InfeasibleParams(DctForgeError):
    pass


class UnknownOutput(DctForgeError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no output named {name!r}")
