"""Tiny expression language used inside explanation rules.

Rules talk about two ages: the age of the line being updated (``state[pos]``
in the paper's generators, here :data:`AGE_SELF`) and, inside the
"update the other lines" loop, the age of the other line (``state[i]``,
here :data:`AGE_OTHER``).  Natural-number expressions combine those with
constants and saturating addition/subtraction; boolean expressions are
comparisons (or ``True``).  Saturation keeps every reachable age within
``0..max_age`` so candidate policies always have a finite state space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

#: Variable naming the age of the line being updated (``state[pos]``).
AGE_SELF = "self"
#: Variable naming the age of the other line in the "update rest" loop (``state[i]``).
AGE_OTHER = "other"


class NatExpr:
    """Base class of natural-number expressions."""

    def evaluate(self, env: Mapping[str, int], max_age: int) -> int:
        """Evaluate under ``env`` with saturation into ``0..max_age``."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable rendering used by the pretty printer."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.describe()


@dataclass(frozen=True)
class Constant(NatExpr):
    """A literal age."""

    value: int

    def evaluate(self, env: Mapping[str, int], max_age: int) -> int:
        return max(0, min(self.value, max_age))

    def describe(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class AgeVar(NatExpr):
    """The age of the updated line (``self``) or of the other line (``other``)."""

    name: str = AGE_SELF

    def evaluate(self, env: Mapping[str, int], max_age: int) -> int:
        return env[self.name]

    def describe(self) -> str:
        return "age" if self.name == AGE_SELF else "other_age"


@dataclass(frozen=True)
class Sum(NatExpr):
    """A saturating sum ``base + delta`` (``delta`` may be negative)."""

    base: NatExpr
    delta: int

    def evaluate(self, env: Mapping[str, int], max_age: int) -> int:
        value = self.base.evaluate(env, max_age) + self.delta
        return max(0, min(value, max_age))

    def describe(self) -> str:
        sign = "+" if self.delta >= 0 else "-"
        return f"{self.base.describe()} {sign} {abs(self.delta)}"


class BoolExpr:
    """Base class of boolean expressions."""

    def evaluate(self, env: Mapping[str, int], max_age: int) -> bool:
        """Evaluate under ``env``."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable rendering."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.describe()


@dataclass(frozen=True)
class TrueExpr(BoolExpr):
    """The always-true condition."""

    def evaluate(self, env: Mapping[str, int], max_age: int) -> bool:
        return True

    def describe(self) -> str:
        return "true"


_OPERATORS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(BoolExpr):
    """A comparison between two natural expressions."""

    left: NatExpr
    operator: str
    right: NatExpr

    def __post_init__(self) -> None:
        if self.operator not in _OPERATORS:
            raise ValueError(f"unknown comparison operator {self.operator!r}")

    def evaluate(self, env: Mapping[str, int], max_age: int) -> bool:
        return _OPERATORS[self.operator](
            self.left.evaluate(env, max_age), self.right.evaluate(env, max_age)
        )

    def describe(self) -> str:
        return f"{self.left.describe()} {self.operator} {self.right.describe()}"
