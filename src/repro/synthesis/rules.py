"""The four explanation rules: promotion, insertion, eviction, normalization.

A rule is a small, immutable object with an ``apply`` method over age
vectors and a ``describe`` method used by the pretty printer.  Promotion and
insertion share one shape (:class:`UpdateRule`): a list of conditional
branches updating the touched line (the first branch whose condition holds
fires; otherwise the age is kept) plus an optional conditional update of
every *other* line — exactly the structure of the paper's ``promote``
generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import SynthesisError
from repro.synthesis.expr import AGE_OTHER, AGE_SELF, BoolExpr, NatExpr

Ages = Tuple[int, ...]


@dataclass(frozen=True)
class UpdateBranch:
    """One conditional branch ``if condition(age): age := value``."""

    condition: BoolExpr
    value: NatExpr

    def describe(self) -> str:
        return f"if {self.condition.describe()}: age := {self.value.describe()}"


@dataclass(frozen=True)
class UpdateRule:
    """Update the touched line (first matching branch) and, optionally, the rest.

    ``others_condition`` / ``others_value`` describe the "update the other
    lines" loop: for every line ``i`` different from the touched one, if the
    condition (which may refer to both the touched line's original age and
    line ``i``'s original age) holds, line ``i`` takes the new value.
    All conditions and values are evaluated against the *original* ages.
    """

    branches: Tuple[UpdateBranch, ...] = ()
    others_condition: Optional[BoolExpr] = None
    others_value: Optional[NatExpr] = None

    def __post_init__(self) -> None:
        if (self.others_condition is None) != (self.others_value is None):
            raise SynthesisError("others_condition and others_value must be given together")

    def apply(self, ages: Ages, line: int, max_age: int) -> Ages:
        """Return the updated age vector after touching ``line``."""
        original = tuple(ages)
        updated = list(original)
        self_env = {AGE_SELF: original[line]}
        for branch in self.branches:
            if branch.condition.evaluate(self_env, max_age):
                updated[line] = branch.value.evaluate(self_env, max_age)
                break
        if self.others_condition is not None and self.others_value is not None:
            for index, age in enumerate(original):
                if index == line:
                    continue
                env = {AGE_SELF: original[line], AGE_OTHER: age}
                if self.others_condition.evaluate(env, max_age):
                    updated[index] = self.others_value.evaluate(env, max_age)
        return tuple(updated)

    def describe(self) -> str:
        parts = []
        if not self.branches:
            parts.append("keep the line's age")
        for index, branch in enumerate(self.branches):
            prefix = "if" if index == 0 else "else if"
            parts.append(
                f"{prefix} {branch.condition.describe()}: set the line's age to "
                f"{branch.value.describe()}"
            )
        if self.others_condition is not None:
            parts.append(
                f"for every other line, if {self.others_condition.describe()}: set its age "
                f"to {self.others_value.describe()}"
            )
        return "; ".join(parts)


@dataclass(frozen=True)
class EvictionRule:
    """Select the victim line from the age vector.

    ``kind`` is one of

    * ``"first_with_age"`` — left-most line whose age equals ``age``;
    * ``"leftmost_max"`` — left-most line holding the maximal age;
    * ``"leftmost_min"`` — left-most line holding the minimal age.

    When no line matches a ``first_with_age`` rule the left-most line is
    evicted; this never happens for accepted explanations because the
    normalization rules re-establish the invariant, but it keeps candidate
    programs total during the search.
    """

    kind: str = "first_with_age"
    age: int = 0

    def select(self, ages: Ages) -> int:
        if self.kind == "first_with_age":
            for index, age in enumerate(ages):
                if age == self.age:
                    return index
            return 0
        if self.kind == "leftmost_max":
            return ages.index(max(ages))
        if self.kind == "leftmost_min":
            return ages.index(min(ages))
        raise SynthesisError(f"unknown eviction rule kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "first_with_age":
            return f"evict the left-most line whose age is {self.age}"
        if self.kind == "leftmost_max":
            return "evict the left-most line with the largest age"
        return "evict the left-most line with the smallest age"


@dataclass(frozen=True)
class NormalizationRule:
    """Re-establish a control-state invariant after (or before) an update.

    ``kind`` is one of

    * ``"identity"`` — do nothing (the Simple template);
    * ``"age_until_max"`` — while no line has age ``target``, increment every
      line (``skip_touched=False``) or every line except the one just
      touched (``skip_touched=True``);
    * ``"reset_when_all"`` — if every line has age ``target``, set every line
      except the touched one to ``reset_value`` (the MRU-style rule).
    """

    kind: str = "identity"
    target: int = 0
    skip_touched: bool = False
    reset_value: int = 0

    def apply(self, ages: Ages, touched: Optional[int], max_age: int) -> Ages:
        if self.kind == "identity":
            return tuple(ages)
        if self.kind == "age_until_max":
            current = list(ages)
            skip = touched if self.skip_touched else None
            # Each iteration increments at least one line unless every line is
            # skipped, so the loop is bounded by max_age iterations.
            for _ in range(max_age + 1):
                if self.target in current:
                    break
                changed = False
                for index in range(len(current)):
                    if index == skip:
                        continue
                    if current[index] < max_age:
                        current[index] += 1
                        changed = True
                if not changed:
                    break
            return tuple(current)
        if self.kind == "reset_when_all":
            if all(age == self.target for age in ages):
                return tuple(
                    age if index == touched else self.reset_value
                    for index, age in enumerate(ages)
                )
            return tuple(ages)
        raise SynthesisError(f"unknown normalization rule kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "identity":
            return "no normalization"
        if self.kind == "age_until_max":
            scope = "all lines except the touched one" if self.skip_touched else "all lines"
            return f"while no line has age {self.target}, increase the age of {scope} by 1"
        return (
            f"if every line has age {self.target}, set every line except the touched one "
            f"to {self.reset_value}"
        )
