"""Policy input/output alphabets (Table 1 of the paper).

A replacement policy of associativity ``n`` consumes inputs

* ``Ln(i)`` — "the block stored in cache line *i* was accessed (a hit)", and
* ``Evct`` — "a miss happened, pick a line to evict",

and produces outputs

* ``⊥`` (here :data:`MISS_OUTPUT`, rendered ``"-"``) for ``Ln(i)`` inputs, and
* a line index in ``0..n-1`` for ``Evct`` inputs.

Inputs are immutable ``tuple`` subclasses, ``Ln(i)`` the 1-tuple ``(i,)`` and
``Evct`` the empty tuple, because every layer above the kernel hashes whole
words of them: CPython's C tuple hash then runs instead of a Python
``__hash__`` per symbol, with exactly the values of the frozen dataclasses
the symbols used to be (``hash((i,))`` and ``hash(())``), so every set and
dict iterates in the same order.  Otherwise they behave like those
dataclasses: a symbol equals and orders only against its own kind (never a
plain tuple), is truthy and read-only, and pickles to its own class.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Tuple, Union


def _same_kind_only(compare):
    """Wrap a tuple ordering so it raises ``TypeError`` across symbol kinds."""

    def method(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot order {self!r} against {other!r}")
        return compare(self, other)

    return method


class _Symbol(tuple):
    """Tuple-backed input symbol; equal and ordered only within its own class."""

    __slots__ = ()
    # Defining __eq__ would set __hash__ to None; keep the C tuple hash.
    __hash__ = tuple.__hash__
    __lt__ = _same_kind_only(tuple.__lt__)
    __le__ = _same_kind_only(tuple.__le__)
    __gt__ = _same_kind_only(tuple.__gt__)
    __ge__ = _same_kind_only(tuple.__ge__)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return type(other) is not type(self) or tuple.__ne__(self, other)

    def __bool__(self) -> bool:
        return True  # ``Evct`` is the empty tuple but a real input

    def __getnewargs__(self) -> tuple:
        # tuple's own gives ``(tuple(self),)``: unpickle as ``Line(i)`` / ``Evict()``.
        return tuple(self)


class Line(_Symbol):
    """Input symbol ``Ln(i)``: access the block currently stored in line ``i``."""

    __slots__ = ()
    index = property(itemgetter(0), doc="The accessed line ``i``.")

    def __new__(cls, index: int) -> "Line":
        if index < 0:
            raise ValueError(f"line index must be non-negative, got {index}")
        return tuple.__new__(cls, (index,))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"Ln({self[0]})"

    __repr__ = __str__


class Evict(_Symbol):
    """Input symbol ``Evct``: request that the policy frees one line."""

    __slots__ = ()

    def __new__(cls) -> "Evict":
        return tuple.__new__(cls)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "Evct"

    __repr__ = __str__


#: The singleton eviction-request input.
EVICT = Evict()

#: Output produced for ``Ln(i)`` inputs (the paper's ``⊥``).
MISS_OUTPUT = "-"

PolicyInput = Union[Line, Evict]
#: Policy outputs are either :data:`MISS_OUTPUT` or a line index.
PolicyOutput = Union[str, int]


def policy_input_alphabet(associativity: int) -> Tuple[PolicyInput, ...]:
    """Return the full policy input alphabet for the given associativity.

    The order is ``Ln(0), ..., Ln(n-1), Evct`` which matches the order used in
    the paper's examples and keeps learned models stable across runs.
    """
    if associativity < 1:
        raise ValueError(f"associativity must be >= 1, got {associativity}")
    return tuple(Line(i) for i in range(associativity)) + (EVICT,)


def policy_output_alphabet(associativity: int) -> Tuple[PolicyOutput, ...]:
    """Return the full policy output alphabet for the given associativity."""
    if associativity < 1:
        raise ValueError(f"associativity must be >= 1, got {associativity}")
    return (MISS_OUTPUT,) + tuple(range(associativity))


def is_line_input(symbol: PolicyInput) -> bool:
    """Return ``True`` when ``symbol`` is an ``Ln(i)`` access."""
    return isinstance(symbol, Line)


def is_evict_input(symbol: PolicyInput) -> bool:
    """Return ``True`` when ``symbol`` is the ``Evct`` request."""
    return isinstance(symbol, Evict)


def validate_output(symbol: PolicyInput, output: PolicyOutput, associativity: int) -> None:
    """Check the well-formedness conditions of Definition 2.1.

    ``Ln(i)`` inputs must produce ``⊥``; ``Evct`` must produce a line index in
    range.  Raises :class:`ValueError` on violation.
    """
    if isinstance(symbol, Line):
        if output != MISS_OUTPUT:
            raise ValueError(f"Ln({symbol.index}) must output {MISS_OUTPUT!r}, got {output!r}")
    else:
        if not isinstance(output, int) or not 0 <= output < associativity:
            raise ValueError(
                f"Evct must output a line index in [0, {associativity}), got {output!r}"
            )
