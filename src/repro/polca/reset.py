"""Reset sequences (Section 7.1, Table 4).

Polca assumes every membership query starts from one fixed cache state.  On
hardware this requires a *reset sequence*: a sequence of operations that
brings the targeted cache set into the same state regardless of its history.
The paper uses two kinds:

* **Flush+Refill (F+R)** — invalidate the whole set content (``clflush`` /
  ``wbinvd``) and then access associativity-many fresh blocks (the MBL ``@``
  macro);
* **access-sequence resets** — a fixed pattern of plain accesses, e.g.
  ``@ @`` for Haswell's L1 or ``D C B A @`` for Skylake's and Kaby Lake's L2,
  found manually when F+R is not sufficient.

A reset strategy produces both the MBL prefix that CacheQuery prepends to
every query and the display name used in Table 4.  Incorrect reset sequences
manifest as non-determinism, which the learning stack surfaces as
:class:`~repro.errors.NonDeterminismError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.errors import ResetError


class ResetStrategy(Protocol):
    """Protocol for reset sequences."""

    def mbl_prefix(self, associativity: int, blocks: Sequence[str]) -> str:
        """Return the MBL expression to execute before each query.

        ``blocks`` is the ordered block universe CacheQuery uses for the
        targeted set, so flush-based resets can invalidate every block that
        may currently occupy the set.
        """
        ...  # pragma: no cover - protocol

    def describe(self) -> str:
        """Return the short display name used in Table 4 (e.g. ``"F+R"``)."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class FlushRefillReset:
    """Invalidate every block of the working pool, then refill with ``@``."""

    def mbl_prefix(self, associativity: int, blocks: Sequence[str]) -> str:
        # Flush the entire pool (only pool blocks can occupy the targeted
        # set), then refill the set with the first associativity-many blocks
        # in canonical order.
        flushes = " ".join(f"{block}!" for block in blocks)
        return f"{flushes} @".strip()

    def describe(self) -> str:
        return "F+R"


@dataclass(frozen=True)
class SequenceReset:
    """A fixed access-sequence reset, e.g. ``D C B A @`` (Skylake L2)."""

    expression: str

    def __post_init__(self) -> None:
        if not self.expression.strip():
            raise ResetError("a sequence reset needs a non-empty MBL expression")

    def mbl_prefix(self, associativity: int, blocks: Sequence[str]) -> str:
        return self.expression

    def describe(self) -> str:
        return self.expression


@dataclass(frozen=True)
class NoReset:
    """No reset at all (only valid for stateless experiments and tests)."""

    def mbl_prefix(self, associativity: int, blocks: Sequence[str]) -> str:
        return ""

    def describe(self) -> str:
        return "none"


def reset_for_table4(cpu: str, level: str) -> ResetStrategy:
    """Return the reset sequence the paper reports for a given CPU / level.

    The mapping follows Table 4: Haswell's L1 uses the ``@ @`` access
    sequence, Skylake's and Kaby Lake's L2 use ``D C B A @``, and everything
    else uses Flush+Refill.
    """
    cpu_key = cpu.lower()
    level_key = level.upper()
    if "haswell" in cpu_key and level_key == "L1":
        return SequenceReset("@ @")
    if level_key == "L2" and ("skylake" in cpu_key or "kaby" in cpu_key):
        return SequenceReset("D C B A @")
    return FlushRefillReset()
