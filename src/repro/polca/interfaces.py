"""Cache interfaces that Polca can probe.

Polca only needs three things from a cache (its view of the cache semantics
``[[C]]``):

* its associativity;
* the blocks it contains right after a reset, in a fixed canonical line
  order (``initial_blocks``) — the content ``cc0`` of Algorithm 1;
* a :meth:`~CacheProbeInterface.probe` operation that resets the cache,
  performs a sequence of block accesses and reports each access's Hit/Miss
  outcome.

Two adapters implement the protocol:

* :class:`SimulatedCacheInterface` — the software-simulated caches of
  Section 6, stepping a :class:`~repro.cache.cacheset.CacheSet` that it
  resets before every probe;
* ``CacheQuerySetInterface`` (in :mod:`repro.cachequery.frontend`) — the
  hardware path of Section 7, sending each probe as one query through a
  CacheQuery frontend targeting one cache set of a simulated CPU.
"""

from __future__ import annotations

import string
from typing import Hashable, List, Optional, Protocol, Sequence, Tuple

from repro.cache.cacheset import CacheSet
from repro.errors import CacheError
from repro.policies.base import ReplacementPolicy

Block = Hashable


def default_block_names(count: int) -> Tuple[str, ...]:
    """Return ``count`` distinct block names: ``A, B, ..., Z, A1, B1, ...``.

    The naming matches the MBL convention of using letters for abstract
    blocks, extended with numeric suffixes when more than 26 are needed.
    """
    if count < 0:
        raise CacheError(f"block count must be non-negative, got {count}")
    letters = string.ascii_uppercase
    names: List[str] = []
    suffix = 0
    while len(names) < count:
        for letter in letters:
            if len(names) >= count:
                break
            names.append(letter if suffix == 0 else f"{letter}{suffix}")
        suffix += 1
    return tuple(names)


class CacheProbeInterface(Protocol):
    """Protocol of the cache view Polca needs (the paper's ``[[C]]`` access)."""

    associativity: int

    def initial_blocks(self) -> Tuple[Block, ...]:
        """Blocks stored right after a reset, in canonical line order."""
        ...  # pragma: no cover - protocol

    def block_universe(self) -> Tuple[Block, ...]:
        """All blocks available for queries (must exceed the associativity)."""
        ...  # pragma: no cover - protocol

    def probe(self, blocks: Sequence[Block]) -> Tuple[str, ...]:
        """Reset, access ``blocks`` in order, return a Hit/Miss outcome per access."""
        ...  # pragma: no cover - protocol


class SimulatedCacheInterface:
    """Polca's view of a software-simulated cache set (Section 6).

    The cache starts out holding the first ``associativity`` blocks of the
    block universe (``A``, ``B``, ...), i.e. the state reached by the
    Flush+Refill reset sequence, so hardware and simulator expose the same
    initial content to Polca.  Every :meth:`probe` resets the underlying
    :class:`~repro.cache.cacheset.CacheSet` to that content first.
    """

    def __init__(
        self,
        policy: ReplacementPolicy,
        *,
        extra_blocks: int = 2,
        block_names: Optional[Sequence[Block]] = None,
    ) -> None:
        self.policy = policy
        self.associativity = policy.associativity
        universe_size = self.associativity + max(1, extra_blocks)
        if block_names is None:
            universe = default_block_names(universe_size)
        else:
            universe = tuple(block_names)
            if len(universe) < self.associativity + 1:
                raise CacheError(
                    "block universe must contain at least associativity + 1 blocks"
                )
        self._universe = universe
        self._initial = universe[: self.associativity]
        self._set = CacheSet(policy, self._initial)

    def initial_blocks(self) -> Tuple[Block, ...]:
        return self._initial

    def block_universe(self) -> Tuple[Block, ...]:
        return self._universe

    def probe(self, blocks: Sequence[Block]) -> Tuple[str, ...]:
        self._set.reset()
        access = self._set.access
        return tuple(access(block) for block in blocks)

    def store_namespace(self) -> Tuple[object, ...]:
        """Namespace key identifying this target inside a shared prefix store."""
        return ("simulated", str(self.policy.name), self.associativity)

    # -------------------------------------------------------- kernel fast path

    def kernel_policy(self) -> ReplacementPolicy:
        """Return the policy whose Mealy semantics this interface realises.

        Exposing this hook is what opts an interface into the tabulated
        kernel (:mod:`repro.simkernel`) under ``kernel="auto"``: because the
        simulated cache starts *full* (Flush+Refill content, never an
        invalid line), every probe outcome is determined by the policy
        machine alone, so Polca's answers over this interface coincide
        exactly with the policy's Mealy outputs.  Hardware interfaces have
        no such guarantee and do not implement this hook.
        """
        return self.policy
