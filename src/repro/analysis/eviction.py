"""Optimal eviction strategies from policy models.

An *eviction strategy* is a sequence of memory accesses that removes a victim
block from a cache set.  Its cost (number of accesses) depends heavily on the
replacement policy: LRU needs ``associativity`` fresh blocks, whereas
adaptive or RRIP-style policies can require interleaved re-accesses.  Attacks
such as Prime+Probe and Rowhammer want *minimal* strategies; defenders want
to know how large the attacker's working set must be.

Given a policy model this module computes a provably minimal strategy by
breadth-first search over the joint (cache content, control state) space,
where the attacker may either access one of its own blocks (fresh or already
cached) or re-access the victim is *not* allowed — the victim is assumed
untouched, as in an eviction-set attack.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cache.cacheset import CacheSet
from repro.errors import PolicyError
from repro.policies.base import ReplacementPolicy


@dataclass(frozen=True)
class EvictionStrategy:
    """A minimal sequence of attacker accesses that evicts the victim block."""

    policy: str
    associativity: int
    accesses: Tuple[str, ...]
    distinct_blocks: int

    @property
    def length(self) -> int:
        """Total number of attacker accesses."""
        return len(self.accesses)


def optimal_eviction_strategy(
    policy: ReplacementPolicy,
    *,
    victim_line: int = 0,
    max_length: int = 64,
) -> Optional[EvictionStrategy]:
    """Return a shortest attacker access sequence that evicts the victim.

    The cache starts full: the victim block occupies ``victim_line`` and the
    remaining lines hold other (non-attacker) blocks; the attacker owns
    ``associativity`` distinct blocks mapping to the same set and may access
    them in any order.  Returns ``None`` when no strategy of
    length ``max_length`` or less exists (which would indicate a
    thrash-resistant configuration).
    """
    n = policy.associativity
    if not 0 <= victim_line < n:
        raise PolicyError(f"victim line {victim_line} out of range for associativity {n}")
    victim = "victim"
    others = tuple(f"fill{i}" for i in range(n - 1))
    initial_content: List[str] = []
    fill_iter = iter(others)
    for line in range(n):
        initial_content.append(victim if line == victim_line else next(fill_iter))
    attacker = tuple(f"x{i}" for i in range(n))

    base = CacheSet(policy, initial_content=initial_content)
    start = base.snapshot()
    seen = {start}
    queue: deque = deque([(start, ())])
    while queue:
        snapshot, accesses = queue.popleft()
        if len(accesses) >= max_length:
            continue
        for block in attacker:
            base.restore(snapshot)
            base.access(block)
            if not base.contains(victim):
                sequence = accesses + (block,)
                return EvictionStrategy(
                    policy=policy.name,
                    associativity=n,
                    accesses=sequence,
                    distinct_blocks=len(set(sequence)),
                )
            successor = base.snapshot()
            if successor not in seen:
                seen.add(successor)
                queue.append((successor, accesses + (block,)))
    return None
