"""A single cache set driven by a replacement policy (Definition 2.3).

:class:`CacheSet` is the raw labelled transition system: an ``n``-tuple of
stored blocks plus a policy control state, advanced by the Hit/Miss rules
of Figure 2.  Lines may be *invalid* (hold no block), which models the
state after a ``clflush``; a miss always asks the policy for the victim
line, exactly as in the paper's model.  The "software-simulated cache" of
Section 6 is a :class:`CacheSet` reset before every probe
(:class:`~repro.polca.interfaces.SimulatedCacheInterface`).

Each :class:`CacheSet` memoizes its policy's ``on_hit``, ``on_fill`` and
``on_miss`` transitions in three per-set dicts of at most
:data:`TRANSITION_MEMO_BOUND` entries each, so a transition taken before
costs one lookup instead of a policy call.  This relies on policies being
pure functions (see :class:`~repro.policies.base.ReplacementPolicy`).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.trace import Trace
from repro.errors import CacheError
from repro.policies.base import ReplacementPolicy

Block = Hashable

#: Cache outputs (Table 1).
HIT = "Hit"
MISS = "Miss"

#: Entries each of a set's three transition memos (hits, fills, misses) may
#: hold; past it the set still calls its policy but stores nothing more.  A
#: set visits few control states in practice: a Table 4 fast sweep memoizes
#: 1,862 transitions over 120 sets, at most 477 in one.  A random trace can
#: visit far more: 400,000 seeded accesses over 32 blocks take one NEW2-16
#: set through 389,452 distinct states, and an unbounded memo held 104.5 MiB
#: for that set; bounded, it holds 32,784 entries in 8.5 MiB (PLRU-16:
#: 8.0 MiB; sizes from ``tracemalloc``).
TRANSITION_MEMO_BOUND = 1 << 14


class CacheSet:
    """An ``n``-way cache set: stored blocks plus a policy control state."""

    def __init__(
        self,
        policy: ReplacementPolicy,
        initial_content: Optional[Sequence[Block]] = None,
    ) -> None:
        self.policy = policy
        self.associativity = policy.associativity
        if initial_content is not None:
            content = list(initial_content)
            if len(content) != self.associativity:
                raise CacheError(
                    f"initial content must have {self.associativity} blocks, "
                    f"got {len(content)}"
                )
            valid = [block for block in content if block is not None]
            if len(set(valid)) != len(valid):
                raise CacheError("initial content must not contain repeated blocks")
            self._initial_content: List[Optional[Block]] = content
        else:
            self._initial_content = [None] * self.associativity
        self.content: List[Optional[Block]] = list(self._initial_content)
        self.policy_state = policy.initial_state()
        self._hits: Dict[Tuple[Hashable, int], Hashable] = {}
        self._fills: Dict[Tuple[Hashable, int], Hashable] = {}
        self._misses: Dict[Hashable, Tuple[Hashable, int]] = {}

    # ----------------------------------------------------------------- state

    def reset(self) -> None:
        """Return the set to its initial content and initial policy state."""
        self.content = list(self._initial_content)
        self.policy_state = self.policy.initial_state()

    def snapshot(self) -> Tuple[Tuple[Optional[Block], ...], Hashable]:
        """Return an immutable snapshot ``(content, policy_state)``."""
        return tuple(self.content), self.policy_state

    def restore(self, snapshot: Tuple[Tuple[Optional[Block], ...], Hashable]) -> None:
        """Restore a snapshot previously produced by :meth:`snapshot`."""
        content, policy_state = snapshot
        if len(content) != self.associativity:
            raise CacheError("snapshot associativity mismatch")
        self.content = list(content)
        self.policy_state = policy_state

    @property
    def valid_blocks(self) -> Tuple[Block, ...]:
        """Blocks currently stored, in line order, skipping invalid lines."""
        return tuple(block for block in self.content if block is not None)

    def contains(self, block: Block) -> bool:
        """Return ``True`` when ``block`` is currently stored."""
        return block in self.content

    # --------------------------------------------------------------- actions

    def access(self, block: Block) -> str:
        """Access ``block``; return :data:`HIT` or :data:`MISS`.

        Implements the Hit and Miss rules of Figure 2: a hit updates only the
        policy state (``Ln(i)``); a miss asks the policy for a victim line
        (``Evct``), replaces its content and updates the policy state.  Each
        transition comes from the set's memo when the set has taken it before.
        """
        if block is None:
            raise CacheError("cannot access the invalid block None")
        content = self.content
        state = self.policy_state
        if block in content:
            line = content.index(block)
            next_state = self._hits.get((state, line))
            if next_state is None:
                next_state = self.policy.on_hit(state, line)
                if len(self._hits) < TRANSITION_MEMO_BOUND:
                    self._hits[state, line] = next_state
            self.policy_state = next_state
            return HIT
        if None in content:
            # Real caches allocate invalid ways before evicting valid blocks;
            # the policy is informed through its insertion (fill) rule.
            line = content.index(None)
            content[line] = block
            next_state = self._fills.get((state, line))
            if next_state is None:
                next_state = self.policy.on_fill(state, line)
                if len(self._fills) < TRANSITION_MEMO_BOUND:
                    self._fills[state, line] = next_state
            self.policy_state = next_state
            return MISS
        transition = self._misses.get(state)
        if transition is None:
            transition = self.policy.on_miss(state)
            if len(self._misses) < TRANSITION_MEMO_BOUND:
                self._misses[state] = transition
        self.policy_state, victim = transition
        content[victim] = block
        return MISS

    def access_returning_victim(self, block: Block) -> Tuple[str, Optional[int]]:
        """Like :meth:`access` but also return the filled/evicted line (``None`` on a hit)."""
        if self.access(block) == HIT:
            return HIT, None
        # The block was absent, so the one line holding it now is the filled one.
        return MISS, self.content.index(block)

    def flush(self, block: Block) -> bool:
        """Invalidate ``block`` (``clflush``); return whether it was present.

        When the flush empties the whole set, the policy state is reset to
        its initial value: this models the observation that on the simulated
        CPUs a full invalidation followed by a refill (*Flush+Refill*) is a
        valid reset sequence (Section 7.1).
        """
        content = self.content
        if block not in content:
            return False
        content[content.index(block)] = None
        if content.count(None) == len(content):
            self.policy_state = self.policy.initial_state()
        return True

    def flush_all(self) -> None:
        """Invalidate every line and reset the policy state (``wbinvd``-like)."""
        self.content = [None] * self.associativity
        self.policy_state = self.policy.initial_state()

    # ---------------------------------------------------------------- traces

    def run(self, blocks: Iterable[Block]) -> Trace:
        """Access ``blocks`` in order (without resetting) and return the trace."""
        steps = [(block, self.access(block)) for block in blocks]
        return Trace(steps)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CacheSet(policy={self.policy.name}, content={self.content!r}, "
            f"state={self.policy_state!r})"
        )
