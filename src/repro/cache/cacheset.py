"""A single cache set driven by a replacement policy (Definition 2.3).

:class:`CacheSet` is the raw labelled transition system: an ``n``-tuple of
stored blocks plus a policy control state, advanced by the Hit/Miss rules
of Figure 2.  Lines may be *invalid* (hold no block), which models the
state after a ``clflush``; a miss always asks the policy for the victim
line, exactly as in the paper's model.  The "software-simulated cache" of
Section 6 is a :class:`CacheSet` reset before every probe
(:class:`~repro.polca.interfaces.SimulatedCacheInterface`).

Each :class:`CacheSet` numbers the policy control states it visits with
small ints (the initial state is 0) and steps through per-state rows: a
hit successor and a fill successor per line, and one ``(successor,
victim)`` pair per miss, each filled in by one policy call the first time
the set takes that transition.  A transition taken before therefore costs
two list reads instead of hashing the state.  This relies on policies
being pure functions (see :class:`~repro.policies.base.ReplacementPolicy`).
A set numbers at most :data:`TRANSITION_MEMO_BOUND` states; one that
reaches a state it could not number steps its policy directly until a
reset or a full flush brings it back to the initial state (or a restore
to a numbered one).  :attr:`CacheSet.policy_state` reads and sets the
control state itself, so snapshots hold states, never their numbers.
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

#: Control states one set may number; past it the set steps its policy
#: directly from any state it could not number.  A set visits few control
#: states in practice: a Table 4 fast sweep numbers 818 states over 120
#: sets, at most 128 in one, and fills in 1,573 transitions.  A random trace
#: can visit far more: 400,000 seeded accesses over 32 blocks take one
#: NEW2-16 set through 389,452 distinct states, and its bounded table then
#: holds 10.7 MiB (PLRU-16: 10.6 MiB), where the per-transition dicts it
#: replaced held 8.5 MiB (8.4 MiB); sizes from ``tracemalloc``.
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
        initial = policy.initial_state()
        #: ``_states[i]`` is the control state numbered ``i`` and
        #: ``_numbers`` maps it back; row ``i`` of each table holds the
        #: numbered successors of state ``i`` (``None`` while unknown).
        self._states: List[Hashable] = [initial]
        self._numbers: Dict[Hashable, int] = {initial: 0}
        self._hit_rows: List[List[Optional[int]]] = [[None] * self.associativity]
        self._fill_rows: List[List[Optional[int]]] = [[None] * self.associativity]
        self._miss_rows: List[Optional[Tuple[int, int]]] = [None]
        #: The current state's number, or ``None`` when the table had no room
        #: for it; the state itself is then ``_unnumbered``.
        self._number: Optional[int] = 0
        self._unnumbered: Hashable = None

    # ----------------------------------------------------------------- state

    @property
    def policy_state(self) -> Hashable:
        """The policy's current control state."""
        if self._number is None:
            return self._unnumbered
        return self._states[self._number]

    @policy_state.setter
    def policy_state(self, state: Hashable) -> None:
        self._number = self._enter(state)

    def _enter(self, state: Hashable) -> Optional[int]:
        """Return the number of ``state``, numbering it while the table has room.

        A state the table has no room for is kept in ``_unnumbered`` and
        ``None`` is returned, so the caller leaves the table.
        """
        number = self._numbers.get(state)
        if number is None:
            if len(self._states) >= TRANSITION_MEMO_BOUND:
                self._unnumbered = state
                return None
            number = self._numbers[state] = len(self._states)
            self._states.append(state)
            self._hit_rows.append([None] * self.associativity)
            self._fill_rows.append([None] * self.associativity)
            self._miss_rows.append(None)
        return number

    def reset(self) -> None:
        """Return the set to its initial content and initial policy state."""
        self.content = list(self._initial_content)
        self._number = 0

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
        transition comes from the current state's row when the set has
        taken it before.
        """
        if block is None:
            raise CacheError("cannot access the invalid block None")
        content = self.content
        number = self._number
        if block in content:
            line = content.index(block)
            if number is None:
                self._unnumbered = self.policy.on_hit(self._unnumbered, line)
                return HIT
            row = self._hit_rows[number]
            successor = row[line]
            if successor is None:
                successor = row[line] = self._enter(
                    self.policy.on_hit(self._states[number], line)
                )
            self._number = successor
            return HIT
        if None in content:
            # Real caches allocate invalid ways before evicting valid blocks;
            # the policy is informed through its insertion (fill) rule.
            line = content.index(None)
            content[line] = block
            if number is None:
                self._unnumbered = self.policy.on_fill(self._unnumbered, line)
                return MISS
            row = self._fill_rows[number]
            successor = row[line]
            if successor is None:
                successor = row[line] = self._enter(
                    self.policy.on_fill(self._states[number], line)
                )
            self._number = successor
            return MISS
        if number is None:
            self._unnumbered, victim = self.policy.on_miss(self._unnumbered)
        else:
            transition = self._miss_rows[number]
            if transition is None:
                state, victim = self.policy.on_miss(self._states[number])
                successor = self._enter(state)
                transition = (successor, victim)
                if successor is not None:
                    self._miss_rows[number] = transition
            self._number, victim = transition
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
            self._number = 0
        return True

    def flush_all(self) -> None:
        """Invalidate every line and reset the policy state (``wbinvd``-like)."""
        self.content = [None] * self.associativity
        self._number = 0

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
