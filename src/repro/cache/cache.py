"""A full set-associative cache (one level, possibly sliced and adaptive).

:class:`SetAssociativeCache` owns one :class:`~repro.cache.cacheset.CacheSet`
per (slice, set index) pair, created lazily.  It adds the features of a real
cache level on top of the single-set model:

* physical-address decomposition through an :class:`~repro.cache.addressing.AddressMapper`;
* CAT way masking (the effective associativity seen by the measuring process);
* the set-dueling adaptive mechanism of Appendix B: leader sets run fixed
  policies, follower sets imitate the currently winning leader group, which
  makes them look non-deterministic to a per-set learner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.cache.addressing import AddressMapper
from repro.cache.adaptive import AdaptiveSetSelector, SetDuelingController
from repro.cache.cacheset import HIT, MISS, CacheSet
from repro.cache.cat import CATConfig
from repro.errors import CacheError
from repro.policies.base import ReplacementPolicy
from repro.policies.registry import make_policy

PolicyFactory = Callable[[int], ReplacementPolicy]


@dataclass(frozen=True)
class _NamedPolicyFactory:
    """A picklable ``associativity -> policy`` factory resolving a registry name.

    A plain lambda would work just as well locally, but cache levels (and
    everything holding them, up to a whole simulated CPU) must survive
    pickling so a Polca oracle over them can ship to pool workers.
    """

    policy_name: str

    def __call__(self, associativity: int) -> ReplacementPolicy:
        return make_policy(self.policy_name, associativity)


def _factory_from_name(name: str) -> PolicyFactory:
    return _NamedPolicyFactory(name)


@dataclass
class AdaptiveConfig:
    """Configuration of the set-dueling mechanism for one cache level."""

    selector: AdaptiveSetSelector
    leader_a_policy: str
    leader_b_policy: str
    controller: SetDuelingController = field(default_factory=SetDuelingController)


class _DuelingCacheSet:
    """A follower set that imitates whichever leader group is currently winning.

    Both candidate policies are stepped on every access so their control
    states stay meaningful; the victim on a miss is taken from the policy the
    PSEL controller currently favours.  Because the controller is global
    state shared by all sets, repeated identical probes of a follower set can
    produce different traces — the "non-deterministic behaviour" the paper
    observes on follower (and saturated leader-B) sets.
    """

    def __init__(
        self,
        policy_a: ReplacementPolicy,
        policy_b: ReplacementPolicy,
        controller: SetDuelingController,
    ) -> None:
        if policy_a.associativity != policy_b.associativity:
            raise CacheError("dueling policies must share one associativity")
        self.associativity = policy_a.associativity
        self._policy_a = policy_a
        self._policy_b = policy_b
        self._state_a = policy_a.initial_state()
        self._state_b = policy_b.initial_state()
        self._controller = controller
        self.content: list = [None] * self.associativity

    def access(self, block) -> str:
        content = self.content
        if block in content:
            line = content.index(block)
            self._state_a = self._policy_a.on_hit(self._state_a, line)
            self._state_b = self._policy_b.on_hit(self._state_b, line)
            return HIT
        self._state_a, victim_a = self._policy_a.on_miss(self._state_a)
        self._state_b, victim_b = self._policy_b.on_miss(self._state_b)
        winner = self._controller.follower_choice()
        victim = victim_a if winner == "leader_a" else victim_b
        content[victim] = block
        return MISS

    def flush(self, block) -> bool:
        content = self.content
        if block not in content:
            return False
        content[content.index(block)] = None
        if content.count(None) == len(content):
            self._state_a = self._policy_a.initial_state()
            self._state_b = self._policy_b.initial_state()
        return True

    def flush_all(self) -> None:
        self.content = [None] * self.associativity
        self._state_a = self._policy_a.initial_state()
        self._state_b = self._policy_b.initial_state()


class SetAssociativeCache:
    """One cache level: lazily materialised sets behind an address mapper.

    Each physical address the level sees is routed once, on first touch, to
    ``(cache set, block id, leader role or None)``; :meth:`access`,
    :meth:`contains` and :meth:`flush` then cost one dict lookup before the
    set's own line scan.  The routes hold the set objects themselves, so
    :meth:`configure_cat`, the only place that drops sets, clears them too.
    Like the mapper's memo, the routes grow with the distinct addresses seen.
    Each :class:`~repro.cache.cacheset.CacheSet` also memoizes its policy's
    transitions, up to
    :data:`~repro.cache.cacheset.TRANSITION_MEMO_BOUND` entries per table;
    the follower sets of an adaptive level step their two policies directly.
    """

    def __init__(
        self,
        name: str,
        associativity: int,
        mapper: AddressMapper,
        policy: str | PolicyFactory,
        *,
        adaptive: Optional[AdaptiveConfig] = None,
        cat: Optional[CATConfig] = None,
    ) -> None:
        self.name = name
        self.nominal_associativity = associativity
        self.mapper = mapper
        self._policy_factory = (
            _factory_from_name(policy) if isinstance(policy, str) else policy
        )
        self.adaptive = adaptive
        self.cat = cat or CATConfig(supported=True, way_mask=0)
        self._sets: Dict[Tuple[int, int], object] = {}
        self._routes: Dict[int, Tuple[object, int, Optional[str]]] = {}
        self.hits = 0
        self.misses = 0

    # --------------------------------------------------------------- geometry

    @property
    def effective_associativity(self) -> int:
        """Associativity after applying the CAT way mask."""
        return self.cat.effective_associativity(self.nominal_associativity)

    def configure_cat(self, cat: CATConfig) -> None:
        """Install a new CAT configuration; drops all cached set state."""
        cat.effective_associativity(self.nominal_associativity)  # validate
        self.cat = cat
        self._sets.clear()
        self._routes.clear()

    def set_role(self, set_index: int, slice_index: int = 0) -> str:
        """Return ``leader_a`` / ``leader_b`` / ``follower`` / ``fixed`` for a set."""
        if self.adaptive is None:
            return "fixed"
        return self.adaptive.selector.role(set_index, slice_index)

    def _build_set(self, slice_index: int, set_index: int):
        associativity = self.effective_associativity
        if self.adaptive is None:
            return CacheSet(self._policy_factory(associativity))
        role = self.adaptive.selector.role(set_index, slice_index)
        if role == "leader_a":
            return CacheSet(make_policy(self.adaptive.leader_a_policy, associativity))
        if role == "leader_b":
            return CacheSet(make_policy(self.adaptive.leader_b_policy, associativity))
        return _DuelingCacheSet(
            make_policy(self.adaptive.leader_a_policy, associativity),
            make_policy(self.adaptive.leader_b_policy, associativity),
            self.adaptive.controller,
        )

    def set_for(self, slice_index: int, set_index: int):
        """Return (creating if needed) the storage object for one cache set."""
        key = (slice_index, set_index)
        if key not in self._sets:
            self._sets[key] = self._build_set(slice_index, set_index)
        return self._sets[key]

    def _route(self, physical_address: int) -> Tuple[object, int, Optional[str]]:
        """Build and memoize ``(cache set, block id, leader role or None)`` for an address."""
        slice_index, set_index = self.mapper.locate(physical_address)
        role = None
        if self.adaptive is not None:
            role = self.adaptive.selector.role(set_index, slice_index)
            if role == "follower":
                role = None
        route = self._routes[physical_address] = (
            self.set_for(slice_index, set_index),
            self.mapper.block_id(physical_address),
            role,
        )
        return route

    # ---------------------------------------------------------------- actions

    def access(self, physical_address: int) -> str:
        """Access the block containing ``physical_address``; return Hit/Miss."""
        target, block, role = self._routes.get(physical_address) or self._route(physical_address)
        result = target.access(block)
        if result == HIT:
            self.hits += 1
        else:
            self.misses += 1
            if role is not None:
                self.adaptive.controller.record_leader_miss(role)
        return result

    def contains(self, physical_address: int) -> bool:
        """Return whether the block containing ``physical_address`` is cached."""
        target, block, _ = self._routes.get(physical_address) or self._route(physical_address)
        return block in target.content

    def flush(self, physical_address: int) -> bool:
        """Invalidate the block containing ``physical_address`` (``clflush``)."""
        target, block, _ = self._routes.get(physical_address) or self._route(physical_address)
        return target.flush(block)

    def flush_all(self) -> None:
        """Invalidate the entire level (``wbinvd``)."""
        for cache_set in self._sets.values():
            cache_set.flush_all()
        if self.adaptive is not None:
            self.adaptive.controller.reset()

    def reset_statistics(self) -> None:
        """Zero the hit/miss counters."""
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SetAssociativeCache({self.name}, ways={self.nominal_associativity}, "
            f"sets={self.mapper.sets_per_slice}x{self.mapper.slices})"
        )
