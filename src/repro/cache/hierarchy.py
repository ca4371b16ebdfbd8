"""A multi-level cache hierarchy (L1 → L2 → L3 → DRAM).

The hierarchy reproduces the behaviour that makes querying a low-level cache
hard (Section 4.3 "Cache Filtering"): a load that hits in L1 never reaches
L2 or L3, so their replacement state is not exercised.  CacheQuery's backend
works around this by evicting blocks from the higher levels through
non-interfering eviction sets; the hierarchy here is what makes that
workaround necessary and observable.

Lookup semantics are kept simple but structurally faithful:

* levels are checked in order; the first hit determines the latency;
* on a hit at level *k*, the block is also filled into all levels above *k*
  (mostly-inclusive behaviour, as on the modelled Intel parts);
* on a full miss, the block is filled into every level and DRAM latency is
  charged;
* ``clflush`` invalidates the block in every level.

Every physical address is routed once, on first touch: its route holds,
per level, the level, its cache set, the block id and the set's leader role
(or ``None``), each decided by ``SetAssociativeCache.route``, which keeps
no copy.  Loads, the untimed bulk loop (:meth:`CacheHierarchy.load_untimed`,
one call for a whole run of loads) and ``peek`` then cost one dict lookup
per address and one cache-set call per level visited; ``clflush`` calls a
set only when it holds the block.  A CAT change rebuilds a level's sets in
place, so a route never names a set the change replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.addressing import AddressMapper
from repro.cache.cache import AdaptiveConfig, SetAssociativeCache
from repro.cache.cacheset import HIT
from repro.cache.cat import CATConfig
from repro.errors import CacheError


#: One level of an address's route: (level, cache set, block id, leader role or None).
_LevelRoute = Tuple[SetAssociativeCache, object, int, Optional[str]]


@dataclass
class CacheLevelConfig:
    """Static description of one cache level.

    ``policy`` is a registered policy name; ``hit_latency`` is in core cycles
    and is used by the hardware timing model.
    """

    name: str
    associativity: int
    sets_per_slice: int
    slices: int = 1
    hit_latency: int = 4
    policy: str = "LRU"
    adaptive: Optional[AdaptiveConfig] = None
    cat: Optional[CATConfig] = None
    supports_cat: bool = True

    def build(self) -> SetAssociativeCache:
        """Instantiate the cache level described by this configuration."""
        mapper = AddressMapper(self.sets_per_slice, self.slices)
        cat = self.cat if self.cat is not None else CATConfig(supported=self.supports_cat)
        return SetAssociativeCache(
            self.name,
            self.associativity,
            mapper,
            self.policy,
            adaptive=self.adaptive,
            cat=cat,
        )


@dataclass
class AccessResult:
    """Outcome of one load through the hierarchy: where it hit and its noise-free latency.

    ``hit_level`` is ``None`` when the load was served by DRAM.  Callers that
    only need the level use :meth:`CacheHierarchy.load_level`, which builds
    no result object.
    """

    address: int
    hit_level: Optional[str]
    latency: int


class CacheHierarchy:
    """An ordered stack of cache levels in front of DRAM."""

    def __init__(
        self,
        level_configs: Sequence[CacheLevelConfig],
        *,
        memory_latency: int = 230,
    ) -> None:
        if not level_configs:
            raise CacheError("a hierarchy needs at least one cache level")
        self.configs = list(level_configs)
        self.levels: List[SetAssociativeCache] = [config.build() for config in self.configs]
        self.memory_latency = memory_latency
        self._latency: Dict[str, int] = {
            config.name: config.hit_latency for config in self.configs
        }
        self._routes: Dict[int, Tuple[_LevelRoute, ...]] = {}

    # ----------------------------------------------------------------- lookup

    def level(self, name: str) -> SetAssociativeCache:
        """Return the cache level called ``name`` (e.g. ``"L2"``)."""
        for cache in self.levels:
            if cache.name == name:
                return cache
        raise CacheError(f"unknown cache level {name!r}")

    def level_names(self) -> Tuple[str, ...]:
        """Return the level names from closest to the core outwards."""
        return tuple(cache.name for cache in self.levels)

    def _route(self, physical_address: int) -> Tuple[_LevelRoute, ...]:
        """Build and memoize the per-level route of an address."""
        route = self._routes[physical_address] = tuple(
            (cache,) + cache.route(physical_address) for cache in self.levels
        )
        return route

    def load_level(self, physical_address: int) -> Optional[str]:
        """Perform one load; return the level it hit in, or ``None`` for DRAM.

        Each level missed on the way allocates the block, so a full miss
        leaves it filled everywhere.
        """
        route = self._routes.get(physical_address) or self._route(physical_address)
        for cache, target, block, role in route:
            if target.access(block) == HIT:
                cache.hits += 1
                return cache.name
            cache.misses += 1
            if role is not None:
                cache.adaptive.controller.record_leader_miss(role)
        return None

    def load_untimed(self, physical_addresses: Sequence[int]) -> Dict[Optional[str], int]:
        """Perform one load per address, in order; count the loads each level served.

        Every cache set, statistic and PSEL counter ends as after one
        :meth:`load_level` per address.  The counts are keyed by level name
        (``None`` for DRAM), in the order each level first served a load.
        """
        routes = self._routes
        served: Dict[Optional[str], int] = {}
        for address in physical_addresses:
            name = None
            for cache, target, block, role in routes.get(address) or self._route(address):
                if target.access(block) == HIT:
                    cache.hits += 1
                    name = cache.name
                    break
                cache.misses += 1
                if role is not None:
                    cache.adaptive.controller.record_leader_miss(role)
            served[name] = served.get(name, 0) + 1
        return served

    def load(self, physical_address: int) -> AccessResult:
        """Perform one load; return where it hit and the latency charged."""
        hit_level = self.load_level(physical_address)
        latency = self.memory_latency if hit_level is None else self._latency[hit_level]
        return AccessResult(physical_address, hit_level, latency)

    def peek(self, physical_address: int) -> Optional[str]:
        """Return the closest level containing the address, without side effects."""
        route = self._routes.get(physical_address) or self._route(physical_address)
        for cache, target, block, _ in route:
            if block in target.content:
                return cache.name
        return None

    # ---------------------------------------------------------------- flushes

    def clflush(self, physical_address: int) -> None:
        """Invalidate the block containing ``physical_address`` in every level."""
        route = self._routes.get(physical_address) or self._route(physical_address)
        for _, target, block, _ in route:
            if block in target.content:
                target.flush(block)

    def wbinvd(self) -> None:
        """Invalidate every cache level entirely."""
        for cache in self.levels:
            cache.flush_all()

    # ------------------------------------------------------------------ stats

    def reset_statistics(self) -> None:
        """Zero the hit/miss counters of every level."""
        for cache in self.levels:
            cache.reset_statistics()

    def statistics(self) -> Dict[str, Tuple[int, int]]:
        """Return ``{level: (hits, misses)}``."""
        return {cache.name: (cache.hits, cache.misses) for cache in self.levels}
