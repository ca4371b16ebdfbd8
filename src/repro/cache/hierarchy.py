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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.addressing import AddressMapper
from repro.cache.cache import AdaptiveConfig, SetAssociativeCache
from repro.cache.cacheset import HIT
from repro.cache.cat import CATConfig
from repro.errors import CacheError


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

    def load_level(self, physical_address: int) -> Optional[str]:
        """Perform one load; return the level it hit in, or ``None`` for DRAM.

        Each level missed on the way allocates the block, so a full miss
        leaves it filled everywhere.
        """
        for cache in self.levels:
            if cache.access(physical_address) == HIT:
                return cache.name
        return None

    def load(self, physical_address: int) -> AccessResult:
        """Perform one load; return where it hit and the latency charged."""
        hit_level = self.load_level(physical_address)
        latency = self.memory_latency if hit_level is None else self._latency[hit_level]
        return AccessResult(physical_address, hit_level, latency)

    def peek(self, physical_address: int) -> Optional[str]:
        """Return the closest level containing the address, without side effects."""
        for cache in self.levels:
            if cache.contains(physical_address):
                return cache.name
        return None

    # ---------------------------------------------------------------- flushes

    def clflush(self, physical_address: int) -> None:
        """Invalidate the block containing ``physical_address`` in every level."""
        for cache in self.levels:
            cache.flush(physical_address)

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
