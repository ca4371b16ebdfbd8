"""Performance counters of the simulated CPU.

CacheQuery can profile accesses with performance counters instead of the
time-stamp counter; the simulated CPU keeps per-level demand hit/miss
counters so that both profiling modes are available to the backend and the
tests can cross-check the timing-based classification against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class PerformanceCounters:
    """Simple demand-load counters, per cache level."""

    loads: int = 0
    flushes: int = 0
    level_hits: Dict[str, int] = field(default_factory=dict)
    memory_accesses: int = 0
    prefetches: int = 0

    def record_load(self, hit_level: Optional[str]) -> None:
        """Record one demand load served by ``hit_level`` (None = DRAM)."""
        self.loads += 1
        if hit_level is None:
            self.memory_accesses += 1
        else:
            self.level_hits[hit_level] = self.level_hits.get(hit_level, 0) + 1

    def record_loads(self, served: Dict[Optional[str], int]) -> None:
        """Record demand loads counted per serving level (None = DRAM).

        Books what one :meth:`record_load` per load would, given ``served``
        in the order the levels first served a load.
        """
        for hit_level, count in served.items():
            self.loads += count
            if hit_level is None:
                self.memory_accesses += count
            else:
                self.level_hits[hit_level] = self.level_hits.get(hit_level, 0) + count

    def record_flush(self) -> None:
        """Record one ``clflush``."""
        self.flushes += 1

    def record_prefetch(self) -> None:
        """Record one prefetcher-issued load."""
        self.prefetches += 1

    def snapshot(self) -> Dict[str, int]:
        """Return a flat dictionary of all counters (for reports)."""
        flat = {
            "loads": self.loads,
            "flushes": self.flushes,
            "memory_accesses": self.memory_accesses,
            "prefetches": self.prefetches,
        }
        for level, hits in self.level_hits.items():
            flat[f"{level}_hits"] = hits
        return flat

    def reset(self) -> None:
        """Zero every counter."""
        self.loads = 0
        self.flushes = 0
        self.memory_accesses = 0
        self.prefetches = 0
        self.level_hits.clear()
