"""The simulated CPU: memory hierarchy + timing + prefetcher + V2P mapping.

:class:`SimulatedCPU` is the object the CacheQuery backend drives.  It only
exposes what user- or kernel-mode measurement code could use on real
hardware:

* ``load(virtual_address)`` — perform a load and return its (noisy) latency
  in cycles;
* ``clflush(virtual_address)`` / ``wbinvd()`` — invalidate one line / all
  caches;
* ``translate(virtual_address)`` — the virtual→physical mapping (available
  to the backend because, like the paper's tool, it runs as a kernel
  module);
* knobs for the prefetcher and for CAT way masks.

The virtual→physical mapping is a deterministic pseudo-random page
permutation, so contiguous virtual buffers are scattered over physical page
frames — the reason the backend cannot simply use virtual addresses to pick
congruent blocks for L2/L3 and has to translate, exactly as on Linux.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.cache import AdaptiveConfig
from repro.cache.cat import CATConfig
from repro.cache.hierarchy import CacheHierarchy, CacheLevelConfig
from repro.errors import CacheError
from repro.hardware.perfcounters import PerformanceCounters
from repro.hardware.prefetcher import NextLinePrefetcher
from repro.hardware.profiles import CPUProfile
from repro.hardware.timing import NoiseModel, TimingModel

PAGE_SIZE = 4096
_PAGE_MIX_PRIME = 0x9E3779B97F4A7C15


class SimulatedCPU:
    """A small, deterministic model of one core plus its cache hierarchy."""

    def __init__(
        self,
        profile: CPUProfile,
        *,
        noise: Optional[NoiseModel] = None,
        physical_pages: int = 1 << 18,
    ) -> None:
        self.profile = profile
        self.physical_pages = physical_pages
        self.hierarchy = self._build_hierarchy(profile)
        self.timing = TimingModel(
            {spec.name: spec.hit_latency for spec in profile.levels},
            profile.memory_latency,
            noise if noise is not None else NoiseModel(std=profile.noise_std),
        )
        self.prefetcher = NextLinePrefetcher()
        self.counters = PerformanceCounters()
        self._page_table: Dict[int, int] = {}
        self._used_frames: Dict[int, int] = {}

    # ------------------------------------------------------------- construction

    @staticmethod
    def _build_hierarchy(profile: CPUProfile) -> CacheHierarchy:
        configs: List[CacheLevelConfig] = []
        for spec in profile.levels:
            adaptive = None
            if spec.adaptive is not None:
                adaptive = AdaptiveConfig(
                    selector=spec.adaptive.selector(),
                    leader_a_policy=spec.adaptive.leader_a_policy,
                    leader_b_policy=spec.adaptive.leader_b_policy,
                )
            configs.append(
                CacheLevelConfig(
                    name=spec.name,
                    associativity=spec.associativity,
                    sets_per_slice=spec.sets_per_slice,
                    slices=spec.slices,
                    hit_latency=spec.hit_latency,
                    policy=spec.policy,
                    adaptive=adaptive,
                    supports_cat=spec.supports_cat,
                )
            )
        return CacheHierarchy(configs, memory_latency=profile.memory_latency)

    # ------------------------------------------------------------- translation

    def translate(self, virtual_address: int) -> int:
        """Return the physical address backing ``virtual_address``.

        Pages are assigned lazily with a deterministic pseudo-random
        permutation seeded by the profile, mimicking the scattered physical
        layout of a freshly allocated user buffer.
        """
        if virtual_address < 0:
            raise CacheError(f"negative virtual address {virtual_address:#x}")
        page = virtual_address // PAGE_SIZE
        offset = virtual_address % PAGE_SIZE
        frame = self._page_table.get(page)
        if frame is None:
            frame = self._pick_frame(page)
            self._page_table[page] = frame
            self._used_frames[frame] = page
        return frame * PAGE_SIZE + offset

    def _pick_frame(self, page: int) -> int:
        candidate = ((page + 1) * _PAGE_MIX_PRIME ^ self.profile.v2p_seed) % self.physical_pages
        for attempt in range(self.physical_pages):
            frame = (candidate + attempt) % self.physical_pages
            if frame not in self._used_frames:
                return frame
        raise CacheError("physical memory exhausted in the simulated CPU")

    # ----------------------------------------------------------------- actions

    def load(self, virtual_address: int) -> float:
        """Execute one load; return its measured latency in cycles."""
        physical = self.translate(virtual_address)
        latency = self.load_physical(physical)
        prefetch_target = self.prefetcher.observe(physical)
        if prefetch_target is not None:
            # Prefetches fill the hierarchy but are neither timed nor counted
            # as loads, so they draw no noise sample.
            self.hierarchy.load_level(prefetch_target)
            self.counters.record_prefetch()
        return latency

    def load_physical(self, physical_address: int) -> float:
        """Execute one load given a physical address (backend-internal use)."""
        hit_level = self.hierarchy.load_level(physical_address)
        self.counters.record_load(hit_level)
        return self.timing.latency(hit_level)

    def probe_level(self, virtual_address: int) -> Optional[str]:
        """Return the closest level currently holding the address (no side effects)."""
        return self.hierarchy.peek(self.translate(virtual_address))

    def clflush(self, virtual_address: int) -> None:
        """Invalidate the line containing ``virtual_address`` in every level."""
        self.hierarchy.clflush(self.translate(virtual_address))
        self.counters.record_flush()

    def clflush_physical(self, physical_address: int) -> None:
        """Invalidate the line containing a physical address (backend-internal use)."""
        self.hierarchy.clflush(physical_address)
        self.counters.record_flush()

    def wbinvd(self) -> None:
        """Invalidate all caches."""
        self.hierarchy.wbinvd()

    # ------------------------------------------------------------------- knobs

    def set_prefetcher(self, enabled: bool) -> None:
        """Enable or disable the hardware prefetcher (MSR 0x1A4 on real CPUs)."""
        self.prefetcher.enabled = enabled
        if not enabled:
            self.prefetcher.reset()

    def configure_cat(self, level: str, ways: int) -> None:
        """Restrict allocation in ``level`` to ``ways`` ways via a CAT mask."""
        spec = self.profile.level(level)
        if not spec.supports_cat:
            raise CacheError(f"{self.profile.name} does not support CAT on {level}")
        self.hierarchy.level(level).configure_cat(CATConfig.reduce_to(ways))

    def clear_cat(self, level: str) -> None:
        """Remove any CAT restriction on ``level``."""
        self.hierarchy.level(level).configure_cat(CATConfig(supported=True, way_mask=0))

    def effective_associativity(self, level: str) -> int:
        """Return the associativity visible to allocations in ``level``."""
        return self.hierarchy.level(level).effective_associativity

    # ------------------------------------------------------------------ helpers

    def level_geometry(self, level: str) -> Tuple[int, int, int]:
        """Return ``(associativity, slices, sets_per_slice)`` for ``level``."""
        spec = self.profile.level(level)
        return spec.associativity, spec.slices, spec.sets_per_slice

    def reset_measurement_state(self) -> None:
        """Flush all caches, reset counters and the prefetcher history."""
        self.wbinvd()
        self.counters.reset()
        self.prefetcher.reset()
