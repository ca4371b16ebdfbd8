"""CPU profiles: the cache geometries of Table 3 plus the discovered policies.

Each profile records, for every cache level, the associativity, slice count,
sets per slice, hit latency and — crucially — the replacement policy the
paper eventually discovered on that level (PLRU on the L1s and Haswell's L2,
New1 on Skylake/Kaby Lake L2, New2 on the L3 leader sets with the adaptive
set-dueling mechanism around it).  The simulated CPUs are built from these
profiles, so the learning experiments of Section 7 must re-discover exactly
these policies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.cache.adaptive import AdaptiveSetSelector
from repro.errors import CacheError


@dataclass(frozen=True)
class AdaptiveSpec:
    """Static description of an adaptive (set-dueling) cache level."""

    scheme: str
    leader_a_policy: str
    leader_b_policy: str

    def selector(self) -> AdaptiveSetSelector:
        """Return the set selector implementing this scheme."""
        return AdaptiveSetSelector(scheme=self.scheme)


@dataclass(frozen=True)
class CacheLevelSpec:
    """Geometry and policy of one cache level of a CPU profile."""

    name: str
    associativity: int
    slices: int
    sets_per_slice: int
    hit_latency: int
    policy: str
    adaptive: Optional[AdaptiveSpec] = None
    supports_cat: bool = True

    @property
    def total_sets(self) -> int:
        """Total number of sets across all slices."""
        return self.sets_per_slice * self.slices

    @property
    def size_bytes(self) -> int:
        """Cache capacity in bytes (64-byte lines)."""
        return self.total_sets * self.associativity * 64


@dataclass(frozen=True)
class CPUProfile:
    """A complete simulated-CPU description."""

    name: str
    microarchitecture: str
    levels: Tuple[CacheLevelSpec, ...]
    memory_latency: int = 230
    noise_std: float = 2.0
    v2p_seed: int = 0xC0FFEE

    def level(self, name: str) -> CacheLevelSpec:
        """Return the level spec called ``name`` (e.g. ``"L2"``)."""
        for spec in self.levels:
            if spec.name == name:
                return spec
        raise CacheError(f"{self.name} has no cache level {name!r}")

    def with_level(self, name: str, **changes) -> "CPUProfile":
        """Return a copy of the profile with one level's fields replaced.

        Used by the fast benchmark profiles, e.g. to shrink an associativity
        while keeping the rest of the machine identical.
        """
        new_levels = tuple(
            replace(spec, **changes) if spec.name == name else spec for spec in self.levels
        )
        return replace(self, levels=new_levels)


_L1_LATENCY = 4
_L2_LATENCY = 12
_L3_LATENCY = 42

HASWELL_I7_4790 = CPUProfile(
    name="i7-4790",
    microarchitecture="Haswell",
    levels=(
        CacheLevelSpec("L1", 8, 1, 64, _L1_LATENCY, "PLRU"),
        CacheLevelSpec("L2", 8, 1, 512, _L2_LATENCY, "PLRU"),
        CacheLevelSpec(
            "L3",
            16,
            4,
            2048,
            _L3_LATENCY,
            "NEW2",
            adaptive=AdaptiveSpec("haswell", "NEW2", "BRRIP-HP"),
            supports_cat=False,
        ),
    ),
)

SKYLAKE_I5_6500 = CPUProfile(
    name="i5-6500",
    microarchitecture="Skylake",
    levels=(
        CacheLevelSpec("L1", 8, 1, 64, _L1_LATENCY, "PLRU"),
        CacheLevelSpec("L2", 4, 1, 1024, _L2_LATENCY, "NEW1"),
        CacheLevelSpec(
            "L3",
            12,
            8,
            1024,
            _L3_LATENCY,
            "NEW2",
            adaptive=AdaptiveSpec("skylake", "NEW2", "BRRIP-HP"),
            supports_cat=True,
        ),
    ),
)

KABY_LAKE_I7_8550U = CPUProfile(
    name="i7-8550U",
    microarchitecture="Kaby Lake",
    levels=(
        CacheLevelSpec("L1", 8, 1, 64, _L1_LATENCY, "PLRU"),
        CacheLevelSpec("L2", 4, 1, 1024, _L2_LATENCY, "NEW1"),
        CacheLevelSpec(
            "L3",
            16,
            8,
            1024,
            _L3_LATENCY,
            "NEW2",
            adaptive=AdaptiveSpec("skylake", "NEW2", "BRRIP-HP"),
            supports_cat=True,
        ),
    ),
)

_PROFILES: Dict[str, CPUProfile] = {
    "i7-4790": HASWELL_I7_4790,
    "haswell": HASWELL_I7_4790,
    "i5-6500": SKYLAKE_I5_6500,
    "skylake": SKYLAKE_I5_6500,
    "i7-8550u": KABY_LAKE_I7_8550U,
    "kaby lake": KABY_LAKE_I7_8550U,
    "kabylake": KABY_LAKE_I7_8550U,
}


def cpu_profile(name: str) -> CPUProfile:
    """Return a known CPU profile by model number or microarchitecture name."""
    try:
        return _PROFILES[name.lower()]
    except KeyError:
        known = ", ".join(sorted({profile.name for profile in _PROFILES.values()}))
        raise CacheError(f"unknown CPU profile {name!r}; known profiles: {known}") from None


def known_profiles() -> Tuple[CPUProfile, ...]:
    """Return the three CPU profiles of Table 3."""
    return (HASWELL_I7_4790, SKYLAKE_I5_6500, KABY_LAKE_I7_8550U)
