"""Appendix B: detecting leader sets and adaptive behaviour on the L3.

Three observations are reproduced on the simulated Skylake/Kaby Lake L3:

1. **Thrashing detection** — a thrashing access pattern (working set one
   block larger than the associativity) produces a high miss rate on the
   fixed, thrash-vulnerable leader sets (the New2 sets) and a lower miss
   rate on the thrash-resistant leader group and on followers that have
   adapted.  Classifying sets by probe miss rate recovers the leader group.

2. **Leader-set formula** — the detected group-A sets satisfy the index
   formula ``(((set & 0x3e0) >> 5) ^ (set & 0x1f)) == 0 and (set & 0x2) == 0``
   reported in the paper.

3. **Cross-set adaptivity** — heavily thrashing the leader sets drives the
   global PSEL counter so that *follower* sets become thrash-resistant,
   which is the paper's observation that leaders influence followers across
   the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.adaptive import AdaptiveSetSelector
from repro.cachequery.backend import BackendConfig
from repro.cachequery.frontend import CacheQuery, CacheQueryConfig
from repro.errors import ReproError
from repro.hardware.cpu import SimulatedCPU
from repro.hardware.profiles import SKYLAKE_I5_6500, CPUProfile
from repro.hardware.timing import NoiseModel


@dataclass
class LeaderSetDetection:
    """Outcome of the thrashing scan over a range of set indexes."""

    scanned_sets: Tuple[int, ...]
    miss_rates: Dict[int, float]
    detected_leaders: Tuple[int, ...]
    formula_leaders: Tuple[int, ...]

    @property
    def formula_agreement(self) -> float:
        """Fraction of scanned sets whose classification matches the formula."""
        if not self.scanned_sets:
            return 1.0
        detected = set(self.detected_leaders)
        formula = set(self.formula_leaders)
        agree = sum(
            1 for s in self.scanned_sets if (s in detected) == (s in formula)
        )
        return agree / len(self.scanned_sets)


def _thrash_expression(associativity: int, blocks: Sequence[str], rounds: int = 4) -> str:
    """A thrashing pattern: cycle a working set of associativity + 1 blocks, then probe."""
    working_set = " ".join(blocks[: associativity + 1])
    probe = blocks[0]
    return f"({working_set}){rounds} {probe}?"


def thrash_miss_rate(
    frontend: CacheQuery,
    *,
    repetitions: int = 8,
    rounds: int = 4,
) -> float:
    """Return the probe miss rate of the thrashing pattern on the current set."""
    expression = _thrash_expression(frontend.associativity, frontend.blocks, rounds)
    misses = 0
    for _ in range(repetitions):
        outcome = frontend.query(expression)
        if outcome and outcome[0] and outcome[0][0] == "Miss":
            misses += 1
    return misses / repetitions


def detect_leader_sets(
    *,
    profile: Optional[CPUProfile] = None,
    set_indexes: Optional[Sequence[int]] = None,
    cat_ways: int = 4,
    miss_rate_threshold: float = 0.6,
    repetitions: int = 6,
) -> LeaderSetDetection:
    """Scan L3 sets with a thrashing query and classify them as leaders/followers."""
    base_profile = profile if profile is not None else SKYLAKE_I5_6500
    spec = base_profile.level("L3")
    selector = spec.adaptive.selector() if spec.adaptive is not None else AdaptiveSetSelector()
    if set_indexes is None:
        set_indexes = range(0, 128)
    set_indexes = tuple(set_indexes)
    if not set_indexes:
        raise ReproError("detect_leader_sets needs at least one set index to scan")

    cpu = SimulatedCPU(base_profile, noise=NoiseModel(std=0.0))
    if spec.supports_cat and cat_ways < spec.associativity:
        cpu.configure_cat("L3", cat_ways)
    frontend = CacheQuery(
        cpu,
        CacheQueryConfig(
            level="L3", set_index=set_indexes[0], use_cache=False,
            backend=BackendConfig(repetitions=1),
        ),
    )
    miss_rates: Dict[int, float] = {}
    for set_index in set_indexes:
        frontend.configure(set_index=set_index)
        miss_rates[set_index] = thrash_miss_rate(frontend, repetitions=repetitions)
    detected = tuple(
        set_index
        for set_index in set_indexes
        if miss_rates[set_index] >= miss_rate_threshold
    )
    formula = tuple(
        set_index for set_index in set_indexes if selector.role(set_index) == "leader_a"
    )
    return LeaderSetDetection(
        scanned_sets=set_indexes,
        miss_rates=miss_rates,
        detected_leaders=detected,
        formula_leaders=formula,
    )


def leader_set_formula_check(total_sets: int = 1024) -> List[int]:
    """Return the group-A leader sets predicted by the Skylake/Kaby Lake formula."""
    selector = AdaptiveSetSelector(scheme="skylake")
    return selector.leader_a_sets(total_sets)


@dataclass
class AdaptivityResult:
    """Follower behaviour before and after thrashing the leader sets."""

    follower_set: int
    miss_rate_before: float
    miss_rate_after: float

    @property
    def became_resistant(self) -> bool:
        """True when thrashing the leaders made the follower thrash-resistant."""
        return self.miss_rate_after < self.miss_rate_before


def follower_adaptivity(
    *,
    profile: Optional[CPUProfile] = None,
    cat_ways: int = 4,
    leader_pressure_rounds: int = 400,
) -> AdaptivityResult:
    """Show that thrashing the leader sets flips the follower sets' behaviour."""
    base_profile = profile if profile is not None else SKYLAKE_I5_6500
    spec = base_profile.level("L3")
    selector = spec.adaptive.selector()
    leader_sets = [s for s in range(spec.sets_per_slice) if selector.role(s) == "leader_a"][:4]
    follower_set = next(
        s for s in range(spec.sets_per_slice) if selector.role(s) == "follower"
    )

    cpu = SimulatedCPU(base_profile, noise=NoiseModel(std=0.0))
    if spec.supports_cat and cat_ways < spec.associativity:
        cpu.configure_cat("L3", cat_ways)
    frontend = CacheQuery(
        cpu,
        CacheQueryConfig(
            level="L3", set_index=follower_set, use_cache=False,
            backend=BackendConfig(repetitions=1),
        ),
    )
    before = thrash_miss_rate(frontend, repetitions=4)

    # Thrash the leader sets so group A accumulates misses and PSEL flips the
    # followers towards the thrash-resistant leader-B policy.
    thrash = _thrash_expression(frontend.associativity, frontend.blocks, rounds=2)
    for _ in range(leader_pressure_rounds // max(1, len(leader_sets))):
        for leader in leader_sets:
            frontend.configure(set_index=leader)
            frontend.query(thrash)
    frontend.configure(set_index=follower_set)
    after = thrash_miss_rate(frontend, repetitions=4)
    return AdaptivityResult(
        follower_set=follower_set, miss_rate_before=before, miss_rate_after=after
    )
