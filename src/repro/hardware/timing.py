"""Timing and measurement-noise model.

On real hardware CacheQuery classifies each profiled load as a hit or a miss
from its latency (``rdtsc`` cycles or performance counters).  The simulated
CPUs reproduce the essential structure of those measurements: every level
has a base latency, and each measurement is perturbed by additive noise
drawn from a seeded Gaussian (plus occasional larger outliers standing in
for interrupts / TLB misses).  The classification layer then has to recover
the hit/miss signal by thresholding and repetition, exactly as the real
backend does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import CacheError

#: Largest extra latency, in cycles, of one measurement outlier.
OUTLIER_MAGNITUDE = 200.0


@dataclass
class NoiseModel:
    """Additive measurement noise: Gaussian jitter plus rare positive outliers."""

    std: float = 2.0
    outlier_probability: float = 0.002
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.std < 0:
            raise CacheError(f"noise std must be non-negative, got {self.std}")
        if self.std == 0:
            # std == 0 means "noise-free measurements" (used by deterministic
            # experiments and tests); outliers are disabled as well.
            self.outlier_probability = 0.0
        self._random = random.Random(self.seed)

    def sample(self) -> float:
        """Return one noise sample in cycles (can be negative for jitter)."""
        noise = self._random.gauss(0.0, self.std) if self.std > 0 else 0.0
        if self.outlier_probability > 0 and self._random.random() < self.outlier_probability:
            noise += OUTLIER_MAGNITUDE * self._random.random()
        return noise

    def skip(self, count: int) -> None:
        """Draw and drop ``count`` samples, for loads whose latency nobody reads.

        The stream ends where ``count`` calls of :meth:`sample` would leave
        it, so skipping instead of sampling changes no later measurement;
        when :meth:`sample` draws nothing (noise-free), neither does this.
        """
        if self.std > 0 or self.outlier_probability > 0:
            for _ in range(count):
                self.sample()

    def reseed(self, seed: int) -> None:
        """Restart the noise stream from ``seed`` (for reproducible experiments)."""
        self.seed = seed
        self._random = random.Random(seed)


class TimingModel:
    """Per-level load latencies plus measurement noise."""

    def __init__(
        self,
        level_latencies: Dict[str, int],
        memory_latency: int,
        noise: Optional[NoiseModel] = None,
    ) -> None:
        if memory_latency <= max(level_latencies.values(), default=0):
            raise CacheError("memory latency must exceed every cache hit latency")
        self.level_latencies = dict(level_latencies)
        self.memory_latency = memory_latency
        self.noise = noise if noise is not None else NoiseModel()

    def latency(self, hit_level: Optional[str]) -> float:
        """Return a noisy latency for a load served by ``hit_level`` (None = DRAM)."""
        base = self.memory_latency if hit_level is None else self.level_latencies[hit_level]
        return max(1.0, base + self.noise.sample())

    def base_latency(self, hit_level: Optional[str]) -> int:
        """Return the noise-free latency for a load served by ``hit_level``."""
        return self.memory_latency if hit_level is None else self.level_latencies[hit_level]

    def hit_threshold(self, level: str) -> float:
        """Return a cycle threshold separating "hit in ``level`` or closer" from slower loads.

        The threshold is the midpoint between the level's own latency and the
        latency of the next slower level (or DRAM), the same calibration the
        real tool performs once per machine.
        """
        if level not in self.level_latencies:
            raise CacheError(f"unknown cache level {level!r}")
        own = self.level_latencies[level]
        slower = [value for value in self.level_latencies.values() if value > own]
        next_latency = min(slower) if slower else self.memory_latency
        return (own + next_latency) / 2.0
