"""Hit/miss classification of timed loads.

A profiled load is classified by comparing its latency against a per-level
threshold.  The threshold either comes from the timing model's documented
latencies or — as on real hardware, where latencies must be measured — from
a calibration run that times known hits (an immediately repeated access) and
known misses (a freshly flushed block) and places the threshold between the
two distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Sequence

from repro.cache.cacheset import HIT, MISS
from repro.errors import CacheQueryError
from repro.hardware.cpu import SimulatedCPU

#: The virtual address whose line calibration times as a hit and a miss.
CALIBRATION_ADDRESS = 0x51C0_0000


@dataclass(frozen=True)
class HitMissClassifier:
    """Thresholds a latency measurement into Hit (at or above the target level) or Miss."""

    threshold_cycles: float

    def classify(self, cycles: float) -> str:
        """Return :data:`HIT` when ``cycles`` is below the threshold, else :data:`MISS`."""
        return HIT if cycles < self.threshold_cycles else MISS

    def classify_majority(self, samples: Sequence[float]) -> str:
        """Classify a set of repeated measurements by majority vote."""
        if not samples:
            raise CacheQueryError("cannot classify an empty sample list")
        votes = [self.classify(sample) for sample in samples]
        return HIT if votes.count(HIT) * 2 > len(votes) else MISS


def calibrate_classifier(
    cpu: SimulatedCPU,
    level: str,
    *,
    samples: int = 64,
) -> HitMissClassifier:
    """Measure known hits and misses on ``cpu`` and derive a threshold.

    The calibration accesses one line repeatedly (after warming it into the
    hierarchy) to sample the "hit at or above ``level``" latency, and flushes
    it before each access to sample the miss latency, then places the
    threshold between the two medians.  This mirrors the once-per-machine
    calibration of the real tool and is cross-checked in the tests against
    the analytic threshold of the timing model.
    """
    if samples < 4:
        raise CacheQueryError("calibration needs at least 4 samples")
    hit_samples = []
    cpu.load(CALIBRATION_ADDRESS)
    for _ in range(samples):
        hit_samples.append(cpu.load(CALIBRATION_ADDRESS))
    miss_samples = []
    for _ in range(samples):
        cpu.clflush(CALIBRATION_ADDRESS)
        miss_samples.append(cpu.load(CALIBRATION_ADDRESS))
    hit_latency = median(hit_samples)
    miss_latency = median(miss_samples)
    if hit_latency >= miss_latency:
        raise CacheQueryError(
            "calibration failed: hit latency not below miss latency "
            f"({hit_latency:.1f} vs {miss_latency:.1f})"
        )
    # The analytic threshold for the requested level is more robust than the
    # measured midpoint when the level sits in the middle of the hierarchy
    # (e.g. an L2 hit must not be confused with an L1 hit), so prefer it and
    # fall back to the measured midpoint if the timing model lacks the level.
    try:
        threshold = cpu.timing.hit_threshold(level)
    except Exception:
        threshold = (hit_latency + miss_latency) / 2.0
    return HitMissClassifier(threshold)
