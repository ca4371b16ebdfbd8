"""Polca: an abstract interface to the replacement policy of a cache.

Polca (Section 3 of the paper) turns an interface to a *cache* — which
speaks memory blocks and answers Hit/Miss — into an interface to its
*replacement policy* — which speaks cache lines ``Ln(i)`` and eviction
requests ``Evct`` and answers with evicted line indices.  It does so by
tracking the cache content itself and probing the cache to discover which
line each miss evicted (Algorithm 1).

The package contains the faithful algorithm (:mod:`repro.polca.algorithm`),
the cache-interface adapters it runs against (:mod:`repro.polca.interfaces`),
reset-sequence helpers (:mod:`repro.polca.reset`) and the end-to-end learning
function that chains Polca with the learner (:mod:`repro.polca.pipeline`).
"""

from repro.polca.interfaces import (
    CacheProbeInterface,
    SimulatedCacheInterface,
    default_block_names,
)
from repro.polca.algorithm import PolcaMembershipOracle, PolcaStatistics, polca_check_trace
from repro.polca.reset import FlushRefillReset, NoReset, ResetStrategy, SequenceReset
from repro.polca.pipeline import PolicyLearningReport, learn_policy_from_cache

__all__ = [
    "CacheProbeInterface",
    "SimulatedCacheInterface",
    "default_block_names",
    "PolcaMembershipOracle",
    "PolcaStatistics",
    "polca_check_trace",
    "FlushRefillReset",
    "NoReset",
    "ResetStrategy",
    "SequenceReset",
    "PolicyLearningReport",
    "learn_policy_from_cache",
]
