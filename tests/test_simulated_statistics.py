"""Exactness of the simulated CPU's load paths and of Table 4's simulated statistics.

Loads whose latency nobody reads (the CacheQuery backend's eviction sets)
go through :meth:`SimulatedCPU.load_untimed`; each test here drives a twin
CPU through :meth:`SimulatedCPU.load_physical`, one address at a time, and
requires every simulated statistic to come out the same: hierarchy and
performance counters, PSEL values, every cache set's content and policy
state, and the noise stream.  The Table 4 fast targets are pinned to values
recorded when every load of the sweep took the timed path.
"""

import dataclasses
import hashlib
import random

import pytest

import repro.experiments.table4 as table4_module
from repro.cache.cacheset import HIT, CacheSet
from repro.cachequery.backend import CacheQueryBackend
from repro.cachequery.frontend import CacheQuery
from repro.experiments.table4 import run_table4_configuration, table4_configurations
from repro.hardware.cpu import SimulatedCPU
from repro.hardware.profiles import cpu_profile
from repro.hardware.timing import NoiseModel


def _set_state(cache_set):
    if isinstance(cache_set, CacheSet):
        return tuple(cache_set.content), cache_set.policy_state
    return tuple(cache_set.content), cache_set._state_a, cache_set._state_b


def simulated_state(cpu):
    """Everything a load can change in ``cpu``, as comparable values.

    Sets holding no block are left out: an empty set is in its initial
    policy state, so leaving it out loses nothing.
    """
    levels = cpu.hierarchy.levels
    return {
        "statistics": tuple(cpu.hierarchy.statistics().items()),
        "counters": tuple(cpu.counters.snapshot().items()),
        "psel": tuple(
            (cache.name, cache.adaptive.controller.value)
            for cache in levels
            if cache.adaptive is not None
        ),
        "sets": tuple(
            (cache.name, key, _set_state(cache_set))
            for cache in levels
            for key, cache_set in sorted(cache._sets.items())
            if any(block is not None for block in cache_set.content)
        ),
        "noise": cpu.timing.noise._random.getstate(),
    }


# ------------------------------------------------------ untimed vs timed loads


def _twins(profile_name, noise_std):
    return tuple(
        SimulatedCPU(cpu_profile(profile_name), noise=NoiseModel(std=noise_std))
        for _ in range(2)
    )


def _skylake_l3_eviction_stream(seed, length=400):
    """Seeded eviction-set loads for a Skylake L3 leader-set target, plus
    random addresses congruent in that L3 set and in one L1 set."""
    cpu = SimulatedCPU(cpu_profile("skylake"), noise=NoiseModel(std=0.0))
    backend = CacheQueryBackend(cpu)
    backend.configure_target("L3", 0)
    pool = [backend.block_address(block) for block in backend.pool_blocks()]
    eviction_sets = [
        backend._eviction_addresses(address, level)
        for address in pool
        for level in ("L1", "L2")
    ]
    congruent = pool + cpu.hierarchy.level("L1").mapper.congruent_addresses(5, 0, 12)
    rng = random.Random(seed)
    stream = []
    while len(stream) < length:
        if rng.random() < 0.6:
            stream.append(list(rng.choice(eviction_sets)))
        else:
            stream.append([rng.choice(congruent) for _ in range(rng.randint(1, 6))])
    return stream


@pytest.mark.parametrize("noise_std", [0.0, 2.0])
@pytest.mark.parametrize("seed", [11, 12])
def test_untimed_loads_match_timed_loads(seed, noise_std):
    timed, untimed = _twins("skylake", noise_std)
    stream = _skylake_l3_eviction_stream(seed)
    for chunk in stream:
        for address in chunk:
            timed.load_physical(address)
        untimed.load_untimed(chunk)
    assert simulated_state(untimed) == simulated_state(timed)
    assert untimed.counters.loads == sum(map(len, stream))


@pytest.mark.parametrize("noise_std", [0.0, 2.0])
def test_untimed_loads_interleave_with_peeks_flushes_and_timed_loads(noise_std):
    # Kaby Lake's L3 has Skylake's sets and slices, so the stream stays congruent.
    timed, untimed = _twins("kabylake", noise_std)
    rng = random.Random(7)
    for chunk in _skylake_l3_eviction_stream(13, length=300):
        for address in chunk:
            timed.load_physical(address)
        untimed.load_untimed(chunk)
        probe = rng.choice(chunk)
        assert untimed.hierarchy.peek(probe) == timed.hierarchy.peek(probe)
        if rng.random() < 0.2:
            timed.clflush_physical(probe)
            untimed.clflush_physical(probe)
        if rng.random() < 0.3:
            assert untimed.load_physical(probe) == timed.load_physical(probe)
    assert simulated_state(untimed) == simulated_state(timed)


def _reference_load(cpu, address):
    """One load stepped level by level through ``SetAssociativeCache.access``,
    booked like ``load_physical`` (latency and noise included)."""
    hit_level = None
    for cache in cpu.hierarchy.levels:
        if cache.access(address) == HIT:
            hit_level = cache.name
            break
    cpu.counters.record_load(hit_level)
    cpu.timing.latency(hit_level)


@pytest.mark.parametrize("noise_std", [0.0, 2.0])
def test_untimed_loads_follow_cat_changes(noise_std):
    """A CAT change halfway through (and its removal later) reaches every
    load: no untimed load touches a set the change reset."""
    reference, untimed = _twins("skylake", noise_std)
    stream = _skylake_l3_eviction_stream(14)
    for index, chunk in enumerate(stream):
        if index == len(stream) // 2:
            reference.configure_cat("L3", 2)
            untimed.configure_cat("L3", 2)
        if index == 3 * len(stream) // 4:
            reference.clear_cat("L3")
            untimed.clear_cat("L3")
        for address in chunk:
            _reference_load(reference, address)
        untimed.load_untimed(chunk)
        assert untimed.effective_associativity("L3") == reference.effective_associativity("L3")
    assert simulated_state(untimed) == simulated_state(reference)


def test_noise_skip_draws_what_sample_draws():
    for std in (0.0, 2.0):
        sampled, skipped = NoiseModel(std=std, seed=5), NoiseModel(std=std, seed=5)
        for _ in range(500):
            sampled.sample()
        skipped.skip(500)
        assert skipped._random.getstate() == sampled._random.getstate()
        assert skipped.sample() == sampled.sample()


# ------------------------------------------------ Table 4's simulated statistics

FAST_TARGETS = [c for c in table4_configurations("fast") if c.learnable]


def _recorded(factory, sink):
    def build(*args, **kwargs):
        instance = factory(*args, **kwargs)
        sink.append(instance)
        return instance

    return build


def table4_fingerprint(monkeypatch, configuration, **options):
    """Run one Table 4 target; return its backend's executed queries and
    loads, plus a digest of its row (every field but ``seconds``) and of
    every simulated statistic of its CPU."""
    cpus, frontends = [], []
    monkeypatch.setattr(table4_module, "SimulatedCPU", _recorded(SimulatedCPU, cpus))
    monkeypatch.setattr(table4_module, "CacheQuery", _recorded(CacheQuery, frontends))
    row = run_table4_configuration(configuration, **options)
    (cpu,), (frontend,) = cpus, frontends
    fields = dataclasses.asdict(row)
    del fields["seconds"]
    digest = hashlib.sha256(repr((fields, simulated_state(cpu))).encode()).hexdigest()
    return frontend.backend.executed_queries, frontend.backend.executed_loads, digest


# Recorded while every load of the sweep was timed (``load_physical``):
# (executed queries, executed loads, digest of row and simulated state).
# A change that only makes the simulated CPU faster must leave them unchanged.
_TABLE4_FAST_FINGERPRINTS = {
    "noise-free": {
        ("i7-4790", "L1"): (54, 317, "404e2fb5aeafe8bd86e930e53b90d28d2bbaa12cc994a52bbe575b92b3eb1af4"),
        ("i7-4790", "L2"): (54, 1417, "927dba345963e4b60c6700cf5b2cfcb0b1f55d3262b92b6436329761acbbe4a0"),
        ("i5-6500", "L1"): (54, 317, "972d0c619d7a55fd5e6ddb71ca27a4a00cc9b326289be5413281c87c6b9136ac"),
        ("i5-6500", "L2"): (54, 1417, "9a18232fbf84b50605733f2118fc9a379c40b77b37b3a42dab0778469026cd97"),
        ("i5-6500", "L3"): (398, 29757, "36b453bd3a7a52a431904f61ae232936bb0566ddc24a4c2e06bc58aa55cc32c6"),
        ("i7-8550U", "L1"): (54, 317, "8f941bd496939eff3dc8587cebecae1c8360fdaac3c961435cc11bc4b42b7b8e"),
        ("i7-8550U", "L2"): (54, 1417, "a2ecd9ceb8a95c65daf42d831ab8ede88401348b40639008139658a25d66ea50"),
        ("i7-8550U", "L3"): (398, 29757, "70ec6267ff0c60a382e2e692e8755a93ba121408799f58cb7c0a2a6ffdbae0d8"),
    },
    "noisy": {
        ("i7-4790", "L1"): (54, 951, "45bdb64d7ad9f36dbb82d113ab9918698ad1f2c0d2734ed4623a19f699af4d53"),
        ("i7-4790", "L2"): (54, 4251, "c8ba0905e2c7eaf751e1320d105630e29467e92a49cd273251324ba01a6540ec"),
        ("i5-6500", "L1"): (54, 951, "5eb2a5ecb78655310b8e1723f66b93927b2d1a808210afd2bb2b81923d2a4909"),
        ("i5-6500", "L2"): (54, 4251, "d9e263c66d9afd9b5827e5017d9dff3197a3537360faf095210912b24030406d"),
        ("i5-6500", "L3"): (398, 89271, "e28dbc54b13cfc11c98544e235292e4ab9840f4ba932a2de7e6bf7507f54fddc"),
        ("i7-8550U", "L1"): (54, 951, "1d8b28d74ec288ea854e5102da3ca85e0017fc7448bef7c56e799ddc8f299465"),
        ("i7-8550U", "L2"): (54, 4251, "8df3412c2e189aecf26c2945258bca5bbd0f39816a56cc779f95fd483c5cb0b7"),
        ("i7-8550U", "L3"): (398, 89271, "d91a3056b129058f7e80347d5fe8f8bb0c1e0140704b43e14b470f52a396ae73"),
    },
}

_MODES = {"noise-free": {}, "noisy": {"repetitions": 3, "noise_std": 1.0}}


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("configuration", FAST_TARGETS, ids=lambda c: f"{c.cpu}-{c.level}")
def test_table4_fast_simulated_statistics_are_pinned(monkeypatch, configuration, mode):
    fingerprint = table4_fingerprint(monkeypatch, configuration, **_MODES[mode])
    assert fingerprint == _TABLE4_FAST_FINGERPRINTS[mode][configuration.cpu, configuration.level]
