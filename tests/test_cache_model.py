"""Tests for the cache substrates: sets, addressing, levels, hierarchy, CAT, adaptivity."""

import copy
import hashlib
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache.addressing as addressing_module
import repro.cache.cacheset as cacheset_module
from repro.cache.adaptive import AdaptiveSetSelector, SetDuelingController
from repro.cache.addressing import AddressMapper, slice_hash
from repro.cache.cache import AdaptiveConfig, SetAssociativeCache
from repro.cache.cacheset import HIT, MISS, TRANSITION_MEMO_BOUND, CacheSet
from repro.cache.cat import CATConfig
from repro.cache.hierarchy import CacheHierarchy, CacheLevelConfig
from repro.errors import AddressingError, CacheError
from repro.hardware.cpu import SimulatedCPU
from repro.hardware.profiles import cpu_profile
from repro.policies import LRUPolicy, New2Policy
from repro.policies.registry import available_policies, make_policy
from repro.polca.interfaces import SimulatedCacheInterface


class TestCacheSet:
    def test_definition_2_3_semantics_for_lru(self):
        """The running example of Section 2.3 (Example 2.4)."""
        cache = CacheSet(LRUPolicy(2), initial_content=["A", "B"])
        assert cache.access("B") == HIT
        assert cache.access("A") == HIT
        assert cache.access("C") == MISS
        # C replaced the least recently used block, which was B.
        assert cache.contains("C") and cache.contains("A") and not cache.contains("B")

    def test_initial_content_validation(self):
        with pytest.raises(CacheError):
            CacheSet(LRUPolicy(2), initial_content=["A"])
        with pytest.raises(CacheError):
            CacheSet(LRUPolicy(2), initial_content=["A", "A"])

    def test_access_none_rejected(self):
        with pytest.raises(CacheError):
            CacheSet(LRUPolicy(2)).access(None)

    def test_invalid_lines_filled_first_in_order(self):
        cache = CacheSet(make_policy("NEW1", 4))
        victims = [cache.access_returning_victim(block)[1] for block in "ABCD"]
        assert victims == [0, 1, 2, 3]
        assert cache.content == list("ABCD")

    def test_flush_and_full_invalidation_reset_policy_state(self):
        policy = make_policy("NEW2", 4)
        cache = CacheSet(policy)
        for block in "ABCD":
            cache.access(block)
        cache.access("E")  # perturb the control state
        for block in "ABCDE":
            cache.flush(block)
        assert cache.policy_state == policy.initial_state()
        assert cache.valid_blocks == ()

    def test_flush_missing_block_returns_false(self):
        cache = CacheSet(LRUPolicy(2), initial_content=["A", "B"])
        assert cache.flush("Z") is False
        assert cache.flush("A") is True

    def test_snapshot_restore(self):
        cache = CacheSet(LRUPolicy(2), initial_content=["A", "B"])
        snapshot = cache.snapshot()
        cache.access("C")
        cache.restore(snapshot)
        assert cache.contains("A") and cache.contains("B")

    def test_run_returns_full_trace(self):
        cache = CacheSet(LRUPolicy(2), initial_content=["A", "B"])
        trace = cache.run(["A", "C", "A"])
        assert trace.outputs == (HIT, MISS, HIT)


class TestSimulatedCacheSet:
    """The software-simulated cache of Section 6: a :class:`CacheSet` that
    :class:`SimulatedCacheInterface` resets before every probe."""

    def test_probe_resets_between_calls(self):
        simulated = SimulatedCacheInterface(LRUPolicy(2))
        assert simulated.initial_blocks() == ("A", "B")
        assert simulated.probe(["C"]) == (MISS,)
        # The previous probe must not leak into this one: A is present again.
        assert simulated.probe(["A"]) == (HIT,)

    def test_probes_leave_the_initial_content_alone(self):
        simulated = SimulatedCacheInterface(LRUPolicy(2))
        # C evicts B, the LRU line, and B's reload evicts A.
        assert simulated.probe(["C", "B"]) == (MISS, MISS)
        assert simulated.initial_blocks() == ("A", "B")
        assert simulated.probe(["A", "B"]) == (HIT, HIT)


class TestAddressing:
    def test_set_index_uses_low_bits(self):
        mapper = AddressMapper(sets_per_slice=64)
        assert mapper.set_index(0) == 0
        assert mapper.set_index(64 * 3) == 3
        assert mapper.set_index(64 * 64) == 0  # wraps after 64 sets

    def test_block_id_strips_offset(self):
        mapper = AddressMapper(sets_per_slice=64)
        assert mapper.block_id(0x1234) == 0x1234 >> 6

    def test_slice_hash_range_and_determinism(self):
        for address in range(0, 1 << 20, 4096):
            slice_id = slice_hash(address, 8)
            assert 0 <= slice_id < 8
            assert slice_id == slice_hash(address, 8)

    def test_slice_hash_distributes(self):
        counts = {}
        for address in range(0, 1 << 22, 64):
            counts[slice_hash(address, 4)] = counts.get(slice_hash(address, 4), 0) + 1
        assert len(counts) == 4
        total = sum(counts.values())
        for value in counts.values():
            assert value > total / 16  # no slice is starved

    def test_invalid_geometry_rejected(self):
        with pytest.raises(AddressingError):
            AddressMapper(sets_per_slice=48)
        with pytest.raises(AddressingError):
            slice_hash(0, 3)
        with pytest.raises(AddressingError):
            AddressMapper(sets_per_slice=64, slices=3)
        with pytest.raises(AddressingError):
            CacheHierarchy([CacheLevelConfig("L3", 4, 64, hit_latency=40, slices=3)])

    def test_locate_is_memoized_outside_the_mapper_identity(self, monkeypatch):
        mapper = AddressMapper(sets_per_slice=64, slices=8)
        addresses = range(0, 1 << 20, 64 * 37)
        expected = [(slice_hash(a, 8), mapper.set_index(a)) for a in addresses]
        assert [mapper.locate(a) for a in addresses] == expected
        rehashed = []

        def counting_slice_hash(address, slices):
            rehashed.append(address)
            return slice_hash(address, slices)

        monkeypatch.setattr(addressing_module, "slice_hash", counting_slice_hash)
        assert [mapper.locate(a) for a in addresses] == expected
        assert rehashed == []
        twin = AddressMapper(sets_per_slice=64, slices=8)
        assert twin == mapper and hash(twin) == hash(mapper)
        assert repr(twin) == repr(mapper)
        clone = pickle.loads(pickle.dumps(mapper))
        assert clone == mapper
        assert [clone.locate(a) for a in addresses] == expected

    def test_congruent_addresses_are_congruent_and_distinct(self):
        mapper = AddressMapper(sets_per_slice=1024, slices=8)
        addresses = mapper.congruent_addresses(17, 3, 12)
        assert len(set(addresses)) == 12
        for address in addresses:
            assert mapper.locate(address) == (3, 17)

    def test_congruent_addresses_out_of_range(self):
        mapper = AddressMapper(sets_per_slice=64)
        with pytest.raises(AddressingError):
            mapper.congruent_addresses(64, 0, 4)


class TestSetAssociativeCache:
    def _cache(self, **kwargs):
        return SetAssociativeCache("L2", 4, AddressMapper(sets_per_slice=16), "LRU", **kwargs)

    def test_hit_after_fill(self):
        cache = self._cache()
        assert cache.access(0x1000) == MISS
        assert cache.access(0x1000) == HIT
        assert cache.hits == 1 and cache.misses == 1

    def test_different_sets_do_not_interfere(self):
        cache = self._cache()
        cache.access(0x0)
        cache.access(0x40)  # next set
        assert cache.contains(0x0) and cache.contains(0x40)

    def test_flush(self):
        cache = self._cache()
        cache.access(0x2000)
        assert cache.flush(0x2000) is True
        assert cache.access(0x2000) == MISS

    def test_cat_reduces_effective_associativity(self):
        cache = self._cache(cat=CATConfig.reduce_to(2))
        assert cache.effective_associativity == 2
        base = 0x0
        stride = 16 * 64
        for index in range(3):
            cache.access(base + index * stride)
        # Only two ways are usable, so the first block must have been evicted.
        assert cache.access(base) == MISS

    def test_cat_unsupported_rejected(self):
        config = CATConfig(supported=False, way_mask=0x3)
        with pytest.raises(CacheError):
            config.effective_associativity(8)

    def test_cat_empty_mask_rejected(self):
        with pytest.raises(CacheError):
            CATConfig.reduce_to(0)

    def test_adaptive_roles_and_follower_nondeterminism_hooks(self):
        selector = AdaptiveSetSelector(scheme="skylake")
        adaptive = AdaptiveConfig(selector, "NEW2", "BRRIP-HP")
        cache = SetAssociativeCache(
            "L3", 4, AddressMapper(sets_per_slice=1024, slices=1), "NEW2", adaptive=adaptive
        )
        assert cache.set_role(0) == "leader_a"
        assert cache.set_role(1) == "follower"
        # Accessing a leader set updates the dueling counter on misses.
        before = adaptive.controller.value
        cache.access(0)
        assert adaptive.controller.value >= before


class TestAdaptiveSelector:
    def test_skylake_formula(self):
        selector = AdaptiveSetSelector(scheme="skylake")
        leaders = selector.leader_a_sets(1024)
        for set_index in leaders:
            folded = ((set_index & 0x3E0) >> 5) ^ (set_index & 0x1F)
            assert folded == 0 and (set_index & 0x2) == 0
        assert 0 in leaders and len(leaders) == 16

    def test_haswell_ranges(self):
        selector = AdaptiveSetSelector(scheme="haswell")
        assert selector.role(512, 0) == "leader_a"
        assert selector.role(800, 0) == "leader_b"
        assert selector.role(512, 1) == "follower"  # leader sets only in slice 0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveSetSelector(scheme="???").role(0)

    def test_psel_counter_saturates_and_flips(self):
        controller = SetDuelingController(bits=4)
        for _ in range(100):
            controller.record_leader_miss("leader_a")
        assert controller.value == controller.max_value
        assert controller.follower_choice() == "leader_b"
        for _ in range(100):
            controller.record_leader_miss("leader_b")
        assert controller.value == 0
        assert controller.follower_choice() == "leader_a"


class TestHierarchy:
    def _hierarchy(self):
        return CacheHierarchy(
            [
                CacheLevelConfig("L1", 2, 16, hit_latency=4, policy="PLRU"),
                CacheLevelConfig("L2", 4, 64, hit_latency=12, policy="LRU"),
            ],
            memory_latency=100,
        )

    def test_first_load_misses_everywhere_then_hits_l1(self):
        hierarchy = self._hierarchy()
        first = hierarchy.load(0x1000)
        assert first.hit_level is None and first.latency == 100
        second = hierarchy.load(0x1000)
        assert second.hit_level == "L1" and second.latency == 4

    def test_l1_hit_does_not_touch_l2(self):
        hierarchy = self._hierarchy()
        hierarchy.load(0x1000)
        l2_hits_before = hierarchy.level("L2").hits
        hierarchy.load(0x1000)  # L1 hit
        assert hierarchy.level("L2").hits == l2_hits_before

    def test_clflush_invalidates_all_levels(self):
        hierarchy = self._hierarchy()
        hierarchy.load(0x1000)
        hierarchy.clflush(0x1000)
        assert hierarchy.peek(0x1000) is None

    def test_wbinvd_and_statistics(self):
        hierarchy = self._hierarchy()
        hierarchy.load(0x0)
        hierarchy.wbinvd()
        assert hierarchy.peek(0x0) is None
        hierarchy.reset_statistics()
        assert hierarchy.statistics() == {"L1": (0, 0), "L2": (0, 0)}

    def test_unknown_level_rejected(self):
        with pytest.raises(CacheError):
            self._hierarchy().level("L9")

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(CacheError):
            CacheHierarchy([])


def _hierarchy_trace_digest(profile_name: str, steps: int = 6000) -> str:
    """Drive one simulated CPU through a seeded trace; return the SHA-256 of what it saw.

    The addresses are congruent to L3 sets 0, 1 and 33 (leader A and
    follower sets on the modelled parts) and to L1 set 5.  Loads go through
    the hierarchy, the physical CPU path and the virtual CPU path (whose
    sequential lines trigger the prefetcher); each is followed by a peek.
    At one third the L3 gets a 4-way CAT mask where the CPU supports it, and
    at one half the CPU takes a pickle round trip.
    """
    cpu = SimulatedCPU(cpu_profile(profile_name))
    l3 = cpu.hierarchy.level("L3").mapper
    physical = [a for s in (0, 1, 33) for a in l3.congruent_addresses(s, 0, 20)]
    physical += cpu.hierarchy.level("L1").mapper.congruent_addresses(5, 0, 12)
    rng = random.Random(2026)
    seen: list = []
    virtual_loads = 0
    for step in range(steps):
        if step == steps // 3 and cpu.profile.level("L3").supports_cat:
            cpu.configure_cat("L3", 4)
        if step == steps // 2:
            cpu = pickle.loads(pickle.dumps(cpu))
        roll = rng.random()
        address = rng.choice(physical)
        if roll < 0.85:
            if roll < 0.30:
                seen.append(cpu.hierarchy.load(address).hit_level)
            elif roll < 0.60:
                seen.append(cpu.load_physical(address))
            else:
                seen.append(cpu.load(0x40000 + 64 * (virtual_loads % 16)))
                virtual_loads += 1
            seen.append(cpu.hierarchy.peek(rng.choice(physical)))
        elif roll < 0.995:
            cpu.clflush_physical(address)
        else:
            cpu.wbinvd()
        seen.append(cpu.hierarchy.level("L3").adaptive.controller.value)
        if step % 1000 == 999:
            seen.append((cpu.hierarchy.statistics(), cpu.counters.snapshot()))
    return hashlib.sha256(repr(seen).encode()).hexdigest()


# Recorded with a hierarchy that decomposed every address on every access.
# A change that only makes the hierarchy faster must leave them unchanged.
_TRACE_DIGESTS = {
    "haswell": "c3627a9af22b792ede2abb504df7e3621902b76b8c906f0f5cac20b353a72c54",
    "skylake": "d8fa15a23db396b9ce152da36b2140f26cf652c71550802803b6faf47ae3c089",
    "kabylake": "412d9161d39f96732591f7b26531dc7fb17011a58320e63a13590f7c97fa93f8",
}


@pytest.mark.parametrize("profile_name", sorted(_TRACE_DIGESTS))
def test_seeded_hierarchy_trace_matches_recorded_digest(profile_name):
    """Hit levels, peeks, statistics, counters and PSEL values are pinned per CPU."""
    assert _hierarchy_trace_digest(profile_name) == _TRACE_DIGESTS[profile_name]


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.sampled_from("ABCDEFG"), min_size=1, max_size=40),
    policy_name=st.sampled_from(["LRU", "FIFO", "PLRU", "NEW1", "NEW2", "SRRIP-HP"]),
)
def test_cache_set_invariants(blocks, policy_name):
    """Property: a cache set never stores duplicates, never exceeds capacity,
    and its memoized transitions agree with calling the policy directly."""
    policy = make_policy(policy_name, 4)
    cache = CacheSet(policy)
    content, state = [None] * 4, policy.initial_state()
    for block in blocks:
        result = cache.access(block)
        expected, content, state = _reference_access(policy, content, state, block)
        assert result == expected
        assert (cache.content, cache.policy_state) == (content, state)
        stored = [b for b in cache.content if b is not None]
        assert len(stored) == len(set(stored))
        assert len(stored) <= 4
        assert cache.contains(block)


def _reference_access(policy, content, state, block):
    """Figure 2's Hit and Miss rules, calling the policy directly: ``(output, content, state)``."""
    if block in content:
        return HIT, content, policy.on_hit(state, content.index(block))
    content = list(content)
    if None in content:
        line = content.index(None)
        content[line] = block
        return MISS, content, policy.on_fill(state, line)
    state, victim = policy.on_miss(state)
    content[victim] = block
    return MISS, content, state


def _run_against_direct_policy_calls(policy_name, ways):
    """Drive one set through seeded accesses, flushes, resets and restores,
    checking it against Figure 2's rules on direct policy calls after every
    step.  Return the set, the reference ``(content, state)``, and whether
    the set ever held a state it had not numbered."""
    policy = make_policy(policy_name, ways)
    cache = CacheSet(policy)
    initial = ([None] * ways, policy.initial_state())
    content, state = initial
    saved = cache.snapshot(), (content, state)
    rng = random.Random(f"{policy_name}-{ways}")
    left_table = False
    for _ in range(2000):
        roll, block = rng.random(), rng.randrange(ways + 2)
        if roll < 0.85:
            expected, content, state = _reference_access(policy, content, state, block)
            assert cache.access(block) == expected
        elif roll < 0.93:
            assert cache.flush(block) == (block in content)
            content = [None if b == block else b for b in content]
            if content.count(None) == ways:
                state = policy.initial_state()
        elif roll < 0.95:
            cache.flush_all()
            content, state = initial
        elif roll < 0.97:
            cache.reset()
            content, state = initial
        elif roll < 0.985:
            saved = cache.snapshot(), (content, state)
        else:
            cache.restore(saved[0])
            content, state = saved[1]
        assert (cache.content, cache.policy_state) == (content, state)
        left_table = left_table or cache._number is None
    return cache, (content, state), left_table


@pytest.mark.parametrize("ways", [2, 4, 8])
@pytest.mark.parametrize("policy_name", available_policies())
def test_memoized_cache_set_matches_direct_policy_calls(policy_name, ways):
    """Accesses, flushes, resets and restores agree with a set that never memoizes."""
    _run_against_direct_policy_calls(policy_name, ways)


def _leave_table(cache, reference, rng):
    """Access seeded blocks until the set holds a state it has not numbered
    (off its table, a set may pass through numbered states too); return the
    reference ``(content, state)`` it then matches."""
    content, state = reference
    for _ in range(10_000):
        if cache._number is None and cache.policy_state not in cache._numbers:
            break
        block = rng.randrange(cache.associativity + 2)
        expected, content, state = _reference_access(cache.policy, content, state, block)
        assert cache.access(block) == expected
    assert cache._number is None
    assert (cache.content, cache.policy_state) == (content, state)
    return content, state


@pytest.mark.parametrize("ways", [2, 4, 8])
@pytest.mark.parametrize("policy_name", available_policies())
def test_memoized_cache_set_matches_direct_policy_calls_past_a_small_bound(
    policy_name, ways, monkeypatch
):
    """The same run with room for ``ways - 1`` states, fewer than any policy
    reaches: every set leaves its table, stays exact off it, restores, pickles
    and copies an unnumbered state, and returns after ``reset``/``flush_all``."""
    monkeypatch.setattr(cacheset_module, "TRANSITION_MEMO_BOUND", ways - 1)
    cache, reference, left_table = _run_against_direct_policy_calls(policy_name, ways)
    assert left_table
    assert len(cache._states) == len(cache._numbers) == ways - 1
    assert len(cache._hit_rows) == len(cache._fill_rows) == len(cache._miss_rows) == ways - 1
    policy = cache.policy
    rng = random.Random(f"{policy_name}-{ways}-off-table")
    content, state = _leave_table(cache, reference, rng)
    saved = cache.snapshot()
    assert saved[1] not in cache._numbers
    cache.reset()
    assert cache._number == 0
    cache.restore(saved)
    assert cache._number is None and cache.snapshot() == saved
    clones = [
        pickle.loads(pickle.dumps(cache)),
        pickle.loads(pickle.dumps(cache, pickle.HIGHEST_PROTOCOL)),
        copy.deepcopy(cache),
    ]
    tail = [rng.randrange(ways + 2) for _ in range(200)]
    outputs = []
    for block in tail:
        expected, content, state = _reference_access(policy, content, state, block)
        outputs.append(expected)
    for cache_set in clones + [cache]:
        assert cache_set._number is None
        assert [cache_set.access(block) for block in tail] == outputs
        assert (cache_set.content, cache_set.policy_state) == (content, state)
    for back_to_table in (cache.reset, cache.flush_all):
        _leave_table(cache, (list(cache.content), cache.policy_state), rng)
        back_to_table()
        assert cache._number == 0
        assert cache.policy_state == policy.initial_state()
    assert cache.content == [None] * ways


class _CountingNew2(New2Policy):
    """NEW2 that counts the calls of each transition it is asked for."""

    def __init__(self, associativity):
        super().__init__(associativity)
        self.calls = Counter()

    def on_hit(self, state, line):
        self.calls["hit", state, line] += 1
        return super().on_hit(state, line)

    def on_fill(self, state, line):
        self.calls["fill", state, line] += 1
        return super().on_fill(state, line)

    def on_miss(self, state):
        self.calls["miss", state] += 1
        return super().on_miss(state)


def test_cache_set_asks_its_policy_once_per_transition():
    policy = _CountingNew2(4)
    cache = CacheSet(policy)
    rng = random.Random(7)
    blocks = [rng.choice("ABCDEF") for _ in range(400)]
    outputs = [cache.access(block) for block in blocks]
    calls = Counter(policy.calls)
    assert {"hit", "fill", "miss"} == {key[0] for key in calls}
    assert max(calls.values()) == 1
    cache.reset()
    assert [cache.access(block) for block in blocks] == outputs
    cache.flush_all()
    assert [cache.access(block) for block in blocks] == outputs
    assert policy.calls == calls


def test_transition_memo_stays_bounded_and_exact_past_its_bound():
    """A long random trace visits more NEW2-16 states than the memo may hold."""
    policy = make_policy("NEW2", 16)
    cache = CacheSet(policy)
    content, state = [None] * 16, policy.initial_state()
    rng = random.Random(2026)
    for _ in range(40_000):
        block = rng.randrange(32)
        expected, content, state = _reference_access(policy, content, state, block)
        assert cache.access(block) == expected
        assert cache.policy_state == state
    assert cache.content == content
    assert len(cache._states) == len(cache._numbers) == TRANSITION_MEMO_BOUND
    assert len(cache._hit_rows) == len(cache._miss_rows) == TRANSITION_MEMO_BOUND


def test_populated_cache_set_survives_pickle_and_copy():
    cache = CacheSet(make_policy("PLRU", 8))
    rng = random.Random(11)
    for _ in range(300):
        cache.access(rng.randrange(12))
    clones = [
        pickle.loads(pickle.dumps(cache)),
        pickle.loads(pickle.dumps(cache, pickle.HIGHEST_PROTOCOL)),
        copy.deepcopy(cache),
    ]
    for clone in clones:
        assert (clone._states, clone._hit_rows, clone._fill_rows, clone._miss_rows) == (
            cache._states,
            cache._hit_rows,
            cache._fill_rows,
            cache._miss_rows,
        )
        assert clone._number == cache._number
    tail = [rng.randrange(12) for _ in range(300)]
    outputs = [cache.access(block) for block in tail]
    for clone in clones:
        assert [clone.access(block) for block in tail] == outputs
        assert (clone.content, clone.policy_state) == (cache.content, cache.policy_state)
