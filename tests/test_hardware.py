"""Tests for the simulated-CPU substrate (profiles, timing, prefetcher, CPU)."""

import pytest

from repro.cache.cat import CATConfig
from repro.errors import CacheError
from repro.hardware.cpu import PAGE_SIZE, SimulatedCPU
from repro.hardware.prefetcher import NextLinePrefetcher
from repro.hardware.profiles import (
    HASWELL_I7_4790,
    KABY_LAKE_I7_8550U,
    SKYLAKE_I5_6500,
    cpu_profile,
    known_profiles,
)
from repro.hardware.timing import NoiseModel, TimingModel


class TestProfiles:
    def test_table3_geometries(self):
        """The profiles encode exactly the geometries of Table 3."""
        expectations = {
            ("i7-4790", "L1"): (8, 1, 64),
            ("i7-4790", "L2"): (8, 1, 512),
            ("i7-4790", "L3"): (16, 4, 2048),
            ("i5-6500", "L1"): (8, 1, 64),
            ("i5-6500", "L2"): (4, 1, 1024),
            ("i5-6500", "L3"): (12, 8, 1024),
            ("i7-8550U", "L1"): (8, 1, 64),
            ("i7-8550U", "L2"): (4, 1, 1024),
            ("i7-8550U", "L3"): (16, 8, 1024),
        }
        for profile in known_profiles():
            for level in profile.levels:
                assert expectations[(profile.name, level.name)] == (
                    level.associativity,
                    level.slices,
                    level.sets_per_slice,
                )

    def test_discovered_policies_in_profiles(self):
        assert SKYLAKE_I5_6500.level("L2").policy == "NEW1"
        assert SKYLAKE_I5_6500.level("L3").adaptive.leader_a_policy == "NEW2"
        assert HASWELL_I7_4790.level("L1").policy == "PLRU"
        assert HASWELL_I7_4790.level("L3").supports_cat is False
        assert KABY_LAKE_I7_8550U.level("L2").policy == "NEW1"

    def test_profile_lookup_by_alias(self):
        assert cpu_profile("skylake") is SKYLAKE_I5_6500
        assert cpu_profile("KABY LAKE") is KABY_LAKE_I7_8550U
        with pytest.raises(CacheError):
            cpu_profile("pentium")

    def test_with_level_replaces_only_one_level(self):
        reduced = SKYLAKE_I5_6500.with_level("L2", associativity=2)
        assert reduced.level("L2").associativity == 2
        assert reduced.level("L1").associativity == 8
        assert SKYLAKE_I5_6500.level("L2").associativity == 4  # original untouched

    def test_level_size_helper(self):
        assert SKYLAKE_I5_6500.level("L1").size_bytes == 64 * 8 * 64


class TestTiming:
    def test_thresholds_separate_levels(self):
        model = TimingModel({"L1": 4, "L2": 12, "L3": 42}, 230, NoiseModel(std=0.0))
        assert model.base_latency("L1") < model.hit_threshold("L1") < model.base_latency("L2")
        assert model.base_latency("L2") < model.hit_threshold("L2") < model.base_latency("L3")
        assert model.base_latency("L3") < model.hit_threshold("L3") < model.base_latency(None)

    def test_memory_latency_must_dominate(self):
        with pytest.raises(CacheError):
            TimingModel({"L1": 400}, 230)

    def test_noise_is_reproducible_per_seed(self):
        first = NoiseModel(std=3.0, seed=7)
        second = NoiseModel(std=3.0, seed=7)
        assert [first.sample() for _ in range(10)] == [second.sample() for _ in range(10)]
        first.reseed(8)
        second.reseed(9)
        assert [first.sample() for _ in range(5)] != [second.sample() for _ in range(5)]

    def test_noiseless_latency_is_exact(self):
        model = TimingModel({"L1": 4}, 230, NoiseModel(std=0.0, outlier_probability=0.0))
        assert model.latency("L1") == 4
        assert model.latency(None) == 230

    def test_unknown_level_threshold(self):
        model = TimingModel({"L1": 4}, 230)
        with pytest.raises(CacheError):
            model.hit_threshold("L5")


class TestPrefetcher:
    def test_sequential_accesses_trigger_next_line(self):
        prefetcher = NextLinePrefetcher()
        assert prefetcher.observe(0 * 64) is None
        assert prefetcher.observe(1 * 64) == 2 * 64
        assert prefetcher.issued == 1

    def test_random_accesses_do_not_trigger(self):
        prefetcher = NextLinePrefetcher()
        prefetcher.observe(0)
        assert prefetcher.observe(10 * 64) is None

    def test_disabled_prefetcher_is_silent(self):
        prefetcher = NextLinePrefetcher(enabled=False)
        prefetcher.observe(0)
        assert prefetcher.observe(64) is None


class TestSimulatedCPU:
    def test_translation_is_deterministic_and_injective(self, skylake_cpu):
        pages = [skylake_cpu.translate(i * PAGE_SIZE) for i in range(64)]
        assert len(set(p // PAGE_SIZE for p in pages)) == 64
        assert skylake_cpu.translate(0) == skylake_cpu.translate(0)

    def test_translation_scatters_pages(self, skylake_cpu):
        """Contiguous virtual pages must not map to contiguous frames."""
        frames = [skylake_cpu.translate(i * PAGE_SIZE) // PAGE_SIZE for i in range(16)]
        deltas = {frames[i + 1] - frames[i] for i in range(len(frames) - 1)}
        assert deltas != {1}

    def test_load_latencies_reflect_hit_level(self, fresh_skylake_cpu):
        cpu = fresh_skylake_cpu
        cpu.set_prefetcher(False)
        first = cpu.load(0x4000)
        second = cpu.load(0x4000)
        assert first > second
        assert second < cpu.timing.hit_threshold("L1")

    def test_clflush_forces_miss(self, fresh_skylake_cpu):
        cpu = fresh_skylake_cpu
        cpu.set_prefetcher(False)
        cpu.load(0x8000)
        cpu.clflush(0x8000)
        assert cpu.load(0x8000) > cpu.timing.hit_threshold("L3")

    def test_performance_counters(self, fresh_skylake_cpu):
        cpu = fresh_skylake_cpu
        cpu.set_prefetcher(False)
        cpu.reset_measurement_state()
        cpu.load(0x100)
        cpu.load(0x100)
        snapshot = cpu.counters.snapshot()
        assert snapshot["loads"] == 2
        assert snapshot["memory_accesses"] == 1
        assert snapshot.get("L1_hits", 0) == 1

    def test_prefetcher_pollutes_next_line_when_enabled(self, fresh_skylake_cpu):
        cpu = fresh_skylake_cpu
        cpu.set_prefetcher(True)
        cpu.load(0 * 64)
        cpu.load(1 * 64)  # triggers a prefetch of line 2
        assert cpu.probe_level(2 * 64) is not None
        assert cpu.counters.prefetches >= 1

    def test_cat_configuration(self, fresh_skylake_cpu):
        cpu = fresh_skylake_cpu
        cpu.configure_cat("L3", 4)
        assert cpu.effective_associativity("L3") == 4
        cpu.clear_cat("L3")
        assert cpu.effective_associativity("L3") == 12

    def test_cat_rejected_on_haswell_l3(self):
        cpu = SimulatedCPU(HASWELL_I7_4790)
        with pytest.raises(CacheError):
            cpu.configure_cat("L3", 4)

    def test_clear_cat_keeps_the_profile_cat_support(self):
        cpu = SimulatedCPU(HASWELL_I7_4790)
        assert cpu.hierarchy.level("L3").cat == CATConfig(supported=False, way_mask=0)
        cpu.clear_cat("L3")
        assert cpu.hierarchy.level("L3").cat == CATConfig(supported=False, way_mask=0)
        with pytest.raises(CacheError):
            cpu.configure_cat("L3", 4)

    def test_negative_virtual_address_rejected(self, skylake_cpu):
        with pytest.raises(CacheError):
            skylake_cpu.translate(-1)

    def test_level_geometry_helper(self, skylake_cpu):
        assert skylake_cpu.level_geometry("L2") == (4, 1, 1024)
