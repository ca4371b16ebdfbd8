"""Tests for the CacheQuery frontend/backend and the hit/miss classification."""

import pytest

import repro.cachequery.frontend as frontend_module
from repro.cache.cacheset import HIT, MISS
from repro.cachequery import (
    BackendConfig,
    CacheQuery,
    CacheQueryBackend,
    CacheQueryConfig,
    CacheQuerySetInterface,
    HitMissClassifier,
    QueryCache,
    calibrate_classifier,
)
from repro.errors import CacheQueryError, ReproError, StoreCorruptionError
from repro.hardware.cpu import SimulatedCPU
from repro.hardware.profiles import HASWELL_I7_4790, SKYLAKE_I5_6500
from repro.hardware.timing import NoiseModel
from repro.mbl.ast import Operation
from repro.mbl.expansion import expand
from repro.polca.reset import SequenceReset
from repro.store import PrefixStore


def _cpu(noise: float = 0.0) -> SimulatedCPU:
    return SimulatedCPU(SKYLAKE_I5_6500, noise=NoiseModel(std=noise))


class TestClassification:
    def test_threshold_classification(self):
        classifier = HitMissClassifier(threshold_cycles=20)
        assert classifier.classify(5) == HIT
        assert classifier.classify(50) == MISS

    def test_majority_vote_suppresses_outliers(self):
        classifier = HitMissClassifier(threshold_cycles=20)
        assert classifier.classify_majority([5, 300, 6]) == HIT
        assert classifier.classify_majority([300, 280, 6]) == MISS

    def test_majority_vote_requires_samples(self):
        with pytest.raises(CacheQueryError):
            HitMissClassifier(20).classify_majority([])

    def test_calibration_produces_separating_threshold(self):
        cpu = _cpu(noise=1.0)
        classifier = calibrate_classifier(cpu, "L1")
        assert cpu.timing.base_latency("L1") < classifier.threshold_cycles
        assert classifier.threshold_cycles < cpu.timing.base_latency("L2")

    def test_calibration_needs_enough_samples(self):
        with pytest.raises(CacheQueryError):
            calibrate_classifier(_cpu(), "L1", samples=2)


class TestQueryCache:
    def test_put_get_and_statistics(self):
        cache = QueryCache()
        assert cache.get("L2", 0, 5, "A B?") is None
        cache.put("L2", 0, 5, "A B?", ("Hit",))
        assert cache.get("L2", 0, 5, "A B?") == ("Hit",)
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_keys_include_target(self):
        cache = QueryCache()
        cache.put("L2", 0, 5, "A?", ("Hit",))
        assert cache.get("L2", 0, 6, "A?") is None
        assert cache.get("L1", 0, 5, "A?") is None

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        store = PrefixStore(str(path))
        cache = QueryCache(store=store)
        cache.put("L1", 0, 1, "A?", ("Miss",))
        store.save()
        reloaded = QueryCache(store=PrefixStore(str(path)))
        assert reloaded.get("L1", 0, 1, "A?") == ("Miss",)

    def test_clear(self):
        cache = QueryCache()
        cache.put("L1", 0, 0, "A?", ("Hit",))
        cache.clear()
        assert len(cache) == 0

    def test_hit_ratio(self):
        cache = QueryCache()
        assert cache.hit_ratio == 0.0  # never queried: no division by zero
        cache.put("L1", 0, 0, "A?", ("Hit",))
        cache.get("L1", 0, 0, "A?")  # hit
        cache.get("L1", 0, 0, "B?")  # miss
        cache.get("L1", 0, 0, "A?")  # hit
        assert cache.hits == 2 and cache.misses == 1
        assert cache.hit_ratio == pytest.approx(2 / 3)

    def test_persistence_round_trip_multiple_entries(self, tmp_path):
        path = tmp_path / "cache.json"
        store = PrefixStore(str(path))
        cache = QueryCache(store=store)
        entries = {
            ("L1", 0, 1, "A?"): ("Miss",),
            ("L2", 1, 3, "A? B?"): ("Hit", "Miss"),
            ("L3", 2, 7, "A! B C? D? E?"): ("Miss", "Hit", "Hit"),
        }
        for (level, slice_index, set_index, query), outcomes in entries.items():
            cache.put(level, slice_index, set_index, query, outcomes)
        store.save()
        reloaded = QueryCache(store=PrefixStore(str(path)))
        assert len(reloaded) == len(entries)
        for (level, slice_index, set_index, query), outcomes in entries.items():
            assert reloaded.get(level, slice_index, set_index, query) == outcomes
        # The reload starts with fresh statistics; the lookups above were hits.
        assert reloaded.hits == len(entries) and reloaded.misses == 0
        assert reloaded.hit_ratio == 1.0

    def test_save_is_noop_without_path_and_reload_is_idempotent(self, tmp_path):
        QueryCache().store.save()  # purely in-memory: must not raise
        path = tmp_path / "cache.json"
        store = PrefixStore(str(path))
        QueryCache(store=store).put("L1", 0, 0, "A?", ("Hit",))
        store.save()
        store.save()  # saving twice must not duplicate entries
        assert len(QueryCache(store=PrefixStore(str(path)))) == 1

    @pytest.mark.parametrize(
        "content",
        ["", "{ not json", '{"level": "L1"}', '[{"level": "L1"}]', "[42]"],
        ids=["empty", "truncated", "not-a-list", "missing-keys", "bad-entry"],
    )
    def test_corrupted_file_raises_cachequery_error(self, tmp_path, content):
        """A damaged file, or a stale flat-JSON cache (the not-a-list,
        missing-keys and bad-entry inputs), is rejected by the store that
        opens it, naming the file."""
        path = tmp_path / "cache.json"
        path.write_text(content)
        with pytest.raises(StoreCorruptionError, match=str(path)):
            PrefixStore(str(path))

    def test_binary_garbage_raises_cachequery_error(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_bytes(b"\xff\xfe\x00garbage\x80")
        with pytest.raises(StoreCorruptionError, match=str(path)):
            PrefixStore(str(path))

    def test_outcome_count_must_match_profiled_accesses(self):
        with pytest.raises(CacheQueryError, match="profiles"):
            QueryCache().put("L1", 0, 0, "A B?", ("Hit", "Miss"))

    def test_prefix_of_cached_query_is_served_without_execution(self):
        """The trie rebase: a shorter query rides on a longer one's answer."""
        cache = QueryCache()
        cache.put("L2", 0, 3, "A! B? C? D?", ("Hit", "Miss", "Hit"))
        assert cache.get("L2", 0, 3, "A! B? C?") == ("Hit", "Miss")
        assert cache.get("L2", 0, 3, "A! B?") == ("Hit",)
        # Profiling markers do not change cache state, so an unprofiled
        # variant of the same access path shares the measurements.
        assert cache.get("L2", 0, 3, "A! B C?") == ("Miss",)
        # ...but a position never measured cannot be served.
        cache.put("L2", 0, 3, "A! B C X?", ("Hit",))
        assert cache.get("L2", 0, 3, "A! B C? X?") == ("Miss", "Hit")

    def test_conflicting_measurements_raise_non_determinism(self):
        from repro.errors import NonDeterminismError

        cache = QueryCache()
        cache.put("L1", 0, 0, "A B?", ("Hit",))
        with pytest.raises(NonDeterminismError):
            cache.put("L1", 0, 0, "A B? C?", ("Miss", "Hit"))

    def test_trie_persistence_is_smaller_than_legacy_json(self, tmp_path):
        """Queries sharing a long reset prefix store it once on disk."""
        import json

        reset = " ".join(f"B{i}!" for i in range(12)) + " @"
        entries = [
            (
                "L2",
                0,
                0,
                f"{reset} " + " ".join(f"C{j}?" for j in range(depth + 1)),
                tuple("Hit" for _ in range(depth + 1)),
            )
            for depth in range(40)
        ]
        legacy_bytes = len(
            json.dumps(
                [
                    {"level": lvl, "slice": sl, "set": st, "query": q, "outcomes": list(o)}
                    for lvl, sl, st, q, o in entries
                ]
            )
        )
        path = tmp_path / "store.json"
        store = PrefixStore(str(path))
        cache = QueryCache(store=store)
        for lvl, sl, st, query, outcomes in entries:
            cache.put(lvl, sl, st, query, outcomes)
        store.save()
        assert path.stat().st_size < legacy_bytes / 3

class TestBackend:
    def test_requires_target_configuration(self):
        backend = CacheQueryBackend(_cpu())
        with pytest.raises(CacheQueryError):
            backend.pool_blocks()

    def test_invalid_target_rejected(self):
        backend = CacheQueryBackend(_cpu())
        with pytest.raises(CacheQueryError):
            backend.configure_target("L2", 5000)
        with pytest.raises(CacheQueryError):
            backend.configure_target("L3", 0, slice_index=99)

    def test_pool_blocks_map_to_target_set(self):
        cpu = _cpu()
        backend = CacheQueryBackend(cpu)
        backend.configure_target("L2", 33)
        mapper = cpu.hierarchy.level("L2").mapper
        for block in backend.pool_blocks():
            assert mapper.locate(backend.block_address(block)) == (0, 33)

    def test_unknown_block_rejected(self):
        backend = CacheQueryBackend(_cpu())
        backend.configure_target("L1", 0)
        with pytest.raises(CacheQueryError):
            backend.block_address("ZZ")
        with pytest.raises(CacheQueryError):
            backend.generate_code((Operation("ZZ", "?"),))

    def test_execute_profiles_against_ground_truth_counters(self):
        """Timing-based verdicts must agree with the architectural state."""
        cpu = _cpu()
        backend = CacheQueryBackend(cpu, BackendConfig(repetitions=1, profile_with_counters=True))
        backend.configure_target("L2", 7)
        (query,) = expand("A B C D A?", backend.associativity, backend.pool_blocks())
        counter_verdict = backend.execute(query)
        timed_backend = CacheQueryBackend(cpu, BackendConfig(repetitions=3))
        timed_backend.configure_target("L2", 7)
        timed_verdict = timed_backend.execute(query)
        assert counter_verdict == timed_verdict == (HIT,)

    def test_execute_eviction_probe_finds_exactly_one_victim(self):
        cpu = _cpu()
        backend = CacheQueryBackend(cpu, BackendConfig(repetitions=1))
        backend.configure_target("L2", 9)
        blocks = backend.pool_blocks()
        fresh = blocks[backend.associativity]
        # Each probe starts with a Flush+Refill reset so the four probes are
        # independent, exactly like the queries Polca issues.
        reset = " ".join(f"{block}!" for block in blocks)
        results = []
        for probe in blocks[: backend.associativity]:
            (query,) = expand(
                f"{reset} @ {fresh} {probe}?", backend.associativity, blocks
            )
            results.append(backend.execute(query)[0])
        assert results.count(MISS) == 1

    def test_flush_tag_invalidates_block(self):
        cpu = _cpu()
        backend = CacheQueryBackend(cpu, BackendConfig(repetitions=1))
        backend.configure_target("L1", 3)
        (query,) = expand("A A! A?", backend.associativity, backend.pool_blocks())
        assert backend.execute(query) == (MISS,)

    def test_empty_query_rejected(self):
        backend = CacheQueryBackend(_cpu())
        backend.configure_target("L1", 0)
        with pytest.raises(CacheQueryError):
            backend.execute(())

    def test_generate_code_mentions_profiling(self):
        backend = CacheQueryBackend(_cpu())
        backend.configure_target("L2", 0)
        (query,) = expand("A B?", backend.associativity, backend.pool_blocks())
        code = backend.generate_code(query)
        assert "movabs" in code and "rdtsc" in code and "clflush" not in code

    def test_prefetcher_restored_after_execution(self):
        cpu = _cpu()
        cpu.set_prefetcher(True)
        backend = CacheQueryBackend(cpu, BackendConfig(repetitions=1))
        backend.configure_target("L1", 0)
        (query,) = expand("A?", backend.associativity, backend.pool_blocks())
        backend.execute(query)
        assert cpu.prefetcher.enabled is True

    def test_repetition_majority_recovers_from_noise(self):
        cpu = SimulatedCPU(
            SKYLAKE_I5_6500,
            noise=NoiseModel(std=3.0, outlier_probability=0.05, seed=3),
        )
        backend = CacheQueryBackend(cpu, BackendConfig(repetitions=7))
        backend.configure_target("L1", 11)
        blocks = backend.pool_blocks()
        # The query resets its own context (flush A and B) so the repeated
        # executions used for majority voting all observe the same state.
        (query,) = expand("A! B! A A? B?", backend.associativity, blocks)
        assert backend.execute(query) == (HIT, MISS)

    @pytest.mark.parametrize("level, rounds", [("L2", 1), ("L3", 2)])
    @pytest.mark.parametrize(
        "profile", [SKYLAKE_I5_6500, HASWELL_I7_4790], ids=["skylake", "haswell"]
    )
    def test_last_eviction_round_is_checked(self, profile, level, rounds):
        """``eviction_rounds=N`` tolerates N rounds: one per closer level suffices."""

        def run(config):
            backend = CacheQueryBackend(SimulatedCPU(profile, noise=NoiseModel(std=0.0)), config)
            backend.configure_target(level, 0)
            (query,) = expand("A B C D A? B?", backend.associativity, backend.pool_blocks())
            return backend.execute(query), backend.executed_loads

        tight = run(BackendConfig(repetitions=1, eviction_rounds=rounds))
        assert tight == run(BackendConfig(repetitions=1))
        assert tight[0] == (HIT, HIT)
        if rounds > 1:
            with pytest.raises(CacheQueryError, match="failed to evict"):
                run(BackendConfig(repetitions=1, eviction_rounds=rounds - 1))

    @pytest.mark.parametrize(
        "changes", [{"eviction_rounds": 0}, {"eviction_rounds": -1}, {"eviction_extra_ways": -1}]
    )
    def test_eviction_config_rejects_impossible_values(self, changes):
        with pytest.raises(CacheQueryError):
            BackendConfig(**changes)
        BackendConfig(eviction_extra_ways=0)


class TestFrontend:
    def test_query_returns_one_result_per_expansion(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L2", set_index=3))
        results = frontend.query("@ E _?")
        assert len(results) == frontend.associativity
        assert all(len(result) == 1 for result in results)

    def test_response_cache_serves_repeats(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L1", set_index=1))
        frontend.query("A B C?")
        executed_before = frontend.backend.executed_queries
        frontend.query("A B C?")
        assert frontend.backend.executed_queries == executed_before
        assert frontend.cache.hits >= 1

    def test_configure_switches_target(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L1", set_index=1))
        frontend.configure(level="L2", set_index=8)
        assert frontend.config.level == "L2"
        assert frontend.associativity == 4

    def test_rejected_configure_keeps_the_current_target(self):
        cpu = _cpu()
        frontend = CacheQuery(cpu, CacheQueryConfig(level="L1", set_index=3))
        frontend.query("A B C A?")
        for rejected in ({"set_index": 10**9}, {"slice_index": 10**9}, {"level": "L9"}):
            with pytest.raises(ReproError):
                frontend.configure(**rejected)
            config = frontend.config
            assert (config.level, config.slice_index, config.set_index) == ("L1", 0, 3)
            # The backend still aims at the set ``config`` names...
            mapper = cpu.hierarchy.level(config.level).mapper
            assert frontend.backend.target_level == config.level
            assert mapper.locate(frontend.backend.block_address("A")) == (0, 3)
            # ...and answers are cached under that target only.
            executed = frontend.backend.executed_queries
            frontend.query("A B C A?")
            assert frontend.backend.executed_queries == executed
            assert {key[-3:] for key in frontend.cache.store.namespaces()} == {("L1", 0, 3)}
        frontend.query("B C D B?")
        assert frontend.cache.get("L1", 0, 3, "B C D B?") is not None
        assert {key[-3:] for key in frontend.cache.store.namespaces()} == {("L1", 0, 3)}

    def test_batch_mode_restores_target(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L2", set_index=2))
        results = frontend.batch("@ E A?", [4, 5, 6])
        assert set(results) == {4, 5, 6}
        assert frontend.config.set_index == 2

    def test_interactive_mode_commands(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L1", set_index=0))
        script = iter(["blocks", "set 2", "level L2", "A B?", "bogus $ query", "quit"])
        outputs = []
        frontend.interactive(input_fn=lambda _: next(script), output_fn=outputs.append)
        assert any("A" in line for line in outputs)
        assert any("error" in line for line in outputs)
        assert frontend.config.level == "L2"

    def test_set_interface_probe_profiles_every_block(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L2", set_index=17))
        interface = CacheQuerySetInterface(frontend)
        outcomes = interface.probe(["A", "B", "C", "D", "E", "A"])
        assert len(outcomes) == 6
        assert outcomes[:4] == (HIT, HIT, HIT, HIT)
        assert outcomes[4] == MISS

    def test_set_interface_empty_probe(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L1", set_index=0))
        assert CacheQuerySetInterface(frontend).probe([]) == ()


class TestConcreteQueries:
    """Polca's probes reach the frontend as concrete queries, not MBL text."""

    def test_frontend_accepts_concrete_queries_and_fragments(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L1", set_index=4))
        text = "A B A! A? B?"
        (concrete,) = expand(text, frontend.associativity, frontend.blocks)
        assert frontend.query(concrete) == frontend.query(text) == [(MISS, HIT)]
        assert frontend.query_batch([text, concrete]) == [[(MISS, HIT)]] * 2
        assert frontend.backend.executed_queries == 1
        frontend.open_session()
        assert frontend.extend(concrete) == (MISS, HIT)

    def test_set_interface_expands_its_reset_once(self, monkeypatch):
        expansions = []

        def counting_expand(*args, **kwargs):
            expansions.append(args[0])
            return expand(*args, **kwargs)

        monkeypatch.setattr(frontend_module, "expand", counting_expand)
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L2", set_index=17))
        interface = CacheQuerySetInterface(frontend)
        blocks = interface.block_universe()
        words = [[blocks[n % 7], blocks[(3 * n) % 11]] for n in range(50)]
        for word in words[:25]:
            interface.probe(word)
        interface.probe_batch(words[25:])
        assert interface.probe_count == 50
        assert len(expansions) == 1

    @pytest.mark.parametrize("probe_first", [True, False])
    def test_probe_shares_the_cache_entry_of_its_text_spelling(self, probe_first):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L2", set_index=5))
        interface = CacheQuerySetInterface(frontend)
        prefix = interface.reset.mbl_prefix(
            interface.associativity, interface.block_universe()
        )
        asks = [
            lambda: interface.probe(["E", "A", "B"]),
            lambda: frontend.query(f"{prefix} E? A? B?")[0],
        ]
        first, second = asks if probe_first else asks[::-1]
        answer = first()
        executed = frontend.backend.executed_queries
        assert second() == answer
        assert frontend.backend.executed_queries == executed
        assert len(frontend.cache) == 1

    @pytest.mark.parametrize("batched", [False, True])
    def test_multi_query_reset_rejected_before_anything_executes(self, batched):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L2", set_index=6))
        interface = CacheQuerySetInterface(frontend, reset=SequenceReset("_"))
        with pytest.raises(CacheQueryError, match="exactly one query"):
            if batched:
                interface.probe_batch([["A"], ["B"]])
            else:
                interface.probe(["A"])
        assert frontend.backend.executed_queries == 0
        assert len(frontend.cache) == 0
