"""Unit tests for the process-parallel conformance-testing machinery.

Covers shipping systems under learning to the workers of a
:class:`~repro.learning.parallel.WorkerPool` (simulated Polca with its
kernel bound, machines, functions, CacheQuery interfaces over a populated
store), :class:`~repro.learning.equivalence.ConformanceEquivalenceOracle`
over an engine whose delegate is a pool (chunk shipping, trie merge-back,
cached-word skipping, deterministic counterexamples) and the
external-observation entry points of
:class:`~repro.learning.oracles.CachedMembershipOracle`.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import LearningError, NonDeterminismError, OutputLengthMismatchError
from repro.learning.equivalence import (
    ConformanceEquivalenceOracle,
    RandomWalkEquivalenceOracle,
)
from repro.learning.oracles import (
    CachedMembershipOracle,
    FunctionOracle,
    MealyMachineOracle,
)
from repro.learning.parallel import WorkerPool
from repro.learning.wpmethod import wp_method_suite
from repro.polca.algorithm import PolcaMembershipOracle
from repro.polca.interfaces import SimulatedCacheInterface
from repro.policies.lru import LRUPolicy
from repro.policies.registry import make_policy


def _machine(name: str, associativity: int = 4):
    return make_policy(name, associativity).to_mealy(max_states=200_000).minimize()


def _constant_outputs(word):
    """Module-level (hence picklable) toy output function: every symbol maps to 'x'."""
    return tuple("x" for _ in word)


class _UnregisteredLRU(LRUPolicy):
    """A policy whose name is not in the registry."""

    name = "LRU-UNREGISTERED"


def _answers_through_a_pool(sul, words, workers: int = 2):
    """Answer ``words`` through ``CachedMembershipOracle(WorkerPool(sul, n))``,
    checking that the workers, not the parent, executed them."""
    with WorkerPool(sul, workers) as pool:
        answers = CachedMembershipOracle(pool).output_query_batch(words)
    assert pool.shipped_words >= 1
    return answers


# ------------------------------------------------- shipping SULs to workers


class TestOracleFactories:
    """Every kind of system under learning ships to pool workers as itself."""

    def test_simulated_policy_factory_round_trips_and_answers(self):
        sul = PolcaMembershipOracle(
            SimulatedCacheInterface(make_policy("PLRU", 4)), kernel="auto"
        )
        reference = PolcaMembershipOracle(SimulatedCacheInterface(make_policy("PLRU", 4)))
        alphabet = reference.alphabet()
        words = [alphabet * 2, alphabet[::-1]]  # each input symbol, no prefixes
        expected = [reference.output_query(word) for word in words]
        assert _answers_through_a_pool(sul, words) == expected
        # The workers' probe counters come back into the parent's Polca.
        assert sul.statistics == reference.statistics

    def test_mealy_machine_factory(self):
        machine = _machine("LRU", 2)
        word = tuple(machine.inputs)
        assert _answers_through_a_pool(MealyMachineOracle(machine), [word]) == [
            machine.run(word)
        ]

    def test_function_factory(self):
        sul = FunctionOracle(_constant_outputs)
        assert _answers_through_a_pool(sul, [("a", "b")]) == [("x", "x")]

    def test_factory_for_registered_simulated_cache(self):
        # A registry policy ships with its tabulated kernel already bound:
        # workers step the parent's table instead of tabulating it again.
        cache = SimulatedCacheInterface(make_policy("SRRIP-HP", 4))
        sul = PolcaMembershipOracle(cache, kernel="auto")
        assert sul.kernel_in_use == "python"
        assert pickle.loads(pickle.dumps(sul)).kernel_in_use == "python"
        reference = PolcaMembershipOracle(
            SimulatedCacheInterface(make_policy("SRRIP-HP", 4))
        )
        word = tuple(reference.alphabet())[:3]
        assert _answers_through_a_pool(sul, [word]) == [reference.output_query(word)]

    def test_factory_for_unregistered_cache_pickles_the_interface(self):
        sul = PolcaMembershipOracle(SimulatedCacheInterface(_UnregisteredLRU(2)))
        reference = PolcaMembershipOracle(SimulatedCacheInterface(make_policy("LRU", 2)))
        word = tuple(reference.alphabet())
        assert _answers_through_a_pool(sul, [word]) == [reference.output_query(word)]

    def test_non_default_registry_policy_uses_the_pickle_fallback(self):
        # SRRIPPolicy(2, bits=3) carries the registry name "SRRIP-HP" but a
        # non-default parameter; workers must simulate this very policy,
        # not the registry's default for its name.
        from repro.policies.srrip import SRRIPPolicy

        sul = PolcaMembershipOracle(
            SimulatedCacheInterface(SRRIPPolicy(2, variant="HP", bits=3)), kernel="auto"
        )
        reference = PolcaMembershipOracle(
            SimulatedCacheInterface(SRRIPPolicy(2, variant="HP", bits=3))
        )
        word = tuple(reference.alphabet()) * 2
        assert _answers_through_a_pool(sul, [word]) == [reference.output_query(word)]

    def test_cachequery_interface_over_a_populated_store_ships(self, tmp_path):
        # One store backs the frontend and the learning trie across a sweep,
        # so by the second target it already holds namespaces when the
        # interface is pickled for the pool.
        from repro.cachequery.frontend import (
            CacheQuery,
            CacheQueryConfig,
            CacheQuerySetInterface,
        )
        from repro.hardware.cpu import SimulatedCPU
        from repro.hardware.profiles import cpu_profile
        from repro.hardware.timing import NoiseModel
        from repro.store import PrefixStore

        store = PrefixStore(str(tmp_path / "corpus.store"))
        profile = cpu_profile("i5-6500").with_level("L2", associativity=2)
        frontend = CacheQuery(
            SimulatedCPU(profile, noise=NoiseModel(std=0.0)),
            CacheQueryConfig(level="L2", set_index=3),
            store=store,
        )
        interface = CacheQuerySetInterface(frontend)
        polca = PolcaMembershipOracle(interface)
        engine = CachedMembershipOracle(polca, store=store)
        word = tuple(polca.alphabet())
        expected = engine.output_query(word)
        assert len(store.namespaces()) == 2 and store.pending_records > 0

        shipped = pickle.loads(pickle.dumps(polca)).cache.frontend.cache.store
        pending = shipped.pending_records
        shipped.namespace(("fresh",)).record(("a",), ("x",))
        assert shipped.pending_records == pending + 1  # still journals
        longer = word + word[:1]
        assert _answers_through_a_pool(polca, [word, longer]) == [
            expected,
            PolcaMembershipOracle(interface).output_query(longer),
        ]

    def test_unpicklable_cache_is_rejected_with_learning_error(self):
        class LocalCache:  # local classes cannot be pickled
            associativity = 2

        with pytest.raises(LearningError, match="cannot be shipped to worker processes"):
            WorkerPool(LocalCache(), 2)


# ------------------------------------------------- external observations API


class TestExternalObservations:
    def test_record_external_feeds_the_cache(self):
        machine = _machine("LRU", 2)
        engine = CachedMembershipOracle(MealyMachineOracle(machine))
        word = tuple(machine.inputs)
        engine.record_external(word, machine.run(word))
        assert engine.cached_answer(word) == machine.run(word)
        # Serving the word is now a pure cache hit: no delegate execution.
        assert engine.output_query(word) == machine.run(word)
        assert engine.statistics.membership_queries == 0
        assert engine.statistics.cache_hits == 1

    def test_cached_answer_is_a_pure_peek(self):
        machine = _machine("LRU", 2)
        engine = CachedMembershipOracle(MealyMachineOracle(machine))
        assert engine.cached_answer(tuple(machine.inputs)) is None
        assert engine.statistics.membership_queries == 0
        assert engine.statistics.cache_hits == 0

    def test_record_external_detects_non_determinism(self):
        machine = _machine("LRU", 2)
        engine = CachedMembershipOracle(MealyMachineOracle(machine))
        word = tuple(machine.inputs)
        outputs = machine.run(word)
        engine.record_external(word, outputs)
        conflicting = ("WRONG",) + outputs[1:]
        with pytest.raises(NonDeterminismError):
            engine.record_external(word, conflicting)

    def test_record_external_rejects_wrong_length(self):
        engine = CachedMembershipOracle(MealyMachineOracle(_machine("LRU", 2)))
        with pytest.raises(OutputLengthMismatchError):
            engine.record_external(("a", "b"), ("x",))


# ------------------------------------------------------- the parallel oracle


def _pool_for(reference, workers: int = 2) -> WorkerPool:
    return WorkerPool(MealyMachineOracle(reference), workers)


def _engine(reference, pool=None) -> CachedMembershipOracle:
    return CachedMembershipOracle(pool or MealyMachineOracle(reference))


def _parallel_oracle(pool, reference, engine=None, **kwargs):
    return ConformanceEquivalenceOracle(engine or _engine(reference, pool), **kwargs)


class TestParallelConformance:
    def test_invalid_worker_count_rejected(self):
        reference = _machine("LRU", 2)
        with pytest.raises(ValueError):
            _engine(reference, _pool_for(reference, workers=0))

    def test_parallel_pass_on_correct_hypothesis(self):
        reference = _machine("PLRU", 4)
        with _pool_for(reference) as pool:
            equivalence = _parallel_oracle(pool, reference, batch_size=16)
            assert equivalence.find_counterexample(reference) is None
            assert pool.shipped_chunks >= 2
            assert pool.shipped_words >= 1
            assert sum(pool.worker_query_counts.values()) >= 1
            assert sum(pool.worker_symbol_counts.values()) >= 1
        # Closing the pool shut its executor down, but kept the per-worker
        # accounting readable.
        assert pool._executor is None
        assert sum(pool.worker_query_counts.values()) >= 1

    def test_parallel_counterexample_matches_serial(self):
        reference = _machine("LRU", 4)
        wrong = _machine("FIFO", 4)
        serial = ConformanceEquivalenceOracle(
            CachedMembershipOracle(MealyMachineOracle(reference)), batch_size=16
        )
        expected = serial.find_counterexample(wrong)
        assert expected is not None
        with _pool_for(reference) as pool:
            found = _parallel_oracle(pool, reference, batch_size=16).find_counterexample(
                wrong
            )
        assert found == expected
        assert reference.run(found) != wrong.run(found)

    def test_parallel_answers_merge_into_shared_trie(self):
        reference = _machine("MRU", 4)
        with _pool_for(reference) as pool:
            engine = _engine(reference, pool)
            equivalence = _parallel_oracle(pool, reference, engine=engine)
            assert equivalence.find_counterexample(reference) is None
        suite = wp_method_suite(reference, 1)
        assert all(engine.cached_answer(word) is not None for word in suite)
        # The suite was answered by workers, and their executions count as
        # membership queries on the shared engine (and fold into the wrapped
        # SUL's statistics), keeping reports comparable to a serial run.
        executed = sum(pool.worker_query_counts.values())
        assert pool.shipped_words == executed >= 1
        assert engine.statistics.membership_queries == executed
        assert pool.sul.statistics.membership_queries == executed

    def test_cached_words_are_not_shipped(self):
        reference = _machine("LRU", 4)
        suite = wp_method_suite(reference, 1)
        with _pool_for(reference) as pool:
            engine = _engine(reference, pool)
            for word in suite:  # pre-answer everything
                engine.record_external(word, reference.run(word))
            equivalence = _parallel_oracle(pool, reference, engine=engine)
            assert equivalence.find_counterexample(reference) is None
        assert pool.shipped_words == 0
        assert pool.worker_query_counts == {}

    def test_parallel_path_detects_non_determinism(self):
        reference = _machine("LRU", 2)
        suite = wp_method_suite(reference, 1)
        # Poison the shared cache with a wrong answer for a proper prefix of
        # some suite word: the worker's (correct) answer must conflict.
        target = next(word for word in suite if len(word) >= 2)
        prefix = target[:1]
        true_first = reference.run(prefix)[0]
        with _pool_for(reference) as pool:
            engine = _engine(reference, pool)
            engine.record_external(
                prefix, ("poisoned" if true_first != "poisoned" else "other",)
            )
            equivalence = _parallel_oracle(pool, reference, engine=engine)
            with pytest.raises(NonDeterminismError):
                equivalence.find_counterexample(reference)

    def test_parallel_truncation_accounting_matches_serial(self):
        reference = _machine("MRU", 4)
        suite_size = len(wp_method_suite(reference, 1))
        cap = 5
        assert suite_size > cap
        with _pool_for(reference) as pool:
            equivalence = _parallel_oracle(pool, reference, max_tests=cap)
            assert equivalence.find_counterexample(reference) is None
        assert equivalence.statistics.tests_skipped == suite_size - cap
        assert equivalence.statistics.test_words == cap


# --------------------------------------------------- random walk batching


class TestRandomWalkBatching:
    def test_random_walk_uses_the_batched_engine(self):
        reference = _machine("LRU", 4)
        engine = CachedMembershipOracle(MealyMachineOracle(reference))
        oracle = RandomWalkEquivalenceOracle(
            engine, reference.inputs, num_words=40, seed=7, batch_size=16
        )
        assert oracle.find_counterexample(reference) is None
        assert engine.statistics.batches >= 3  # ceil(40 / 16)
        assert oracle.statistics.test_words == 40

    def test_random_walk_finds_counterexample_within_first_batch(self):
        reference = _machine("LRU", 4)
        wrong = _machine("FIFO", 4)
        engine = CachedMembershipOracle(MealyMachineOracle(reference))
        oracle = RandomWalkEquivalenceOracle(
            engine, reference.inputs, num_words=200, seed=3, batch_size=32
        )
        counterexample = oracle.find_counterexample(wrong)
        assert counterexample is not None
        assert reference.run(counterexample) != wrong.run(counterexample)
        # Stopped at the first mismatching batch, not after all 200 words.
        assert oracle.statistics.test_words <= 200

    def test_random_walk_counterexample_stable_for_seed(self):
        reference = _machine("LRU", 4)
        wrong = _machine("FIFO", 4)

        def run_once(batch_size):
            engine = CachedMembershipOracle(MealyMachineOracle(reference))
            oracle = RandomWalkEquivalenceOracle(
                engine, reference.inputs, num_words=200, seed=11, batch_size=batch_size
            )
            return oracle.find_counterexample(wrong)

        # The first mismatching word in generation order does not depend on
        # how the words are chunked into batches.
        assert run_once(1) == run_once(64) == run_once(200)

    def test_random_walk_rejects_bad_batch_size(self):
        engine = CachedMembershipOracle(MealyMachineOracle(_machine("LRU", 2)))
        with pytest.raises(ValueError):
            RandomWalkEquivalenceOracle(engine, ("a",), batch_size=0)

    def test_random_walk_rejects_an_empty_alphabet(self):
        engine = CachedMembershipOracle(MealyMachineOracle(_machine("LRU", 2)))
        with pytest.raises(ValueError, match="alphabet"):
            RandomWalkEquivalenceOracle(engine, ())

    def test_random_walk_rejects_min_length_above_max_length(self):
        engine = CachedMembershipOracle(MealyMachineOracle(_machine("LRU", 2)))
        with pytest.raises(ValueError, match="min_length"):
            RandomWalkEquivalenceOracle(engine, ("a",), min_length=5, max_length=4)
