"""Unit tests for the process-parallel observation-table fill.

Covers :class:`repro.learning.parallel.WorkerPool` (a membership oracle
wrapping the system under learning, shared by the membership and
equivalence oracle sides), the engine's batches over a pool
(``CachedMembershipOracle(WorkerPool(sul, n))``: answers in batch order,
merged into the shared trie, bit-identical table cells), its dead-worker
recovery, and learners running on such an engine.
"""

from __future__ import annotations

import functools
import os

import pytest

from repro.errors import LearningError, NonDeterminismError
from repro.learning.equivalence import ConformanceEquivalenceOracle
from repro.learning.learner import MealyLearner
from repro.learning.observation_table import ObservationTable
from repro.learning.oracles import (
    CachedMembershipOracle,
    FunctionOracle,
    MealyMachineOracle,
)
from repro.learning.parallel import WorkerPool
from repro.learning.query_engine import output_query_batch
from repro.learning.wpmethod import wp_method_suite
from repro.policies.registry import make_policy


def _machine(name: str, associativity: int = 4):
    return make_policy(name, associativity).to_mealy(max_states=200_000).minimize()


def _pool_for(machine, workers: int = 2) -> WorkerPool:
    return WorkerPool(MealyMachineOracle(machine), workers)


def _engine(machine, pool=None) -> CachedMembershipOracle:
    return CachedMembershipOracle(pool or MealyMachineOracle(machine))


def _all_hits(word):
    return tuple("Hit" for _ in word)


def _exit_on_marker(word):
    """A SUL whose process dies on the ``"die"`` symbol (run in workers only)."""
    if "die" in word:
        os._exit(1)
    return _all_hits(word)


def _exit_once_on_marker(flag_path, word):
    """Like :func:`_exit_on_marker`, but only the first process to see the
    marker dies: it leaves ``flag_path`` behind for every later one."""
    if "die" in word and not os.path.exists(flag_path):
        open(flag_path, "w").close()
        os._exit(1)
    return _all_hits(word)


# ------------------------------------------------------------------ WorkerPool


class TestWorkerPool:
    def test_rejects_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(None, 0)

    def test_answer_batch_matches_serial_engine(self):
        machine = _machine("MRU", 4)
        suite = wp_method_suite(machine, 1)
        # Include duplicates and proper prefixes: the batch contract returns
        # one answer per input word, in input order.
        words = suite[:40] + suite[:5] + [suite[0][:1]]
        serial_engine = _engine(machine)
        expected = output_query_batch(serial_engine, words)
        with _pool_for(machine) as pool:
            engine = _engine(machine, pool)
            assert engine.output_query_batch(words) == expected
        assert pool.shipped_words >= 1

    def test_answer_batch_merges_into_shared_trie(self):
        machine = _machine("LRU", 4)
        words = wp_method_suite(machine, 1)[:100]
        with _pool_for(machine) as pool:
            engine = _engine(machine, pool)
            engine.output_query_batch(words)
            assert all(engine.cached_answer(word) is not None for word in words)
            # Workers executed everything, one contiguous chunk each, and
            # their executions count as the engine's membership queries so
            # reports stay comparable across worker counts.
            assert pool.shipped_words >= 65
            assert pool.shipped_chunks == 2
            assert sum(pool.worker_query_counts.values()) == pool.shipped_words
            assert sum(pool.worker_symbol_counts.values()) >= 1
            assert engine.statistics.membership_queries == sum(
                pool.worker_query_counts.values()
            )
            assert engine.statistics.membership_symbols == sum(
                pool.worker_symbol_counts.values()
            )
            # The worker deltas fold into the wrapped SUL's statistics.
            assert pool.sul.statistics.membership_queries == sum(
                pool.worker_query_counts.values()
            )

    def test_answer_batch_skips_cached_words(self):
        machine = _machine("LRU", 4)
        words = wp_method_suite(machine, 1)[:20]
        with _pool_for(machine) as pool:
            engine = _engine(machine, pool)
            for word in words:  # pre-answer everything
                engine.record_external(word, machine.run(word))
            hits_before = engine.statistics.cache_hits
            answers = engine.output_query_batch(words)
            assert answers == [machine.run(word) for word in words]
            assert pool.shipped_words == 0
            assert pool.worker_query_counts == {}
        assert engine.statistics.cache_hits == hits_before + len(words)

    def test_answer_batch_detects_non_determinism(self):
        machine = _machine("LRU", 2)
        words = [word for word in wp_method_suite(machine, 1) if len(word) >= 2][:10]
        with _pool_for(machine) as pool:
            engine = _engine(machine, pool)
            prefix = words[0][:1]
            true_first = machine.run(prefix)[0]
            engine.record_external(
                prefix, ("poisoned" if true_first != "poisoned" else "other",)
            )
            with pytest.raises(NonDeterminismError):
                engine.output_query_batch(words)

    def test_dead_worker_raises_learning_error(self):
        """A worker that exits mid-chunk, and again after the pool restarts,
        surfaces as a typed error naming the chunk and the serial remedy,
        not as a raw ``BrokenProcessPool``."""
        with WorkerPool(FunctionOracle(_exit_on_marker), 2) as pool:
            engine = CachedMembershipOracle(pool)
            with pytest.raises(LearningError, match=r"chunk of 2 words.*--workers 0"):
                engine.output_query_batch([("a",), ("b",), ("c", "die"), ("d",)])
            assert pool._executor is None  # the broken executor was shut down

    def test_worker_that_dies_once_is_replaced_and_its_chunk_reshipped(self, tmp_path):
        """One death costs a restart, not the run: the pool re-ships the
        unanswered chunk to a fresh executor, and answers and counts equal a
        serial run's because only answered chunks are accounted."""
        words = [("a",), ("b",), ("c", "die"), ("d",), ("e", "f")]
        serial_sul = FunctionOracle(_all_hits)
        serial = CachedMembershipOracle(serial_sul)
        expected = serial.output_query_batch(words)
        function = functools.partial(_exit_once_on_marker, str(tmp_path / "died"))
        with WorkerPool(FunctionOracle(function), 2) as pool:
            engine = CachedMembershipOracle(pool)
            assert engine.output_query_batch(words) == expected
            assert (tmp_path / "died").exists()  # a worker really died
            assert pool._executor is not None  # its replacement stays up
        assert engine.statistics == serial.statistics
        assert pool.sul.statistics == serial_sul.statistics
        assert pool.shipped_words == len(words)
        assert sum(pool.worker_query_counts.values()) == len(words)

    def test_close_is_idempotent(self):
        machine = _machine("LRU", 2)
        pool = _pool_for(machine)
        _engine(machine, pool).output_query_batch([tuple(machine.inputs)])
        pool.close()
        pool.close()


# -------------------------------------------------------- parallel table fill


class TestParallelObservationTable:
    def test_parallel_fill_is_bit_identical_to_serial(self):
        machine = _machine("PLRU", 4)
        serial_engine = _engine(machine)
        serial = ObservationTable(machine.inputs, serial_engine)
        serial.make_closed_and_consistent()
        with _pool_for(machine) as pool:
            parallel_engine = _engine(machine, pool)
            parallel = ObservationTable(machine.inputs, parallel_engine)
            parallel.make_closed_and_consistent()
        assert parallel.short_prefixes == serial.short_prefixes
        assert parallel.suffixes == serial.suffixes
        assert parallel._cells == serial._cells
        assert parallel.hypothesis() == serial.hypothesis()
        assert pool.shipped_words >= 1
        assert parallel_engine.statistics.membership_queries == (
            serial_engine.statistics.membership_queries
        )

    def test_parallel_fill_feeds_the_shared_engine(self):
        machine = _machine("MRU", 4)
        with _pool_for(machine) as pool:
            engine = _engine(machine, pool)
            table = ObservationTable(machine.inputs, engine)
            table.make_closed_and_consistent()
        # Every fill round went through the pool: the workers did the work,
        # and the engine's query counts reflect it.
        assert engine.statistics.membership_queries == sum(
            pool.worker_query_counts.values()
        )
        assert pool.shipped_words == sum(pool.worker_query_counts.values())
        assert pool.shipped_words >= 1
        assert engine.size >= 1


# ------------------------------------------------------------ learner wiring


class TestLearnerWorkers:
    def _learn(self, machine, pool=None):
        engine = _engine(machine, pool)
        equivalence = ConformanceEquivalenceOracle(engine, depth=1)
        learner = MealyLearner(machine.inputs, engine, equivalence)
        return learner.learn()

    def test_workers_must_be_positive(self):
        machine = _machine("LRU", 2)
        for workers in (0, -1):
            with pytest.raises(ValueError):
                self._learn(machine, pool=_pool_for(machine, workers))

    def test_parallel_fill_learns_bit_identical_machine(self):
        machine = _machine("PLRU", 4)
        serial = self._learn(machine)
        with _pool_for(machine) as pool:
            parallel = self._learn(machine, pool=pool)
        assert parallel.machine == serial.machine
        assert parallel.rounds == serial.rounds
        assert parallel.counterexamples == serial.counterexamples
        assert pool.shipped_words >= 1

    def test_shared_pool_is_left_running(self):
        machine = _machine("LRU", 2)
        with _pool_for(machine) as pool:
            engine = _engine(machine, pool)
            equivalence = ConformanceEquivalenceOracle(engine, depth=1)
            learner = MealyLearner(machine.inputs, engine, equivalence)
            learner.learn()
            assert pool._executor is not None  # still usable by its owner
            assert sum(pool.worker_query_counts.values()) >= 1


# --------------------------------------------------- one pool, both sides


class TestSharedPoolBothSides:
    def test_fill_and_equivalence_share_one_pool(self):
        machine = _machine("PLRU", 4)
        with _pool_for(machine) as pool:
            engine = _engine(machine, pool)
            equivalence = ConformanceEquivalenceOracle(engine, depth=1)
            learner = MealyLearner(machine.inputs, engine, equivalence)
            result = learner.learn()
            # Membership and conformance words both flowed through the pool:
            # every executed query ran on a worker, and the worker
            # executions still count as membership queries.
            assert engine.statistics.membership_queries == sum(
                pool.worker_query_counts.values()
            )
            assert pool.shipped_words == sum(pool.worker_query_counts.values())
            # A deeper suite over the same engine ships its new words too.
            shipped = pool.shipped_words
            deeper = ConformanceEquivalenceOracle(engine, depth=2)
            assert deeper.find_counterexample(result.machine) is None
            assert pool.shipped_words > shipped
        serial = TestLearnerWorkers()._learn(machine)
        assert result.machine == serial.machine

    def test_equivalence_close_leaves_shared_pool_up(self):
        """Only the pool's owner closes it: the conformance oracle has no
        ``close()`` of its own, and a finished search leaves the shared
        pool running for the next round."""
        machine = _machine("LRU", 2)
        with _pool_for(machine) as pool:
            equivalence = ConformanceEquivalenceOracle(_engine(machine, pool), depth=1)
            assert equivalence.find_counterexample(machine) is None
            assert not hasattr(equivalence, "close")
            assert pool._executor is not None  # owned by the caller, not us
        assert pool._executor is None
