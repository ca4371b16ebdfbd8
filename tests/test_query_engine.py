"""Tests for the batched, trie-backed query engine and its satellite fixes."""

import random
import warnings

import pytest

from repro.cachequery.backend import CacheQueryBackend
from repro.errors import LearningError, NonDeterminismError, OutputLengthMismatchError
from repro.hardware.cpu import SimulatedCPU
from repro.hardware.profiles import SKYLAKE_I5_6500
from repro.hardware.timing import NoiseModel
from repro.learning import (
    CachedMembershipOracle,
    ConformanceEquivalenceOracle,
    FunctionOracle,
    MealyLearner,
    MealyMachineOracle,
    ObservationTable,
    PerfectEquivalenceOracle,
    ResponseTrie,
    dedupe_and_subsume,
    output_query_batch,
    partition_batch,
    supports_batching,
    wp_method_suite,
)
from repro.learning.learner import learn_mealy_machine, make_learner
from repro.mbl.expansion import expand
from repro.polca.algorithm import PolcaMembershipOracle
from repro.polca.interfaces import SimulatedCacheInterface
from repro.policies.registry import available_policies, make_policy


def _echo(word):
    """A deterministic, prefix-closed oracle function: position numbers."""
    return tuple(range(1, len(word) + 1))


class TestResponseTrie:
    def test_lookup_and_prefix_sharing(self):
        trie = ResponseTrie()
        trie.insert(("a", "b", "c"), (1, 2, 3))
        assert trie.lookup(("a", "b", "c")) == (1, 2, 3)
        assert trie.lookup(("a", "b")) == (1, 2)
        assert trie.lookup(("a",)) == (1,)
        assert trie.lookup(("b",)) is None
        assert trie.lookup(()) == ()
        # Three nodes store the word and both proper prefixes.
        assert len(trie) == 3

    def test_extension_of_a_stored_word_is_a_miss(self):
        """Only stored words and their prefixes are answered: a word that
        extends a stored one is executed whole."""
        trie = ResponseTrie()
        trie.insert(("a", "b"), (1, 2))
        assert trie.lookup(("a", "b", "c", "d")) is None
        trie.insert(("a", "b", "c", "d"), (1, 2, 3, 4))
        assert trie.lookup(("a", "b", "c")) == (1, 2, 3)

    def test_structural_sharing_of_common_prefixes(self):
        trie = ResponseTrie()
        trie.insert(("a", "b", "c"), (1, 2, 3))
        trie.insert(("a", "b", "d"), (1, 2, 4))
        # The shared prefix a·b is stored once: 3 + 1 nodes, not 6.
        assert len(trie) == 4

    def test_nondeterminism_on_conflicting_prefix(self):
        trie = ResponseTrie()
        trie.insert(("a", "b"), (1, 2))
        with pytest.raises(NonDeterminismError) as info:
            trie.insert(("a", "b", "c"), (1, 9, 3))
        assert info.value.query == ("a", "b")
        assert info.value.first == (1, 2)
        assert info.value.second == (1, 9)

    def test_insert_rejects_length_mismatch(self):
        trie = ResponseTrie()
        with pytest.raises(ValueError):
            trie.insert(("a", "b"), (1,))

    def test_clear(self):
        trie = ResponseTrie()
        trie.insert(("a",), (1,))
        trie.clear()
        assert len(trie) == 0
        assert trie.lookup(("a",)) is None


class TestDedupeAndSubsume:
    def test_duplicates_collapse(self):
        assert dedupe_and_subsume([("a",), ("a",), ("b",)]) == [("a",), ("b",)]

    def test_prefixes_are_subsumed(self):
        words = [("a",), ("a", "b"), ("a", "b", "c"), ("x", "y"), ("x",)]
        assert dedupe_and_subsume(words) == [("a", "b", "c"), ("x", "y")]

    def test_empty_word_dropped(self):
        assert dedupe_and_subsume([(), ("a",)]) == [("a",)]

    def test_order_of_maximal_words_preserved(self):
        words = [("b", "b"), ("a",), ("a", "c")]
        assert dedupe_and_subsume(words) == [("b", "b"), ("a", "c")]

    def test_matches_a_brute_force_reference_on_seeded_batches(self):
        def reference(words):
            words = [tuple(word) for word in words]
            maximal = []
            for word in words:
                if not word or word in maximal:
                    continue
                if any(len(other) > len(word) and other[: len(word)] == word for other in words):
                    continue
                maximal.append(word)
            return maximal

        # object() symbols hash but do not order.
        symbols = [object() for _ in range(3)]
        lengths_seen = set()
        for seed in range(300):
            rng = random.Random(seed)
            batch = []
            for _ in range(rng.randint(0, 40)):
                roll = rng.random()
                if batch and roll < 0.25:
                    batch.append(rng.choice(batch))  # a duplicate
                elif batch and roll < 0.5:
                    base = rng.choice(batch)  # a prefix or an extension
                    cut = rng.randint(0, len(base))
                    extension = [rng.choice(symbols) for _ in range(rng.randint(0, 4))]
                    batch.append(tuple(base[:cut]) + tuple(extension))
                elif roll < 0.55:
                    batch.append(())
                else:
                    length = rng.choice((rng.randint(1, 4), rng.randint(10, 14)))
                    batch.append(tuple(rng.choice(symbols) for _ in range(length)))
            # Half the batches hand lists, as callers outside the engine may.
            if seed % 2:
                batch = [list(word) for word in batch]
            lengths_seen.update(map(len, batch))
            assert dedupe_and_subsume(batch) == reference(batch), seed
        assert 0 in lengths_seen and max(lengths_seen) >= 14


class TestPartitionBatch:
    def test_counts_known_words_and_subsumes_only_the_misses(self):
        known = {(): (), ("a",): (1,), ("a", "b"): (1, 2)}
        words = [("a",), ("c",), ("a", "b"), ("c", "d"), ("a",), (), ("c", "d")]
        answers, missing = partition_batch(words, known.get)
        assert answers == [(1,), None, (1, 2), None, (1,), (), None]
        # Duplicates and the empty word count as cache hits.
        assert len(answers) - answers.count(None) == 4
        assert missing == [("c", "d")]


class TestBatchedOracles:
    def test_single_query_path_types_a_short_answer(self):
        """An oracle without a batch entry point is driven word by word; an
        answer of the wrong length is the engine's typed error, not a bare
        ``ValueError`` from the scratch trie."""
        oracle = FunctionOracle(lambda word: word[:-1])
        with pytest.raises(OutputLengthMismatchError) as caught:
            output_query_batch(oracle, [("a", "b")])
        assert caught.value.word == ("a", "b")
        assert caught.value.outputs == ("a",)

    def test_function_oracle_batch_executes_only_maximal_words(self):
        oracle = FunctionOracle(_echo)
        assert not supports_batching(oracle)
        words = [("a",), ("a", "b"), ("a", "b"), ("a", "b", "c")]
        answers = output_query_batch(oracle, words)
        assert answers == [(1,), (1, 2), (1, 2), (1, 2, 3)]
        # Only the maximal word was executed.
        assert oracle.statistics.membership_queries == 1
        assert oracle.statistics.membership_symbols == 3

    def test_batch_helper_falls_back_to_serial_queries(self):
        class Plain:
            def __init__(self):
                self.calls = []

            def output_query(self, word):
                self.calls.append(tuple(word))
                return _echo(word)

        plain = Plain()
        assert not supports_batching(plain)
        answers = output_query_batch(plain, [("a", "b"), ("a",)])
        assert answers == [(1, 2), (1,)]
        assert plain.calls == [("a", "b")]  # the prefix was subsumed

    def test_mealy_oracle_answers_from_the_initial_state(self):
        machine = make_policy("LRU", 2).to_mealy().minimize()
        oracle = MealyMachineOracle(machine)
        word = tuple(machine.inputs[:2])
        full = oracle.output_query(word)
        assert oracle.output_query(word[:1]) == full[:1]
        assert oracle.output_query(word[1:]) == machine.run(word[1:])
        assert oracle.statistics.membership_symbols == 4


class TestCachedMembershipOracle:
    def test_serves_prefixes_without_reexecution(self):
        delegate = FunctionOracle(_echo)
        cached = CachedMembershipOracle(delegate)
        cached.output_query(("a", "b", "c"))
        assert cached.output_query(("a", "b")) == (1, 2)
        assert delegate.statistics.membership_queries == 1
        assert cached.statistics.cache_hits == 1
        assert cached.size == 3

    def test_extension_of_a_cached_word_runs_whole(self):
        machine = make_policy("PLRU", 4).to_mealy().minimize()
        oracle = MealyMachineOracle(machine)
        cached = CachedMembershipOracle(oracle)
        word = tuple(machine.inputs)[:3]
        prefix = cached.output_query(word[:2])
        executed_before = oracle.statistics.membership_symbols
        answer = cached.output_query(word)
        # The cached prefix gives no head start: all three symbols run.
        assert oracle.statistics.membership_symbols == executed_before + 3
        assert answer[:2] == prefix
        assert cached.statistics.cache_hits == 0

    def test_batch_dedups_and_serves_from_cache(self):
        delegate = FunctionOracle(_echo)
        cached = CachedMembershipOracle(delegate)
        cached.output_query(("a",))
        executed_before = delegate.statistics.membership_queries
        answers = cached.output_query_batch(
            [("a",), ("a", "b"), ("a", "b"), ("c",), ()]
        )
        assert answers == [(1,), (1, 2), (1, 2), (1,), ()]
        assert cached.statistics.batches == 1
        # ("a",) came from the cache; only ("a","b") and ("c",) were executed.
        assert delegate.statistics.membership_queries == executed_before + 2

    def test_detects_nondeterminism_on_conflicting_prefixes(self):
        answers = iter([("x",), ("y", "z")])
        cached = CachedMembershipOracle(FunctionOracle(lambda word: next(answers)))
        cached.output_query(("a",))
        with pytest.raises(NonDeterminismError):
            cached.output_query(("a", "b"))

    def test_batch_with_a_missing_answer_is_rejected(self):
        class DropsLastAnswer(FunctionOracle):
            def output_query_batch(self, words):
                return [self.output_query(word) for word in words][:-1]

        cached = CachedMembershipOracle(DropsLastAnswer(_echo))
        with pytest.raises(LearningError, match="1 answers for a batch of 2"):
            cached.output_query_batch([("a",), ("b", "c")])

    def test_batch_truncated_answer_raises_dedicated_error(self):
        class TruncatesOneAnswer(FunctionOracle):
            def output_query_batch(self, words):
                answers = [self.output_query(word) for word in words]
                answers[1] = answers[1][:-1]
                return answers

        cached = CachedMembershipOracle(TruncatesOneAnswer(_echo))
        with pytest.raises(OutputLengthMismatchError) as info:
            cached.output_query_batch([("a",), ("b", "c")])
        # The batch path raises the typed error, naming the short answer,
        # not the trie's bare length ValueError.
        assert info.value.word == ("b", "c")
        assert info.value.outputs == (1,)

    def test_truncated_answer_raises_dedicated_error(self):
        cached = CachedMembershipOracle(FunctionOracle(lambda word: ("x",)))
        with pytest.raises(OutputLengthMismatchError) as info:
            cached.output_query(("a", "b"))
        # Regression: the old code raised NonDeterminismError(word, outputs,
        # word), printing the *input* word as a conflicting output.
        assert info.value.word == ("a", "b")
        assert info.value.outputs == ("x",)
        assert isinstance(info.value, NonDeterminismError)
        assert "2-symbol" in str(info.value)
        assert str(["a", "b"]) not in str(info.value).split(":")[-1]


class TestObservationTableBatching:
    def test_fill_issues_one_batch_per_round(self):
        machine = make_policy("LRU", 2).to_mealy().minimize()
        engine = CachedMembershipOracle(MealyMachineOracle(machine))
        ObservationTable(machine.inputs, engine)
        # The constructor's fill is a single batch.
        assert engine.statistics.batches == 1

    def test_row_memoisation_and_invalidation_on_add_suffix(self):
        machine = make_policy("LRU", 2).to_mealy().minimize()
        table = ObservationTable(machine.inputs, MealyMachineOracle(machine))
        row_before = table.row(())
        assert table.row(()) is row_before  # memoised: same object
        new_suffix = tuple(machine.inputs[:2])
        assert table.add_suffix(new_suffix)
        row_after = table.row(())
        assert row_after is not row_before
        assert len(row_after) == len(row_before) + 1
        assert row_after[: len(row_before)] == row_before

    def test_missing_cells_empty_after_fill(self):
        machine = make_policy("FIFO", 2).to_mealy().minimize()
        table = ObservationTable(machine.inputs, MealyMachineOracle(machine))
        assert table.missing_cells() == []
        table.add_short_prefix((machine.inputs[0],))
        assert table.missing_cells() == []

    def test_missing_cells_match_a_full_rescan_before_every_fill(self):
        machine = make_policy("PLRU", 4).to_mealy().minimize()
        alphabet = tuple(machine.inputs)
        table = ObservationTable(alphabet, MealyMachineOracle(machine))
        fill = table.fill
        scans = []

        def checked_fill():
            rescan = [
                (prefix, suffix)
                for prefix in table.all_prefixes()
                for suffix in table.suffixes
                if (prefix, suffix) not in table._cells
            ]
            assert table.missing_cells() == rescan
            scans.append(len(rescan))
            fill()

        table.fill = checked_fill
        rng = random.Random("incremental-scan")
        # A suffix whose two tails are not columns yet: all three arrive at once.
        assert table.add_suffix((alphabet[0], alphabet[-1], alphabet[1]))
        assert {(alphabet[-1], alphabet[1]), (alphabet[0], alphabet[-1], alphabet[1])} <= set(
            table.suffixes
        )
        for _ in range(30):
            action = rng.randrange(3)
            if action == 0:
                long_rows = [
                    prefix
                    for prefix in table.all_prefixes()
                    if prefix not in table.short_prefixes
                ]
                table.add_short_prefix(rng.choice(long_rows))
            elif action == 1:
                length = rng.randint(1, 3)
                table.add_suffix(tuple(rng.choice(alphabet) for _ in range(length)))
            else:
                # Out of band, through the _query_cell that find_inconsistency
                # uses: a cell of a future long row and one of a future column.
                prefix = rng.choice(table.all_prefixes()) + (rng.choice(alphabet),)
                table._query_cell(prefix + (rng.choice(alphabet),), rng.choice(table.suffixes))
                future_suffix = tuple(rng.choice(alphabet) for _ in range(4))
                table._query_cell(rng.choice(table.all_prefixes()), future_suffix)
                table.add_short_prefix(prefix)
                table.add_suffix(future_suffix)
            # Fills (checked) before it compares rows.
            table.find_inconsistency()
        assert len(scans) > 40 and sum(scans) > 0
        assert table.missing_cells() == []


class TestConformanceBatchingAndTruncation:
    def test_truncation_is_recorded_not_silent(self):
        reference = make_policy("MRU", 4).to_mealy().minimize()
        oracle = MealyMachineOracle(reference)
        equivalence = ConformanceEquivalenceOracle(oracle, depth=1, max_tests=5)
        assert equivalence.find_counterexample(reference) is None
        assert equivalence.statistics.tests_skipped > 0
        assert equivalence.statistics.test_words == 5

    def test_truncation_accounting_is_exact_and_accumulates(self):
        reference = make_policy("MRU", 4).to_mealy().minimize()
        suite_size = len(wp_method_suite(reference, 1))
        cap = 7
        assert suite_size > cap
        oracle = MealyMachineOracle(reference)
        equivalence = ConformanceEquivalenceOracle(oracle, depth=1, max_tests=cap)
        assert equivalence.find_counterexample(reference) is None
        assert equivalence.statistics.tests_skipped == suite_size - cap
        assert equivalence.statistics.test_words == cap
        # A second equivalence query accumulates instead of resetting.
        assert equivalence.find_counterexample(reference) is None
        assert equivalence.statistics.tests_skipped == 2 * (suite_size - cap)
        assert equivalence.statistics.test_words == 2 * cap
        assert oracle.statistics.membership_queries > 0

    def test_no_truncation_when_cap_exceeds_suite(self):
        reference = make_policy("LRU", 2).to_mealy().minimize()
        suite_size = len(wp_method_suite(reference, 1))
        equivalence = ConformanceEquivalenceOracle(
            MealyMachineOracle(reference), depth=1, max_tests=suite_size
        )
        assert equivalence.find_counterexample(reference) is None
        assert equivalence.statistics.tests_skipped == 0
        assert equivalence.statistics.test_words == suite_size

    def test_learning_result_surfaces_truncation(self):
        reference = make_policy("LRU", 2).to_mealy().minimize()
        oracle = MealyMachineOracle(reference)
        equivalence = ConformanceEquivalenceOracle(oracle, depth=1, max_tests=3)
        result = learn_mealy_machine(reference.inputs, oracle, equivalence)
        assert result.tests_skipped == equivalence.statistics.tests_skipped
        assert result.tests_skipped > 0
        assert not result.completeness_guaranteed

    def test_untruncated_suite_keeps_guarantee(self):
        reference = make_policy("LRU", 2).to_mealy().minimize()
        oracle = MealyMachineOracle(reference)
        equivalence = ConformanceEquivalenceOracle(oracle, depth=1)
        result = learn_mealy_machine(reference.inputs, oracle, equivalence)
        assert result.tests_skipped == 0
        assert result.completeness_guaranteed

    def test_batched_suite_finds_same_counterexample_region(self):
        reference = make_policy("LRU", 4).to_mealy().minimize()
        wrong = make_policy("FIFO", 4).to_mealy().minimize()
        oracle = MealyMachineOracle(reference)
        for batch_size in (1, 7, 512):
            equivalence = ConformanceEquivalenceOracle(oracle, depth=1, batch_size=batch_size)
            counterexample = equivalence.find_counterexample(wrong)
            assert counterexample is not None
            assert reference.run(counterexample) != wrong.run(counterexample)

    def test_pool_path_matches_serial(self):
        from repro.learning.parallel import WorkerPool

        reference = make_policy("LRU", 4).to_mealy().minimize()
        wrong = make_policy("FIFO", 4).to_mealy().minimize()
        with WorkerPool(MealyMachineOracle(reference), 2) as pool:
            for batch_size in (1, 7, 512):
                serial = ConformanceEquivalenceOracle(
                    CachedMembershipOracle(MealyMachineOracle(reference)),
                    depth=1,
                    batch_size=batch_size,
                )
                pooled = ConformanceEquivalenceOracle(
                    CachedMembershipOracle(pool),
                    depth=1,
                    batch_size=batch_size,
                )
                assert pooled.find_counterexample(wrong) == serial.find_counterexample(wrong)
                assert pooled.find_counterexample(reference) is None

    def test_invalid_batch_size_rejected(self):
        oracle = FunctionOracle(_echo)
        with pytest.raises(ValueError):
            ConformanceEquivalenceOracle(oracle, batch_size=0)

    def test_negative_depth_rejected_at_construction(self):
        oracle = FunctionOracle(_echo)
        with warnings.catch_warnings():
            # Not the non-minimal-hypothesis fallback's warning first.
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(LearningError, match="depth must be >= 0"):
                ConformanceEquivalenceOracle(oracle, depth=-1)

    def test_negative_depth_fails_before_polca_answers_a_query(self, monkeypatch):
        from repro.polca.pipeline import learn_simulated_policy

        answered = []
        for name in ("output_query", "output_query_batch"):
            original = getattr(PolcaMembershipOracle, name)

            def counting(self, words, _original=original, _name=name):
                answered.append(_name)
                return _original(self, words)

            monkeypatch.setattr(PolcaMembershipOracle, name, counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(LearningError, match="depth must be >= 0"):
                learn_simulated_policy(make_policy("PLRU", 4), depth=-1)
        assert answered == []


class TestPolcaBatch:
    def test_batch_matches_serial_answers_and_saves_probes(self):
        serial = PolcaMembershipOracle(SimulatedCacheInterface(make_policy("PLRU", 4)))
        batched = PolcaMembershipOracle(SimulatedCacheInterface(make_policy("PLRU", 4)))
        engine = CachedMembershipOracle(batched)
        alphabet = batched.alphabet()
        words = [
            (alphabet[0],),
            (alphabet[0], alphabet[-1]),
            (alphabet[0], alphabet[-1], alphabet[1]),
            (alphabet[0], alphabet[-1]),
        ]
        answers = engine.output_query_batch(words)
        assert answers == [serial.output_query(word) for word in words]
        # The engine handed Polca only the maximal word; Polca executes
        # exactly what it is handed.
        assert batched.statistics.policy_queries == 1
        assert serial.statistics.policy_queries == 4
        assert batched.output_query_batch(words[:2]) == answers[:2]
        assert batched.statistics.policy_queries == 3


class TestLearnerEngineEquivalence:
    def test_plain_oracle_is_wrapped_in_the_trie_engine(self):
        reference = make_policy("FIFO", 2).to_mealy()
        oracle = MealyMachineOracle(reference)
        learner = MealyLearner(
            reference.inputs, oracle, PerfectEquivalenceOracle(reference)
        )
        assert isinstance(learner.membership_oracle, CachedMembershipOracle)
        assert learner.membership_oracle._delegate is oracle

    def test_already_wrapped_oracle_is_not_double_wrapped(self):
        reference = make_policy("FIFO", 2).to_mealy()
        engine = CachedMembershipOracle(MealyMachineOracle(reference))
        learner = MealyLearner(
            reference.inputs, engine, PerfectEquivalenceOracle(reference)
        )
        assert learner.membership_oracle is engine


class _RecordingOracle:
    """A batching, non-resumable SUL that records every batch it executes
    and checks, at call time, that the engine has not cached its words."""

    def __init__(self, machine):
        self.machine = machine
        self.engine = None
        self.batches = []

    def output_query(self, word):
        assert self.engine.cached_answer(word) is None
        return self.machine.run(tuple(word))

    def output_query_batch(self, words):
        words = [tuple(word) for word in words]
        assert all(self.engine.cached_answer(word) is None for word in words)
        self.batches.append(words)
        return [self.machine.run(word) for word in words]


class TestSULBatchContract:
    @pytest.mark.parametrize("learner", ["lstar", "ttt"])
    def test_sul_batches_are_distinct_prefix_free_uncached_words(self, learner):
        reference = make_policy("PLRU", 4).to_mealy().minimize()
        sul = _RecordingOracle(reference)
        engine = CachedMembershipOracle(sul)
        sul.engine = engine
        equivalence = ConformanceEquivalenceOracle(engine, depth=1)
        result = make_learner(learner, reference.inputs, engine, equivalence).learn()
        assert reference.find_counterexample(result.machine) is None
        assert len(sul.batches) >= 2
        for batch in sul.batches:
            assert batch and all(batch)
            assert len(set(batch)) == len(batch)
            assert dedupe_and_subsume(batch) == batch  # no word prefixes another


class TestBackendCodegenRegression:
    def test_generated_code_initialises_mask_and_accumulates(self):
        cpu = SimulatedCPU(SKYLAKE_I5_6500, noise=NoiseModel(std=0.0))
        backend = CacheQueryBackend(cpu)
        backend.configure_target("L2", 0)
        (query,) = expand("A? B?", backend.associativity, backend.pool_blocks())
        code = backend.generate_code(query)
        # Regression: cmovb used r11 without initialising it and never
        # advanced the bit counter; each profiled access now sets its own
        # mask bit and ORs it into the r10 bitmask.
        assert "mov r11, 0x1" in code
        assert "mov r11, 0x2" in code
        assert code.count("or r10, r9") == 2
        assert code.index("mov r11, 0x1") < code.index("cmovb r9, r11")
        assert "xor r10, r10" in code


class TestCacheQueryBatchFrontend:
    def _frontend(self):
        from repro.cachequery.frontend import CacheQuery, CacheQueryConfig
        from repro.cachequery.backend import BackendConfig

        cpu = SimulatedCPU(SKYLAKE_I5_6500, noise=NoiseModel(std=0.0))
        return CacheQuery(
            cpu,
            CacheQueryConfig(level="L2", set_index=0, backend=BackendConfig(repetitions=1)),
        )

    def test_query_batch_dedups_concrete_queries(self):
        frontend = self._frontend()
        expression = "A B C?"
        results = frontend.query_batch([expression, expression, "A B?"])
        assert len(results) == 3
        assert results[0] == results[1]
        # Two distinct concrete queries executed, not three.
        assert frontend.backend.executed_queries == 2
        stats = frontend.cache_statistics()
        assert stats["entries"] == 2


@pytest.mark.slow
class TestFullRegistryEquivalenceSlow:
    def test_engine_learns_every_registered_policy_unchanged(self):
        """The trie engine learns every registered policy's own machine
        (associativity 2 keeps this tractable)."""
        for name in available_policies():
            try:
                reference = make_policy(name, 2).to_mealy().minimize()
            except Exception:
                continue
            oracle = MealyMachineOracle(reference)
            result = learn_mealy_machine(
                reference.inputs, oracle, PerfectEquivalenceOracle(reference)
            )
            assert reference.equivalent(result.machine), name
            assert result.machine.size == reference.size, name
