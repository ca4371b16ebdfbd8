"""Tests for the automata-learning stack (oracles, table, Wp-method, learner)."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import policy_input_alphabet
from repro.core.mealy import MealyMachine
from repro.errors import LearningError, NonDeterminismError
from repro.learning import (
    CachedMembershipOracle,
    ConformanceEquivalenceOracle,
    FunctionOracle,
    MealyLearner,
    MealyMachineOracle,
    ObservationTable,
    PerfectEquivalenceOracle,
    RandomWalkEquivalenceOracle,
    characterization_set,
    learn_mealy_machine,
    state_cover,
    transition_cover,
    w_method_suite,
    wp_method_suite,
)
from repro.learning.wpmethod import identification_sets, suite_total_symbols
from repro.policies.registry import make_policy


def _random_machine(num_states: int, seed: int, num_inputs: int = 2) -> MealyMachine:
    import random

    rng = random.Random(seed)
    inputs = [f"i{k}" for k in range(num_inputs)]
    states = list(range(num_states))
    transitions = {(s, i): rng.choice(states) for s in states for i in inputs}
    outputs = {(s, i): rng.randint(0, 2) for s in states for i in inputs}
    return MealyMachine(states, 0, inputs, transitions, outputs).reachable()


class TestOracles:
    def test_function_oracle_counts_queries(self):
        oracle = FunctionOracle(lambda word: tuple("x" for _ in word))
        assert oracle.output_query(("a", "b")) == ("x", "x")
        assert oracle.statistics.membership_queries == 1
        assert oracle.statistics.membership_symbols == 2

    def test_cached_oracle_serves_prefixes(self):
        calls = []

        def respond(word):
            calls.append(word)
            return tuple(len(word[: i + 1]) for i in range(len(word)))

        cached = CachedMembershipOracle(FunctionOracle(respond))
        cached.output_query(("a", "b", "c"))
        cached.output_query(("a", "b"))  # prefix: answered from the cache
        assert len(calls) == 1
        assert cached.statistics.cache_hits == 1
        assert cached.size >= 3

    def test_cached_oracle_detects_nondeterminism(self):
        answers = iter([("x",), ("y", "z")])

        def flaky(word):
            return next(answers)

        cached = CachedMembershipOracle(FunctionOracle(flaky))
        cached.output_query(("a",))
        # The longer word's prefix output ("y") contradicts the cached ("x").
        with pytest.raises(NonDeterminismError):
            cached.output_query(("a", "b"))

    def test_cached_oracle_rejects_truncated_answers(self):
        cached = CachedMembershipOracle(FunctionOracle(lambda word: ("x",)))
        with pytest.raises(NonDeterminismError):
            cached.output_query(("a", "b"))

    def test_statistics_merge(self):
        first = FunctionOracle(lambda w: tuple(w)).statistics
        first.record_query(3)
        merged = first.merge(first)
        assert merged.membership_queries == 2
        assert merged.membership_symbols == 6


class TestObservationTable:
    def test_initial_table_learns_single_state_machine(self):
        machine = _random_machine(1, seed=1)
        table = ObservationTable(machine.inputs, MealyMachineOracle(machine))
        table.make_closed_and_consistent()
        hypothesis = table.hypothesis()
        assert hypothesis.size == 1
        assert machine.equivalent(hypothesis)

    def test_add_suffix_rejects_empty(self):
        machine = _random_machine(2, seed=2)
        table = ObservationTable(machine.inputs, MealyMachineOracle(machine))
        with pytest.raises(LearningError):
            table.add_suffix(())

    def test_rows_and_counts(self):
        machine = _random_machine(3, seed=3)
        table = ObservationTable(machine.inputs, MealyMachineOracle(machine))
        table.make_closed_and_consistent()
        assert table.num_short_rows >= 1
        assert table.num_suffixes >= len(machine.inputs)
        assert "prefix" in table.to_text()

    def test_empty_alphabet_rejected(self):
        with pytest.raises(LearningError):
            ObservationTable([], FunctionOracle(lambda w: tuple(w)))

    def test_rivest_schapire_rejects_a_hypothesis_the_table_did_not_build(self):
        from repro.learning.counterexample import process_counterexample_rivest_schapire

        target = make_policy("LRU", 2).to_mealy().minimize()
        oracle = MealyMachineOracle(target)
        table = ObservationTable(target.inputs, oracle)
        table.make_closed_and_consistent()
        counterexample = tuple(target.inputs) * 2
        # A table that never built a hypothesis has no access words.
        with pytest.raises(LearningError, match="access words"):
            process_counterexample_rivest_schapire(table, target, oracle, counterexample)
        # The same machine under other state ids: the recorded access words
        # reach other states in it.
        own = table.hypothesis()
        assert own.size >= 2
        shift = {state: (state + 1) % own.size for state in own.states}
        relabelled = MealyMachine(
            [shift[state] for state in own.states],
            shift[own.initial_state],
            own.inputs,
            {(shift[q], a): shift[t] for (q, a), t in own.transitions.items()},
            {(shift[q], a): o for (q, a), o in own.outputs.items()},
        )
        with pytest.raises(LearningError, match="access words"):
            process_counterexample_rivest_schapire(
                table, relabelled, oracle, counterexample
            )


class TestWpMethod:
    def test_state_and_transition_cover(self):
        machine = make_policy("LRU", 2).to_mealy().minimize()
        cover = state_cover(machine)
        assert len(cover) == machine.size
        assert cover[machine.initial_state] == ()
        assert len(transition_cover(machine)) == machine.size * len(machine.inputs)

    def test_characterization_set_separates_all_states(self):
        machine = make_policy("MRU", 4).to_mealy().minimize()
        w_set = characterization_set(machine)
        signatures = {
            state: tuple(machine.run(word, state) for word in w_set)
            for state in machine.states
        }
        assert len(set(signatures.values())) == machine.size

    def test_identification_sets_distinguish_each_state(self):
        machine = make_policy("PLRU", 4).to_mealy().minimize()
        ident = identification_sets(machine)
        for state, suffixes in ident.items():
            for other in machine.states:
                if other == state:
                    continue
                assert any(
                    machine.run(word, state) != machine.run(word, other) for word in suffixes
                )

    def test_w_method_suite_detects_mutations(self):
        machine = make_policy("FIFO", 4).to_mealy().minimize()
        suite = w_method_suite(machine, depth=1)
        # Mutate one output; some word of the suite must expose it.
        mutated = MealyMachine(
            list(machine.states),
            machine.initial_state,
            list(machine.inputs),
            dict(machine.transitions),
            dict(machine.outputs),
        )
        key = next(iter(mutated.outputs))
        mutated.outputs[key] = 99
        assert any(machine.run(word) != mutated.run(word) for word in suite)

    def test_wp_suite_is_not_larger_than_w_suite(self):
        machine = make_policy("PLRU", 4).to_mealy().minimize()
        assert suite_total_symbols(wp_method_suite(machine, 1)) <= suite_total_symbols(
            w_method_suite(machine, 1)
        )

    def test_negative_depth_rejected(self):
        machine = make_policy("FIFO", 2).to_mealy()
        with pytest.raises(LearningError):
            wp_method_suite(machine, -1)


class TestLearner:
    @pytest.mark.parametrize(
        "policy_name,associativity",
        [("FIFO", 4), ("LRU", 2), ("LRU", 4), ("PLRU", 4), ("MRU", 4), ("SRRIP-HP", 2), ("CLOCK", 2)],
    )
    def test_learns_policies_from_their_machines(self, policy_name, associativity):
        reference = make_policy(policy_name, associativity).to_mealy().minimize()
        oracle = MealyMachineOracle(reference)
        equivalence = ConformanceEquivalenceOracle(oracle, depth=1)
        result = learn_mealy_machine(reference.inputs, oracle, equivalence)
        assert result.machine.size == reference.size
        assert reference.equivalent(result.machine)
        assert result.statistics.membership_queries > 0

    @settings(max_examples=15, deadline=None)
    @given(num_states=st.integers(min_value=1, max_value=8), seed=st.integers(0, 10_000))
    def test_learns_random_machines_exactly(self, num_states, seed):
        """Property: with a perfect equivalence oracle the learner is exact."""
        reference = _random_machine(num_states, seed).minimize()
        oracle = MealyMachineOracle(reference)
        learner = MealyLearner(
            reference.inputs, oracle, PerfectEquivalenceOracle(reference)
        )
        result = learner.learn()
        assert reference.equivalent(result.machine)
        assert result.machine.size == reference.size

    def test_prefix_strategy_also_converges(self):
        reference = make_policy("MRU", 4).to_mealy().minimize()
        oracle = MealyMachineOracle(reference)
        learner = MealyLearner(
            reference.inputs,
            oracle,
            PerfectEquivalenceOracle(reference),
            counterexample_strategy="prefixes",
        )
        assert reference.equivalent(learner.learn().machine)

    def test_unknown_counterexample_strategy_rejected(self):
        reference = make_policy("FIFO", 2).to_mealy()
        with pytest.raises(LearningError):
            MealyLearner(
                reference.inputs,
                MealyMachineOracle(reference),
                PerfectEquivalenceOracle(reference),
                counterexample_strategy="magic",
            )

    def test_random_walk_oracle_finds_shallow_differences(self):
        reference = make_policy("LRU", 4).to_mealy().minimize()
        oracle = MealyMachineOracle(reference)
        wrong = make_policy("FIFO", 4).to_mealy().minimize()
        walker = RandomWalkEquivalenceOracle(oracle, reference.inputs, num_words=200, seed=1)
        assert walker.find_counterexample(wrong) is not None

    def test_learning_result_reports_rounds_and_time(self):
        reference = make_policy("LRU", 2).to_mealy().minimize()
        oracle = MealyMachineOracle(reference)
        result = learn_mealy_machine(
            reference.inputs, oracle, ConformanceEquivalenceOracle(oracle, depth=1)
        )
        assert result.rounds >= 1
        assert result.learning_seconds >= 0
        assert result.num_states == reference.size

    def test_alphabet_matches_policy_alphabet(self):
        reference = make_policy("LRU", 2).to_mealy()
        assert set(reference.inputs) == set(policy_input_alphabet(2))


def _regression_machine(num_states: int, seed: int) -> MealyMachine:
    """The generator the non-minimal-hypothesis repro search used (distinct
    from ``_random_machine``: string outputs, no reachability pruning)."""
    import random

    rng = random.Random(seed)
    inputs = [f"i{k}" for k in range(2)]
    transitions = {}
    outputs = {}
    for state in range(num_states):
        for symbol in inputs:
            transitions[(state, symbol)] = rng.randrange(num_states)
            outputs[(state, symbol)] = f"o{rng.randrange(2)}"
    return MealyMachine(list(range(num_states)), 0, inputs, transitions, outputs)


class TestSuffixClosure:
    """Regression tests for the non-minimal-hypothesis bug (ROADMAP item).

    Rivest–Schapire counterexample processing adds one arbitrary
    distinguishing suffix as a column.  Before the fix, a lone suffix whose
    tails were missing broke the suffix-closedness of ``E`` that the
    table-to-hypothesis minimality argument relies on: "consistent" tables
    handed over hypotheses with equivalent states (observed on deep BRRIP
    runs, reproduced deterministically by the seed-116 machine below), and
    Wp-suite generation on them crashed into the minimize-and-retry
    workaround.  ``add_suffix`` now inserts every missing tail of a new
    suffix, which provably restores minimality.
    """

    def test_add_suffix_inserts_missing_tails(self):
        machine = make_policy("LRU", 2).to_mealy().minimize()
        table = ObservationTable(machine.inputs, MealyMachineOracle(machine))
        a, b = machine.inputs[0], machine.inputs[1]
        assert table.add_suffix((a, b, a))
        # Every tail is now a column: (a,b,a) itself, (b,a), and (a) which
        # was present from initialisation.
        assert (a, b, a) in table.suffixes
        assert (b, a) in table.suffixes
        assert (a,) in table.suffixes
        # Shorter tails are appended before longer ones.
        assert table.suffixes.index((b, a)) < table.suffixes.index((a, b, a))

    def test_add_suffix_returns_false_for_known_suffix(self):
        machine = make_policy("LRU", 2).to_mealy().minimize()
        table = ObservationTable(machine.inputs, MealyMachineOracle(machine))
        a, b = machine.inputs[0], machine.inputs[1]
        assert table.add_suffix((a, b))
        assert not table.add_suffix((a, b))
        # Re-adding a tail of a known suffix is also a no-op.
        assert not table.add_suffix((b,))

    @settings(max_examples=20, deadline=None)
    @given(num_states=st.integers(min_value=2, max_value=10), seed=st.integers(0, 10_000))
    def test_suffix_set_stays_suffix_closed(self, num_states, seed):
        """Property: after any full learning run the column set is closed."""
        import repro.learning.learner as learner_module

        reference = _random_machine(num_states, seed).minimize()
        oracle = MealyMachineOracle(reference)
        # Capture the table the learner builds internally so the closure
        # check runs against the columns add_suffix actually accumulated.
        tables = []

        class RecordingTable(ObservationTable):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tables.append(self)

        original = learner_module.ObservationTable
        learner_module.ObservationTable = RecordingTable
        try:
            learner = MealyLearner(
                reference.inputs, oracle, PerfectEquivalenceOracle(reference)
            )
            learner.learn()
        finally:
            learner_module.ObservationTable = original
        assert tables, "the learner never built an observation table"
        (table,) = tables
        present = set(table.suffixes)
        for suffix in table.suffixes:
            for start in range(1, len(suffix)):
                assert suffix[start:] in present

    def test_regression_seed_116_machine_yields_minimal_hypotheses(self, monkeypatch):
        """The original failing shape: before the fix, learning this 8-state
        machine at conformance depth 2 produced an intermediate 6-state
        hypothesis that minimized to 5 states (and BRRIP-FP at assoc 2 depth
        2 a 17-state hypothesis minimizing to 16)."""
        reference = _regression_machine(8, seed=116).minimize()
        assert reference.size == 8
        sizes = []
        original = ObservationTable.hypothesis

        def recording(table_self):
            hypothesis = original(table_self)
            sizes.append((hypothesis.size, hypothesis.minimize().size))
            return hypothesis

        monkeypatch.setattr(ObservationTable, "hypothesis", recording)
        oracle = MealyMachineOracle(reference)
        equivalence = ConformanceEquivalenceOracle(oracle, depth=2)
        with warnings.catch_warnings():
            # The minimize-before-suite workaround is now a guarded
            # assertion: reaching it from the learner is a bug.
            warnings.simplefilter("error", RuntimeWarning)
            result = learn_mealy_machine(reference.inputs, oracle, equivalence)
        assert sizes, "instrumentation never saw a hypothesis"
        assert all(size == minimal for size, minimal in sizes), sizes
        assert result.machine.size == reference.size
        assert reference.equivalent(result.machine)

    def test_suite_fallback_for_hand_built_non_minimal_machine_warns(self):
        """The workaround survives for non-learner callers, but loudly."""
        minimal = make_policy("LRU", 2).to_mealy().minimize()
        # Duplicate the machine's states: trace-equivalent but non-minimal.
        doubled_states = [f"{state}/{copy}" for state in minimal.states for copy in (0, 1)]
        transitions = {}
        outputs = {}
        for state in minimal.states:
            for copy in (0, 1):
                for symbol in minimal.inputs:
                    successor, output = minimal.step(state, symbol)
                    transitions[(f"{state}/{copy}", symbol)] = f"{successor}/0"
                    outputs[(f"{state}/{copy}", symbol)] = output
        non_minimal = MealyMachine(
            doubled_states,
            f"{minimal.initial_state}/0",
            list(minimal.inputs),
            transitions,
            outputs,
        )
        assert non_minimal.minimize().size == minimal.size
        oracle = MealyMachineOracle(minimal)
        equivalence = ConformanceEquivalenceOracle(oracle, depth=1)
        with pytest.warns(RuntimeWarning, match="non-minimal"):
            assert equivalence.find_counterexample(non_minimal) is None
