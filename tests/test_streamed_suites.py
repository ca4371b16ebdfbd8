"""Tests for the lazily streamed W-/Wp-method suites.

The generators must yield **exactly** the suite the PR 1 materialised
implementation produced — same words, same order, for every registry
machine at depths 1 and 2 — and the conformance oracle consuming them must
never pull more than ``batch_size`` words ahead of the ones it has checked,
serially or on a worker pool (instead of materialising ~350k words before
the first chunk executes).
"""

from __future__ import annotations

import random
import types
from itertools import islice, product
from typing import List, Set, Tuple

import pytest

from repro.core.mealy import MealyMachine
from repro.errors import LearningError
from repro.learning.equivalence import ConformanceEquivalenceOracle
from repro.learning.oracles import CachedMembershipOracle, MealyMachineOracle
from repro.learning.parallel import WorkerPool
from repro.learning.wpmethod import (
    _distinguishing_suffix,
    characterization_set,
    identification_sets,
    iter_w_method_suite,
    iter_wp_method_suite,
    state_cover,
    transition_cover,
    w_method_suite,
    wp_method_suite,
)
from repro.policies.registry import available_policies, make_policy

Word = Tuple[object, ...]


def _machine(name: str, associativity: int = 2):
    return make_policy(name, associativity).to_mealy(max_states=200_000).minimize()


# ----------------------------------------- the PR 1 reference implementations


def _middle_words(alphabet, depth):
    for length in range(depth + 1):
        for word in product(alphabet, repeat=length):
            yield word


def _reference_w_suite(machine, depth):
    """The eager W-method construction exactly as PR 1 materialised it."""
    prefixes = transition_cover(machine)
    w_set = characterization_set(machine)
    suite: List[Word] = []
    seen: Set[Word] = set()
    for prefix in prefixes:
        for middle in _middle_words(machine.inputs, depth):
            for suffix in w_set:
                word = prefix + middle + suffix
                if word and word not in seen:
                    seen.add(word)
                    suite.append(word)
    return suite


def _reference_wp_suite(machine, depth):
    """The eager Wp-method construction exactly as PR 1 materialised it."""
    access = state_cover(machine)
    w_set = characterization_set(machine)
    ident = identification_sets(machine)
    suite: List[Word] = []
    seen: Set[Word] = set()

    def add(word):
        if word and word not in seen:
            seen.add(word)
            suite.append(word)

    for word in access.values():
        for middle in _middle_words(machine.inputs, depth):
            for suffix in w_set:
                add(word + middle + suffix)
    for state in machine.states:
        base = access.get(state)
        if base is None:
            continue
        for symbol in machine.inputs:
            prefix = base + (symbol,)
            for middle in _middle_words(machine.inputs, depth):
                word = prefix + middle
                target = machine.state_after(word)
                for suffix in ident[target]:
                    add(word + suffix)
    return suite


def _reference_characterization_set(machine):
    """The lazy pair scan that characterization_set ran before it kept
    signature blocks: every pair in state order, each signature extended
    to the current W when its state is compared."""
    states = list(machine.states)
    if len(states) <= 1:
        return [(machine.inputs[0],)]
    w_set: List[Word] = []
    signatures = {state: [] for state in states}

    def signature(state):
        outputs = signatures[state]
        while len(outputs) < len(w_set):
            outputs.append(machine.run(w_set[len(outputs)], state))
        return outputs

    for i, state_a in enumerate(states):
        for state_b in states[i + 1:]:
            if signature(state_a) == signature(state_b):
                w_set.append(_distinguishing_suffix(machine, state_a, state_b))
    return w_set


def _random_minimal_machine(seed: int) -> MealyMachine:
    rng = random.Random(f"characterization-{seed}")
    num_states = rng.randint(2, 40)
    inputs = [f"i{k}" for k in range(rng.randint(1, 3))]
    transitions = {}
    outputs = {}
    for state in range(num_states):
        for symbol in inputs:
            transitions[(state, symbol)] = rng.randrange(num_states)
            outputs[(state, symbol)] = rng.randrange(rng.randint(2, 3))
    return MealyMachine(list(range(num_states)), 0, inputs, transitions, outputs).minimize()


def _runs_and_result(function, machine):
    """Call ``function(machine)`` counting the ``machine.run`` calls it makes."""
    calls = []
    run = machine.run
    machine.run = lambda word, state=None: calls.append(state) or run(word, state)
    try:
        result = function(machine)
    finally:
        del machine.run
    return len(calls), result


_CHARACTERIZATION_MACHINES = [
    *[(name, 2) for name in available_policies()],
    ("PLRU", 4),
    ("LRU", 4),
    ("SRRIP-HP", 4),
]


@pytest.mark.parametrize("policy_name,associativity", _CHARACTERIZATION_MACHINES)
def test_characterization_set_matches_the_pair_scan(policy_name, associativity):
    machine = _machine(policy_name, associativity)
    runs, w_set = _runs_and_result(characterization_set, machine)
    assert (runs, w_set) == _runs_and_result(_reference_characterization_set, machine)


def test_characterization_set_matches_the_pair_scan_on_random_machines():
    for seed in range(60):
        machine = _random_minimal_machine(seed)
        runs, w_set = _runs_and_result(characterization_set, machine)
        assert (runs, w_set) == _runs_and_result(_reference_characterization_set, machine), seed


def _reference_identification_sets(machine):
    """The pair scan identification_sets ran before it kept, per state, the
    list of states it has not separated yet: every other state in state
    order, tested against every suffix chosen so far."""
    states = list(machine.states)
    sets = {}
    tails = {}

    def tail(word, state):
        key = (state, word)
        if key not in tails:
            tails[key] = machine.run(word, state)
        return tails[key]

    for state in states:
        suffixes = []
        for other in states:
            if other == state or any(
                tail(word, state) != tail(word, other) for word in suffixes
            ):
                continue
            suffixes.append(_distinguishing_suffix(machine, state, other))
        if not suffixes:
            suffixes.append((machine.inputs[0],))
        sets[state] = suffixes
    return sets


#: The pair scan takes seconds on the ~1,000-state BRRIP machines.
_SLOW_IDENTIFICATION_MACHINES = {("BRRIP-FP", 4), ("BRRIP-HP", 4)}
_IDENTIFICATION_MACHINES = [
    pytest.param(
        name,
        associativity,
        marks=[pytest.mark.slow] if (name, associativity) in _SLOW_IDENTIFICATION_MACHINES else [],
    )
    for name in available_policies()
    for associativity in (2, 3, 4)
    if not (name == "PLRU" and associativity == 3)  # PLRU needs a power of two
]


@pytest.mark.parametrize("policy_name,associativity", _IDENTIFICATION_MACHINES)
def test_identification_sets_match_the_pair_scan(policy_name, associativity):
    machine = _machine(policy_name, associativity)
    runs, sets = _runs_and_result(identification_sets, machine)
    assert (runs, sets) == _runs_and_result(_reference_identification_sets, machine)
    assert list(sets) == list(machine.states)


def test_identification_sets_match_the_pair_scan_on_random_machines():
    for seed in range(60):
        machine = _random_minimal_machine(seed)
        runs, sets = _runs_and_result(identification_sets, machine)
        assert (runs, sets) == _runs_and_result(_reference_identification_sets, machine), seed


# --------------------------------------------------------------- exact parity


@pytest.mark.parametrize("policy_name", available_policies())
@pytest.mark.parametrize("depth", [1, 2])
def test_streamed_wp_suite_matches_materialised_suite(policy_name, depth):
    machine = _machine(policy_name)
    expected = _reference_wp_suite(machine, depth)
    assert list(iter_wp_method_suite(machine, depth)) == expected
    assert wp_method_suite(machine, depth) == expected


@pytest.mark.parametrize("policy_name", available_policies())
@pytest.mark.parametrize("depth", [1, 2])
def test_streamed_w_suite_matches_materialised_suite(policy_name, depth):
    machine = _machine(policy_name)
    expected = _reference_w_suite(machine, depth)
    assert list(iter_w_method_suite(machine, depth)) == expected
    assert w_method_suite(machine, depth) == expected


# ------------------------------------------------------------------- laziness


class TestLaziness:
    def test_suites_are_generators(self):
        machine = _machine("LRU")
        assert isinstance(iter_wp_method_suite(machine, 1), types.GeneratorType)
        assert isinstance(iter_w_method_suite(machine, 1), types.GeneratorType)

    def test_prefix_of_the_stream_matches_the_list(self):
        machine = _machine("SRRIP-HP")
        suite = wp_method_suite(machine, 2)
        assert list(islice(iter_wp_method_suite(machine, 2), 10)) == suite[:10]

    def test_negative_depth_raises_eagerly(self):
        machine = _machine("FIFO")
        with pytest.raises(LearningError):
            iter_wp_method_suite(machine, -1)  # no iteration needed
        with pytest.raises(LearningError):
            iter_w_method_suite(machine, -1)

    def test_non_minimal_machine_raises_eagerly(self):
        minimal = _machine("LRU")
        doubled = [f"{state}/{copy}" for state in minimal.states for copy in (0, 1)]
        transitions = {}
        outputs = {}
        for state in minimal.states:
            for copy in (0, 1):
                for symbol in minimal.inputs:
                    successor, output = minimal.step(state, symbol)
                    transitions[(f"{state}/{copy}", symbol)] = f"{successor}/0"
                    outputs[(f"{state}/{copy}", symbol)] = output
        non_minimal = MealyMachine(
            doubled, f"{minimal.initial_state}/0", list(minimal.inputs), transitions, outputs
        )
        # The error must surface at call time (so the conformance oracle's
        # fallback can catch it), not on first next().
        with pytest.raises(LearningError):
            iter_wp_method_suite(non_minimal, 1)


# ------------------------------------------------------- the in-flight window


class _TrackingOracle(ConformanceEquivalenceOracle):
    """Counts how far ahead of consumption the suite generator ever ran."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.words_generated = 0
        self.max_outstanding = 0

    def _suite(self, hypothesis):
        inner = super()._suite(hypothesis)

        def tracked():
            for word in inner:
                self.words_generated += 1
                outstanding = self.words_generated - self.statistics.test_words
                self.max_outstanding = max(self.max_outstanding, outstanding)
                yield word

        return tracked()


class TestInflightWindow:
    def test_parallel_parent_queues_at_most_window_times_chunk_size(self):
        reference = _machine("SRRIP-HP")
        suite_size = len(wp_method_suite(reference, 2))
        batch_size = 16
        with WorkerPool(MealyMachineOracle(reference), 2) as pool:
            oracle = _TrackingOracle(
                CachedMembershipOracle(pool), depth=2, batch_size=batch_size
            )
            assert oracle.find_counterexample(reference) is None
        # The whole suite ran, on the workers ...
        assert oracle.statistics.test_words == suite_size
        assert oracle.words_generated == suite_size
        assert pool.shipped_words > 0
        # ... but the parent never pulled more than one chunk ahead of
        # consumption — nothing resembling the full suite was ever
        # materialised.
        assert suite_size > 4 * batch_size
        assert oracle.max_outstanding <= batch_size

    def test_serial_streaming_holds_one_batch_at_a_time(self):
        reference = _machine("SRRIP-HP")
        suite_size = len(wp_method_suite(reference, 2))
        batch_size = 16
        engine = CachedMembershipOracle(MealyMachineOracle(reference))
        oracle = _TrackingOracle(engine, depth=2, batch_size=batch_size)
        assert oracle.find_counterexample(reference) is None
        assert oracle.statistics.test_words == suite_size
        assert oracle.max_outstanding <= batch_size

    def test_streamed_truncation_accounting_stays_exact(self):
        reference = _machine("SRRIP-HP")
        suite_size = len(wp_method_suite(reference, 1))
        cap = 5
        assert suite_size > cap
        engine = CachedMembershipOracle(MealyMachineOracle(reference))
        oracle = ConformanceEquivalenceOracle(engine, depth=1, max_tests=cap)
        assert oracle.find_counterexample(reference) is None
        assert oracle.statistics.tests_skipped == suite_size - cap
        assert oracle.statistics.test_words == cap

    def test_truncation_accounting_exact_when_counterexample_found(self):
        reference = _machine("LRU", 4)
        wrong = _machine("FIFO", 4)
        suite_size = len(wp_method_suite(wrong, 1))
        cap = suite_size - 3
        engine = CachedMembershipOracle(MealyMachineOracle(reference))
        oracle = ConformanceEquivalenceOracle(
            engine, depth=1, max_tests=cap, batch_size=8
        )
        assert oracle.find_counterexample(wrong) is not None
        # Even though the run stopped at the counterexample, the capped-off
        # tail is fully accounted (it was never going to run either way).
        assert oracle.statistics.tests_skipped == suite_size - cap
