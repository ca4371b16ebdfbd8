"""Unit tests for the tabulated simulator kernels (:mod:`repro.simkernel`).

Covers both parts of the subsystem — table compilation and the
:class:`BatchSimulator` that steps the tables — plus the Polca
integration: kernel selection/fallback semantics and the analytic probe
accounting that keeps statistics execution-strategy-independent.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro.core.alphabet import EVICT, MISS_OUTPUT, Evict, Line, policy_input_alphabet
from repro.errors import PolicyError
from repro.learning.query_engine import dedupe_and_subsume
from repro.policies.base import ReplacementPolicy
from repro.policies.registry import make_policy
from repro.polca.algorithm import POLCA_KERNELS, PolcaMembershipOracle, scalar_probe_cost
from repro.polca.interfaces import SimulatedCacheInterface
from repro.polca.pipeline import learn_simulated_policy
from repro.simkernel import BatchSimulator, TabulatedPolicy, tabulate_policy


def _random_words(associativity, *, count=60, max_length=14, seed="simkernel"):
    alphabet = policy_input_alphabet(associativity)
    rng = random.Random(seed)
    return [
        tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_length)))
        for _ in range(count)
    ]


class NonTabulatablePolicy(ReplacementPolicy):
    """An LRU clone that opts out of tabulation (stand-in for unbounded state)."""

    name = "NOTAB"
    supports_tabulation = False

    def initial_state(self):
        return tuple(range(self.associativity))

    def on_hit(self, state, line):
        order = [way for way in state if way != line]
        return tuple([line] + order)

    def on_miss(self, state):
        victim = state[-1]
        return tuple([victim] + list(state[:-1])), victim


class ProbeOnlyInterface:
    """A thin probe interface over a simulated cache, without the kernel hook."""

    def __init__(self, policy):
        self._inner = SimulatedCacheInterface(policy)
        self.associativity = policy.associativity

    def initial_blocks(self):
        return self._inner.initial_blocks()

    def block_universe(self):
        return self._inner.block_universe()

    def probe(self, blocks):
        return self._inner.probe(blocks)


class PolicyExactInterface(ProbeOnlyInterface):
    """The same thin interface plus the ``kernel_policy`` hook, and nothing else."""

    def kernel_policy(self):
        return self._inner.kernel_policy()


class CountingInterface(SimulatedCacheInterface):
    """Counts the probes and block accesses that reach the simulated cache."""

    def __init__(self, policy):
        super().__init__(policy)
        self.probes = 0
        self.accesses = 0

    def probe(self, blocks):
        self.probes += 1
        self.accesses += len(blocks)
        return super().probe(blocks)


# ---------------------------------------------------------------- tables


def test_tabulation_matches_mealy_enumeration():
    policy = make_policy("PLRU", 4)
    table = policy.tabulate()
    machine = policy.to_mealy()
    assert table.num_states == len(machine.states)
    assert table.num_symbols == 5
    assert table.initial_state == 0
    # Walk the table and the policy side by side over random words.
    for word in _random_words(4, seed="tables"):
        stepper = policy.stepper()
        state = table.initial_state
        for symbol in word:
            state, code = table.step(state, table.encode_symbol(symbol))
            assert table.decode_output(code) == stepper.apply(symbol)


def test_tabulation_encodings():
    table = make_policy("LRU", 3).tabulate()
    assert table.encode_symbol(Line(0)) == 0
    assert table.encode_symbol(Line(2)) == 2
    assert table.encode_symbol(EVICT) == 3
    assert table.decode_output(TabulatedPolicy.MISS_CODE) == MISS_OUTPUT
    assert table.decode_output(1) == 1
    assert table.decode_outputs((-1, 0, 2)) == (MISS_OUTPUT, 0, 2)
    with pytest.raises(PolicyError):
        table.encode_symbol(Line(3))
    with pytest.raises(PolicyError):
        table.encode_symbol("bogus")


def test_state_bound_overflow_is_a_clean_policy_error():
    with pytest.raises(PolicyError, match="does not tabulate within"):
        tabulate_policy(make_policy("PLRU", 8), max_states=4)
    with pytest.raises(PolicyError, match="state bound"):
        tabulate_policy(make_policy("LRU", 2), max_states=0)


def test_policy_declared_state_bound_is_respected():
    policy = make_policy("PLRU", 4)
    policy.tabulation_state_bound = 2  # below the 8 reachable states
    with pytest.raises(PolicyError, match="2-state bound"):
        policy.tabulate()
    # An explicit max_states overrides the declared bound.
    assert policy.tabulate(max_states=100).num_states == 8


def test_non_tabulatable_policy_raises():
    with pytest.raises(PolicyError, match="supports_tabulation=False"):
        NonTabulatablePolicy(2).tabulate()


# -------------------------------------------------------- BatchSimulator


def test_python_kernel_matches_scalar_table_walk():
    table = make_policy("MRU", 3).tabulate()
    words = _random_words(3, seed="py")
    answered = BatchSimulator(table).answer_words(words)
    assert len(answered) == len(words)
    for word, outputs in zip(words, answered):
        state = table.initial_state
        expected = []
        for code in table.encode_word(word):
            state, out = table.step(state, code)
            expected.append(table.decode_output(out))
        assert outputs == tuple(expected)


def test_kernels_handle_empty_and_ragged_chunks():
    simulator = BatchSimulator(make_policy("FIFO", 2).tabulate())
    ragged = [(), (EVICT,), (Line(0), Line(1), EVICT, EVICT, Line(0)), (EVICT, EVICT)]
    assert simulator.answer_words([]) == []
    answered = simulator.answer_words(ragged)
    assert answered[0] == ()  # empty word answers empty
    # Splitting a chunk never changes an answer.
    halves = simulator.answer_words(ragged[:2]) + simulator.answer_words(ragged[2:])
    assert answered == halves


def test_batch_simulator_answers_match_policy_oracle():
    policy = make_policy("LIP", 3)
    simulator = BatchSimulator(policy)
    words = _random_words(3, seed="batch")
    answers = simulator.answer_words(words)
    for word, outputs in zip(words, answers):
        stepper = policy.stepper()
        assert outputs == tuple(stepper.apply(symbol) for symbol in word)


def test_symbol_lookup_keeps_every_check():
    simulator = BatchSimulator(make_policy("PLRU", 4))
    words = _random_words(4, seed="lookup")
    simulator.answer_words(words)  # every symbol of the alphabet met
    # Line(4) is out of range, "bogus" no policy input, and the plain tuple
    # (0,) hashes like Line(0) but is not one; none of them is ever kept, so
    # each still raises on a second meeting.
    for bad in (Line(4), "bogus", (0,)):
        for _ in range(2):
            with pytest.raises(PolicyError):
                simulator.answer_words([(Line(0), EVICT), (Line(1), bad)])
    # Fresh symbol objects, equal to the alphabet's but not the same objects.
    fresh = [
        tuple(Line(symbol.index) if isinstance(symbol, Line) else Evict() for symbol in word)
        for word in words
    ]
    assert not any(
        new is old for new_word, word in zip(fresh, words) for new, old in zip(new_word, word)
    )
    scalar = PolcaMembershipOracle(
        SimulatedCacheInterface(make_policy("PLRU", 4)), kernel="scalar"
    )
    assert simulator.answer_words(fresh) == [scalar.output_query(word) for word in words]


def test_batch_simulator_adopts_ready_table():
    table = make_policy("LRU", 2).tabulate()
    simulator = BatchSimulator(table)
    assert simulator.table is table
    assert simulator.kernel == "python"


# --------------------------------------------------- Polca integration


def test_scalar_probe_cost_matches_executed_scalar_path():
    for word in dedupe_and_subsume(_random_words(3, count=40, seed="cost")):
        interface = CountingInterface(make_policy("LRU", 3))
        PolcaMembershipOracle(interface).output_query(word)
        assert scalar_probe_cost(word, 3) == (interface.probes, interface.accesses), word


def test_kernel_oracle_matches_scalar_oracle_and_counters():
    words = _random_words(4, count=50, seed="polca")
    scalar_interface = CountingInterface(make_policy("PLRU", 4))
    scalar = PolcaMembershipOracle(scalar_interface)
    expected = scalar.output_query_batch(words)
    assert (scalar.statistics.cache_probes, scalar.statistics.block_accesses) == (
        scalar_interface.probes,
        scalar_interface.accesses,
    )
    interface = CountingInterface(make_policy("PLRU", 4))
    oracle = PolcaMembershipOracle(interface, kernel="auto")
    assert oracle.kernel_in_use == "python"
    assert oracle.output_query_batch(words) == expected
    assert asdict(oracle.statistics) == asdict(scalar.statistics)
    # The kernel probes nothing; Polca books the scalar path's cost.
    assert interface.probes == 0


def test_kernel_policy_hook_alone_decides_kernel_eligibility():
    """An interface exposing ``kernel_policy`` and no accounting hook of its
    own runs the tabulated kernel under ``kernel="auto"``: Polca's
    statistics are the one probe ledger."""
    words = _random_words(4, count=50, seed="hook")
    scalar = PolcaMembershipOracle(SimulatedCacheInterface(make_policy("PLRU", 4)))
    expected = scalar.output_query_batch(words)
    oracle = PolcaMembershipOracle(
        PolicyExactInterface(make_policy("PLRU", 4)), kernel="auto"
    )
    assert oracle.kernel_in_use == "python"
    assert oracle.output_query_batch(words) == expected
    assert asdict(oracle.statistics) == asdict(scalar.statistics)


def test_auto_kernel_falls_back_to_scalar_for_non_tabulatable_policy():
    interface = SimulatedCacheInterface(NonTabulatablePolicy(2))
    oracle = PolcaMembershipOracle(interface, kernel="auto")
    assert oracle.kernel_in_use == "scalar"


def test_forced_kernel_requires_policy_exact_interface():
    oracle = PolcaMembershipOracle(ProbeOnlyInterface(make_policy("LRU", 2)), kernel="auto")
    assert oracle.kernel_in_use == "scalar"


def test_kernel_and_resume_interaction():
    interface = SimulatedCacheInterface(make_policy("LRU", 2))
    auto = PolcaMembershipOracle(interface, kernel="auto", resume=True)
    assert auto.kernel_in_use == "scalar"  # auto degrades silently


def test_resolve_kernel_selection_semantics():
    """Every accepted kernel name resolves to one of two execution paths
    for a tabulatable policy: the tabulated Python kernel or the scalar
    stepper (the default)."""
    expected = {"scalar": "scalar", "auto": "python"}
    assert set(expected) == set(POLCA_KERNELS)
    for name, in_use in expected.items():
        interface = SimulatedCacheInterface(make_policy("LRU", 2))
        assert PolcaMembershipOracle(interface, kernel=name).kernel_in_use == in_use
    interface = SimulatedCacheInterface(make_policy("LRU", 2))
    assert PolcaMembershipOracle(interface).kernel_in_use == "scalar"


def test_unknown_kernel_name_is_rejected():
    interface = SimulatedCacheInterface(make_policy("LRU", 2))
    for name in ("fortran", "numpy", "python"):
        with pytest.raises(PolicyError, match="unknown simulator kernel"):
            PolcaMembershipOracle(interface, kernel=name)


def test_pipeline_reports_kernel_and_learns_identically():
    scalar = learn_simulated_policy(make_policy("MRU", 3), kernel="scalar")
    assert scalar.extra["kernel"] == "scalar"
    auto = learn_simulated_policy(make_policy("MRU", 3), kernel="auto")
    assert auto.extra["kernel"] == "python"
    assert auto.machine == scalar.machine
    assert asdict(auto.polca_statistics) == asdict(scalar.polca_statistics)


def test_parallel_kernel_run_is_worker_count_invariant():
    serial = learn_simulated_policy(make_policy("PLRU", 4), kernel="auto")
    parallel = learn_simulated_policy(make_policy("PLRU", 4), kernel="auto", workers=2)
    assert serial.extra["kernel"] == parallel.extra["kernel"] == "python"
    assert parallel.machine == serial.machine
    assert asdict(parallel.polca_statistics) == asdict(serial.polca_statistics)
