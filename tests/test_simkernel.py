"""Unit tests for the tabulated simulator kernels (:mod:`repro.simkernel`).

Covers the three layers of the subsystem — table compilation, the
stepper, and the :class:`BatchSimulator` facade — plus the Polca
integration: kernel selection/fallback semantics and the analytic probe
accounting that keeps statistics execution-strategy-independent.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro.core.alphabet import EVICT, MISS_OUTPUT, Line, policy_input_alphabet
from repro.errors import CacheError, PolicyError
from repro.learning.query_engine import dedupe_and_subsume
from repro.policies.base import ReplacementPolicy
from repro.policies.registry import make_policy
from repro.polca.algorithm import POLCA_KERNELS, PolcaMembershipOracle, scalar_probe_cost
from repro.polca.interfaces import SimulatedCacheInterface
from repro.polca.pipeline import learn_simulated_policy
from repro.simkernel import (
    BatchSimulator,
    PythonKernel,
    TabulatedPolicy,
    tabulate_policy,
)


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


# -------------------------------------------------------------- steppers


def test_python_kernel_matches_scalar_table_walk():
    table = make_policy("MRU", 3).tabulate()
    kernel = PythonKernel(table)
    words = [table.encode_word(word) for word in _random_words(3, seed="py")]
    answered, end_states = kernel.run_chunk(words)
    assert len(answered) == len(words) == len(end_states)
    for codes, outputs, end in zip(words, answered, end_states):
        state = 0
        expected = []
        for code in codes:
            state, out = table.step(state, code)
            expected.append(out)
        assert outputs == tuple(expected)
        assert end == state


def test_kernels_handle_empty_and_ragged_chunks():
    table = make_policy("FIFO", 2).tabulate()
    kernel = PythonKernel(table)
    ragged = [(), (2,), (0, 1, 2, 2, 0), (2, 2)]
    coded = [tuple(word) for word in ragged]
    assert kernel.run_chunk([]) == ([], [])
    answered, end_states = kernel.run_chunk(coded)
    assert answered[0] == ()  # empty word answers empty
    assert end_states[0] == 0
    # Splitting a chunk never changes an answer.
    halves = [kernel.run_chunk(coded[:2]), kernel.run_chunk(coded[2:])]
    assert answered == halves[0][0] + halves[1][0]
    assert end_states == halves[0][1] + halves[1][1]


# -------------------------------------------------------- BatchSimulator


def test_batch_simulator_answers_match_policy_oracle():
    policy = make_policy("LIP", 3)
    simulator = BatchSimulator(policy)
    words = _random_words(3, seed="batch")
    answers = simulator.answer_words(words)
    for word, outputs in zip(words, answers):
        stepper = policy.stepper()
        assert outputs == tuple(stepper.apply(symbol) for symbol in word)
    # Oracle-protocol entry points agree with the chunk API.
    assert simulator.output_query(words[1]) == answers[1]
    assert simulator.output_query_batch(words) == answers


def test_batch_simulator_resume_protocol():
    policy = make_policy("PLRU", 4)
    simulator = BatchSimulator(policy)
    assert simulator.supports_resume
    word = (Line(0), EVICT, Line(2), EVICT, EVICT, Line(1))
    full = simulator.output_query(word)
    for cut in range(len(word) + 1):
        resumed = simulator.output_query_resume(word[:cut], word[cut:])
        assert resumed == full[cut:]


def test_batch_simulator_adopts_ready_table():
    table = make_policy("LRU", 2).tabulate()
    simulator = BatchSimulator(table)
    assert simulator.table is table
    assert simulator.kernel == "python"


# --------------------------------------------------- Polca integration


def test_scalar_probe_cost_matches_executed_scalar_path():
    for word in dedupe_and_subsume(_random_words(3, count=40, seed="cost")):
        interface = SimulatedCacheInterface(make_policy("LRU", 3))
        oracle = PolcaMembershipOracle(interface)
        oracle.output_query(word)
        probes, accesses = scalar_probe_cost(word, 3)
        assert probes == interface.probe_count, word
        assert accesses == interface.access_count, word


def test_kernel_oracle_matches_scalar_oracle_and_counters():
    words = _random_words(4, count=50, seed="polca")
    scalar_interface = SimulatedCacheInterface(make_policy("PLRU", 4))
    scalar = PolcaMembershipOracle(scalar_interface)
    expected = scalar.output_query_batch(words)
    for kernel in ("python", "auto"):
        interface = SimulatedCacheInterface(make_policy("PLRU", 4))
        oracle = PolcaMembershipOracle(interface, kernel=kernel)
        assert oracle.kernel_in_use == "python"
        assert oracle.output_query_batch(words) == expected
        assert asdict(oracle.statistics) == asdict(scalar.statistics)
        assert interface.probe_count == scalar_interface.probe_count
        assert interface.access_count == scalar_interface.access_count


def test_auto_kernel_falls_back_to_scalar_for_non_tabulatable_policy():
    interface = SimulatedCacheInterface(NonTabulatablePolicy(2))
    oracle = PolcaMembershipOracle(interface, kernel="auto")
    assert oracle.kernel_in_use == "scalar"
    # Forcing a kernel on the same target is a clean error instead.
    with pytest.raises(PolicyError, match="supports_tabulation=False"):
        PolcaMembershipOracle(
            SimulatedCacheInterface(NonTabulatablePolicy(2)), kernel="python"
        )


def test_forced_kernel_requires_policy_exact_interface():
    class ScalarOnlyInterface:
        """A probe interface without the kernel_policy hook."""

        def __init__(self):
            self._inner = SimulatedCacheInterface(make_policy("LRU", 2))
            self.associativity = 2

        def initial_blocks(self):
            return self._inner.initial_blocks()

        def block_universe(self):
            return self._inner.block_universe()

        def probe(self, blocks):
            return self._inner.probe(blocks)

    assert PolcaMembershipOracle(ScalarOnlyInterface(), kernel="auto").kernel_in_use == "scalar"
    with pytest.raises(PolicyError, match="scalar path"):
        PolcaMembershipOracle(ScalarOnlyInterface(), kernel="python")


def test_kernel_and_resume_interaction():
    interface = SimulatedCacheInterface(make_policy("LRU", 2))
    auto = PolcaMembershipOracle(interface, kernel="auto", resume=True)
    assert auto.kernel_in_use == "scalar"  # auto degrades silently
    with pytest.raises(PolicyError, match="incompatible with resume"):
        PolcaMembershipOracle(interface, kernel="python", resume=True)


def test_resolve_kernel_selection_semantics():
    """Every accepted kernel name resolves to one of two execution paths
    for a tabulatable policy: the tabulated Python kernel or the scalar
    stepper (``None`` is the scalar default)."""
    expected = {None: "scalar", "scalar": "scalar", "python": "python", "auto": "python"}
    assert set(expected) - {None} == set(POLCA_KERNELS)
    for name, in_use in expected.items():
        interface = SimulatedCacheInterface(make_policy("LRU", 2))
        assert PolcaMembershipOracle(interface, kernel=name).kernel_in_use == in_use


def test_unknown_kernel_name_is_rejected():
    interface = SimulatedCacheInterface(make_policy("LRU", 2))
    for name in ("fortran", "numpy"):
        with pytest.raises(PolicyError, match="unknown simulator kernel"):
            PolcaMembershipOracle(interface, kernel=name)


def test_count_kernel_probes_validates_and_counts():
    interface = SimulatedCacheInterface(make_policy("LRU", 2))
    interface.count_kernel_probes(3, 11)
    assert interface.probe_count == 3
    assert interface.access_count == 11
    with pytest.raises(CacheError):
        interface.count_kernel_probes(-1, 0)


def test_pipeline_reports_kernel_and_learns_identically():
    scalar = learn_simulated_policy(make_policy("MRU", 3), kernel="scalar")
    assert scalar.extra["kernel"] == "scalar"
    python = learn_simulated_policy(make_policy("MRU", 3), kernel="python")
    assert python.extra["kernel"] == "python"
    assert python.machine == scalar.machine
    assert asdict(python.polca_statistics) == asdict(scalar.polca_statistics)
    auto = learn_simulated_policy(make_policy("MRU", 3), kernel="auto")
    assert auto.extra["kernel"] == "python"
    assert auto.machine == scalar.machine


def test_parallel_kernel_run_is_worker_count_invariant():
    serial = learn_simulated_policy(make_policy("PLRU", 4), kernel="python")
    parallel = learn_simulated_policy(make_policy("PLRU", 4), kernel="python", workers=2)
    assert parallel.machine == serial.machine
    assert asdict(parallel.polca_statistics) == asdict(serial.polca_statistics)
