"""Tests for Polca (Algorithm 1), reset strategies and the learning pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import EVICT, MISS_OUTPUT, Line, policy_input_alphabet
from repro.core.mealy import MealyDefinitionError
from repro.core.trace import Trace
from repro.errors import NonDeterminismError, PolicyError
from repro.polca import (
    FlushRefillReset,
    NoReset,
    PolcaMembershipOracle,
    SequenceReset,
    SimulatedCacheInterface,
    default_block_names,
    polca_check_trace,
)
from repro.polca import pipeline
from repro.polca.pipeline import identify_policy, learn_policy_from_cache, learn_simulated_policy
from repro.polca.reset import reset_for_table4
from repro.policies import registry
from repro.policies.lru import LRUPolicy
from repro.policies.registry import available_policies, make_policy


class TestBlockNames:
    def test_letters_then_suffixes(self):
        names = default_block_names(30)
        assert names[:3] == ("A", "B", "C")
        assert names[26] == "A1"
        assert len(set(names)) == 30

    def test_zero_and_negative(self):
        assert default_block_names(0) == ()
        with pytest.raises(Exception):
            default_block_names(-1)


class TestSimulatedCacheInterface:
    def test_initial_blocks_hit_after_reset(self):
        interface = SimulatedCacheInterface(make_policy("LRU", 4))
        outcomes = interface.probe(interface.initial_blocks())
        assert all(outcome == "Hit" for outcome in outcomes)

    def test_fresh_block_misses(self):
        interface = SimulatedCacheInterface(make_policy("LRU", 4))
        fresh = interface.block_universe()[4]
        assert interface.probe((fresh,)) == ("Miss",)

    def test_universe_must_exceed_associativity(self):
        with pytest.raises(Exception):
            SimulatedCacheInterface(make_policy("LRU", 4), block_names=("A", "B"))

    def test_statistics(self):
        interface = SimulatedCacheInterface(make_policy("LRU", 2))
        interface.probe(("A",))
        assert interface.probe_count == 1 and interface.access_count == 1
        interface.reset_statistics()
        assert interface.probe_count == 0


class TestPolcaOracle:
    @pytest.mark.parametrize(
        "policy_name,associativity",
        [("FIFO", 4), ("LRU", 4), ("PLRU", 4), ("MRU", 4), ("SRRIP-HP", 2), ("NEW1", 4), ("NEW2", 4), ("LIP", 4)],
    )
    def test_output_queries_match_policy_semantics(self, policy_name, associativity):
        """Theorem 3.1, output-query form: Polca recovers exactly the policy outputs."""
        policy = make_policy(policy_name, associativity)
        oracle = PolcaMembershipOracle(SimulatedCacheInterface(policy))
        reference = policy.to_mealy()
        import random

        rng = random.Random(17)
        alphabet = policy_input_alphabet(associativity)
        for _ in range(15):
            word = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
            assert oracle.output_query(word) == reference.run(word)

    def test_check_trace_accepts_and_rejects(self):
        policy = make_policy("LRU", 2)
        oracle = PolcaMembershipOracle(SimulatedCacheInterface(policy))
        good = Trace([(Line(0), MISS_OUTPUT), (EVICT, 1)])
        assert oracle.check_trace(good) is True
        bad = Trace([(Line(0), MISS_OUTPUT), (EVICT, 0)])
        assert oracle.check_trace(bad) is False

    def test_polca_check_trace_wrapper(self):
        policy = make_policy("FIFO", 2)
        interface = SimulatedCacheInterface(policy)
        assert polca_check_trace(interface, Trace([(EVICT, 0), (EVICT, 1), (EVICT, 0)]))

    def test_statistics_accumulate(self):
        oracle = PolcaMembershipOracle(SimulatedCacheInterface(make_policy("LRU", 2)))
        oracle.output_query((EVICT, Line(0)))
        assert oracle.statistics.policy_queries == 1
        assert oracle.statistics.cache_probes > 0
        assert oracle.statistics.block_accesses >= oracle.statistics.cache_probes

    def test_rejects_interface_without_spare_blocks(self):
        class TinyInterface:
            associativity = 2

            def initial_blocks(self):
                return ("A", "B")

            def block_universe(self):
                return ("A", "B")

            def probe(self, blocks):
                return tuple("Hit" for _ in blocks)

        with pytest.raises(PolicyError):
            PolcaMembershipOracle(TinyInterface())

    def test_detects_nondeterministic_cache(self):
        class BrokenInterface:
            """Claims a block is cached but then reports a miss for it."""

            associativity = 2

            def initial_blocks(self):
                return ("A", "B")

            def block_universe(self):
                return ("A", "B", "C")

            def probe(self, blocks):
                return tuple("Miss" for _ in blocks)

        oracle = PolcaMembershipOracle(BrokenInterface())
        with pytest.raises(NonDeterminismError):
            oracle.output_query((Line(0),))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        length=st.integers(min_value=1, max_value=12),
    )
    def test_polca_matches_new1_on_random_words(self, seed, length):
        """Property: Polca's answers always agree with the policy's Mealy semantics."""
        import random

        policy = make_policy("NEW1", 4)
        oracle = PolcaMembershipOracle(SimulatedCacheInterface(policy))
        reference = policy.to_mealy()
        rng = random.Random(seed)
        alphabet = policy_input_alphabet(4)
        word = tuple(rng.choice(alphabet) for _ in range(length))
        assert oracle.output_query(word) == reference.run(word)


class TestResetStrategies:
    def test_flush_refill_prefix_flushes_whole_pool(self):
        reset = FlushRefillReset()
        prefix = reset.mbl_prefix(2, ("A", "B", "C"))
        assert prefix == "A! B! C! @"
        assert reset.describe() == "F+R"

    def test_sequence_reset(self):
        reset = SequenceReset("D C B A @")
        assert reset.mbl_prefix(4, ("A",)) == "D C B A @"
        assert reset.describe() == "D C B A @"

    def test_empty_sequence_rejected(self):
        with pytest.raises(Exception):
            SequenceReset("  ")

    def test_no_reset(self):
        assert NoReset().mbl_prefix(4, ("A",)) == ""

    def test_table4_reset_mapping(self):
        assert reset_for_table4("Haswell i7-4790", "L1").describe() == "@ @"
        assert reset_for_table4("Skylake i5-6500", "L2").describe() == "D C B A @"
        assert reset_for_table4("Skylake i5-6500", "L3").describe() == "F+R"
        assert reset_for_table4("Kaby Lake", "L1").describe() == "F+R"


class TestPipeline:
    @pytest.mark.parametrize("policy_name,associativity", [("FIFO", 4), ("LRU", 2), ("PLRU", 4)])
    def test_learn_simulated_policy_end_to_end(self, policy_name, associativity):
        policy = make_policy(policy_name, associativity)
        report = learn_simulated_policy(policy)
        assert report.identified_policy == policy_name
        assert report.num_states == policy.state_count()
        assert report.polca_statistics.cache_probes > 0
        assert report.wall_clock_seconds > 0

    def test_learn_policy_from_cache_generic_interface(self):
        interface = SimulatedCacheInterface(make_policy("MRU", 4))
        report = learn_policy_from_cache(interface)
        assert report.identified_policy == "MRU"

    def test_identify_policy_returns_none_for_unknown(self):
        machine = make_policy("FIFO", 3).to_mealy().minimize()
        assert identify_policy(machine, 3, candidates=["LRU", "PLRU"]) is None

    def test_identify_policy_respects_candidates(self):
        machine = make_policy("LRU", 2).to_mealy().minimize()
        assert identify_policy(machine, 2, candidates=["LRU"]) == "LRU"

    def test_identify_policy_accepts_non_minimal_machine(self):
        machine = make_policy("NEW1", 2).to_mealy()
        assert machine.size == 4 and machine.minimize().size == 2
        assert identify_policy(machine, 2, ["NEW1"]) == "NEW1"

    def test_learn_simulated_policy_requires_policy_instance(self):
        with pytest.raises(Exception):
            learn_simulated_policy("LRU")


def _enumerate_and_minimize_identify(machine, references):
    """Reference identification: minimized references, a size filter, then equivalence."""
    for name, reference in references:
        if reference.size == machine.size and reference.equivalent(machine):
            return name
    return None


@pytest.fixture(scope="module")
def registry_references():
    """Every registry policy's minimized machine at associativities 2-4, each built once."""
    references = {}
    for associativity in (2, 3, 4):
        references[associativity] = []
        for name in available_policies():
            try:
                policy = make_policy(name, associativity)
            except PolicyError:  # PLRU is defined at powers of two only
                continue
            machine = policy.to_mealy(max_states=200_000).minimize()
            references[associativity].append((name, machine))
    return references


class TestIdentifyPolicy:
    @pytest.mark.parametrize("associativity", [2, 3, 4])
    def test_matches_enumerate_and_minimize_reference(self, registry_references, associativity):
        references = registry_references[associativity]
        for name, machine in references:
            expected = _enumerate_and_minimize_identify(machine, references)
            assert expected is not None
            assert identify_policy(machine, associativity) == expected, name

    def test_reference_covers_every_defined_registry_machine(self, registry_references):
        assert sum(len(machines) for machines in registry_references.values()) == 41

    def test_first_equivalent_candidate_in_sorted_order_wins(self):
        plru = make_policy("PLRU", 2).to_mealy().minimize()
        mru = make_policy("MRU", 2).to_mealy().minimize()
        assert identify_policy(plru, 2) == "NEW1"
        assert identify_policy(mru, 2) == "LRU"

    def test_plru8_ground_truth_identifies_as_plru(self):
        machine = make_policy("PLRU", 8).to_mealy().minimize()
        assert machine.size == 128
        assert identify_policy(machine, 8) == "PLRU"

    def test_candidate_past_the_pair_bound_is_skipped(self, monkeypatch):
        reference = make_policy("LRU", 3).to_mealy()
        machine = reference.minimize()
        # Against a minimal machine the walk visits one pair per reachable
        # control state, so the bound acts like to_mealy's max_states.
        monkeypatch.setattr(pipeline, "IDENTIFICATION_MAX_PAIRS", reference.size)
        assert identify_policy(machine, 3, ["LRU"]) == "LRU"
        monkeypatch.setattr(pipeline, "IDENTIFICATION_MAX_PAIRS", reference.size - 1)
        assert identify_policy(machine, 3, ["LRU"]) is None

    def test_candidate_errors_other_than_undefined_propagate(self, monkeypatch):
        class BrokenLRU(LRUPolicy):
            def on_hit(self, state, line):
                raise RuntimeError("instrumented on_hit failure")

        monkeypatch.setitem(registry._REGISTRY, "BROKEN", BrokenLRU)
        machine = make_policy("LRU", 2).to_mealy().minimize()
        with pytest.raises(RuntimeError, match="instrumented"):
            identify_policy(machine, 2, ["BROKEN", "LRU"])

    def test_alphabet_must_match_associativity(self):
        machine = make_policy("LRU", 2).to_mealy().minimize()
        with pytest.raises(MealyDefinitionError, match="associativity 3"):
            identify_policy(machine, 3)
