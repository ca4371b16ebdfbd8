"""Tests for Polca (Algorithm 1), reset strategies and the learning pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import EVICT, MISS_OUTPUT, Line, policy_input_alphabet
from repro.core.mealy import MealyDefinitionError
from repro.core.trace import Trace
from repro.cachequery import CacheQuery, CacheQueryConfig, CacheQuerySetInterface
from repro.errors import CacheQueryError, NonDeterminismError, PolicyError
from repro.hardware.cpu import SimulatedCPU
from repro.hardware.profiles import SKYLAKE_I5_6500
from repro.hardware.timing import NoiseModel
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


def _cachequery_oracle(
    associativity=2, *, use_cache=True, reset=None, oracle_type=PolcaMembershipOracle
):
    """Polca (an ``oracle_type``) over CacheQuery on Skylake, L2 reduced to
    ``associativity``, set 0, noise-free timing; returns ``(frontend, oracle)``."""
    profile = SKYLAKE_I5_6500.with_level("L2", associativity=associativity)
    frontend = CacheQuery(
        SimulatedCPU(profile, noise=NoiseModel(std=0.0)),
        CacheQueryConfig(level="L2", set_index=0, use_cache=use_cache),
    )
    interface = CacheQuerySetInterface(frontend, reset=reset or FlushRefillReset())
    return frontend, oracle_type(interface)


def _has_hit_run(word):
    """True when some Ln(i) is followed by another symbol of its run."""
    return any(isinstance(symbol, Line) for symbol in word[:-1])


class _AlgorithmOneOrder(PolcaMembershipOracle):
    """Reference Polca: one probe per symbol, shortest first, and every
    ``findEvicted`` line probed after its miss, as Algorithm 1 reads."""

    def _run_symbols(self, symbols, content, accesses):
        outputs = []
        for symbol in symbols:
            accesses.append(self._map_input(symbol, content))
            self._observe(symbol, self._probe_last(accesses), accesses, content, outputs)
        return tuple(outputs)


class TestProbeOrder:
    """Polca probes findEvicted's first line, then each Hit-run's longest
    query, so CacheQuery's response cache answers the run's shorter probes."""

    def test_one_word_books_algorithm_1_and_executes_the_run_once(self):
        frontend, oracle = _cachequery_oracle()
        assert oracle.output_query((Line(0), Line(1), EVICT)) == (MISS_OUTPUT, MISS_OUTPUT, 0)
        assert (oracle.statistics.cache_probes, oracle.statistics.block_accesses) == (5, 14)
        # P.A.B.C.A (findEvicted's first probe) and P.A.B.C.B execute;
        # P.A, P.A.B and P.A.B.C are prefixes of the first (probing shortest
        # first executed all 5: 282 loads).
        assert frontend.backend.executed_queries == 2
        assert frontend.backend.executed_loads == 156
        assert (frontend.cache.hits, frontend.cache.misses) == (3, 2)

    def test_lone_evict_executes_find_evicted_only(self):
        frontend, oracle = _cachequery_oracle()
        assert oracle.output_query((EVICT,)) == (0,)
        assert (oracle.statistics.cache_probes, oracle.statistics.block_accesses) == (3, 5)
        # P.C is a prefix of findEvicted's first probe, P.C.A.
        assert frontend.backend.executed_queries == 2
        assert frontend.backend.executed_loads == 84

    @pytest.mark.parametrize("associativity", [2, 4])
    def test_seeded_words_match_an_uncached_frontend(self, associativity):
        import dataclasses
        import random

        rng = random.Random(associativity)
        alphabet = policy_input_alphabet(associativity)
        for _ in range(25):
            word = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
            cached, oracle = _cachequery_oracle(associativity)
            uncached, reference = _cachequery_oracle(associativity, use_cache=False)
            assert oracle.output_query(word) == reference.output_query(word)
            assert dataclasses.asdict(oracle.statistics) == dataclasses.asdict(
                reference.statistics
            )
            assert uncached.backend.executed_queries == reference.statistics.cache_probes
            if _has_hit_run(word) or EVICT in word:
                assert cached.backend.executed_queries < uncached.backend.executed_queries

    def test_broken_resets_fail_on_the_same_words(self):
        """With no reset or ``A B``, 25 of these 80 words raise; every word
        raises, or answers, as it does when Polca probes in Algorithm 1's
        order (a word's outputs, or ``!`` for a raise).  Messages are not
        compared: the conflicting query they name follows the probe order."""
        import random

        expected = (
            "! 01 ! -- ! -- -- -0-- ! -1--- - 0--10- ! - ---- -01 ! 01---- "
            "- 01- - 0- ! 0- -- ---- ! -101 ! -0-- -- -1--1 ! -- ! 01-- ! "
            "-010- ! --- ! -0- ! 01 ---- - ! ---- -- 0---0- - - ! --0-01 -- 0--- "
            "- 0--- ! --1- ! 0-- ! 0 ! -01 --- ---- ! --0-- ! ---01 --- ---1 "
            "-- --1-1 ! -- ! 0----"
        ).split()
        rng = random.Random(28)
        alphabet = policy_input_alphabet(2)
        observed, reference = [], []
        for index in range(80):
            word = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
            reset = (NoReset(), SequenceReset("A B"))[index % 2]
            for answers, oracle_type in (
                (observed, PolcaMembershipOracle),
                (reference, _AlgorithmOneOrder),
            ):
                _, oracle = _cachequery_oracle(reset=reset, oracle_type=oracle_type)
                try:
                    answers.append("".join(str(output) for output in oracle.output_query(word)))
                except NonDeterminismError:
                    answers.append("!")
        assert observed.count("!") == 25
        assert observed == reference
        assert observed == expected

    def test_evict_that_hits_raises(self):
        """Without a reset the block Polca picks for ``Evct`` can be cached:
        a hit is not an output of Definition 2.1, so Polca raises."""
        _, oracle = _cachequery_oracle(reset=NoReset())
        with pytest.raises(NonDeterminismError) as raised:
            oracle.output_query((EVICT,))
        assert raised.value.query == ("C",)
        assert (raised.value.first, raised.value.second) == (("Miss",), ("Hit",))

    @pytest.mark.parametrize(
        "word", [(Line(0), Line(5)), (Line(0), Line(1), Line(0), Line(9), EVICT)]
    )
    def test_out_of_range_line_fails_before_its_run_is_probed(self, word):
        frontend, oracle = _cachequery_oracle()
        bad = next(symbol for symbol in word if symbol.index >= 2)
        with pytest.raises(PolicyError, match=f"line index {bad.index} out of range"):
            oracle.output_query(word)
        assert oracle.statistics.cache_probes == 0
        assert frontend.backend.executed_queries == 0

    def test_probe_outside_the_pool_names_the_block(self):
        frontend, oracle = _cachequery_oracle()
        with pytest.raises(CacheQueryError, match="'ZZ'"):
            oracle.cache.probe(["A", "ZZ"])


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
