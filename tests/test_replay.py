"""Plain replay through CacheQuery's response cache, end to end.

Polca answers every word from the initial state, each probe replaying its
access chain from the reset state, and CacheQuery runs every query
``repetitions`` times and majority-votes each outcome.  No measurement
session keeps the cache where a query left it: a shorter probe is a prefix
of a longer one, and the response cache answers it.  Covered at every
layer:

* the CacheQuery frontend — a prefix of an answered query executes
  nothing, an extension replays its whole path, and answers are keyed by
  the target set;
* the cache interfaces — every probe starts from the reset state, and the
  CacheQuery-backed interface answers as the simulated cache of the
  level's policy, from the same initial content;
* Polca under the query engine — the trie answers prefixes without
  probing, an extension is replayed whole, and a second Polca over the
  same frontend is answered by the response cache alone;
* the pipeline — the response cache changes what executes, never what is
  learned.
"""

from __future__ import annotations

import dataclasses

from repro.cache.cacheset import HIT, MISS, CacheSet
from repro.cachequery.backend import BackendConfig
from repro.cachequery.frontend import CacheQuery, CacheQueryConfig, CacheQuerySetInterface
from repro.hardware.cpu import SimulatedCPU
from repro.hardware.profiles import cpu_profile
from repro.hardware.timing import NoiseModel
from repro.learning.oracles import CachedMembershipOracle
from repro.polca.algorithm import PolcaMembershipOracle
from repro.polca.interfaces import SimulatedCacheInterface
from repro.polca.pipeline import learn_policy_from_cache, learn_simulated_policy
from repro.policies.registry import make_policy


def _frontend(
    level: str = "L2", associativity: int = 2, *, use_cache: bool = True
) -> CacheQuery:
    """A noise-free i5-6500 frontend on set 0 of ``level``, reduced to
    ``associativity`` ways, that runs every query once, so executed loads
    count the query's accesses (plus, below L1, the cache filtering's)."""
    profile = cpu_profile("i5-6500").with_level(level, associativity=associativity)
    cpu = SimulatedCPU(profile, noise=NoiseModel(std=0.0))
    return CacheQuery(
        cpu,
        CacheQueryConfig(
            level=level,
            set_index=0,
            use_cache=use_cache,
            backend=BackendConfig(repetitions=1),
        ),
    )


def _polca(interface):
    """Polca over ``interface`` and the query engine that wraps it."""
    polca = PolcaMembershipOracle(interface)
    return polca, CachedMembershipOracle(polca)


class TestFrontendReplay:
    def test_prefix_queries_agree_with_the_full_query(self):
        """Run on identical fresh CPUs without the response cache, a prefix
        of a query measures the query's first outcomes: what lets the cache
        serve prefixes."""
        (full,) = _frontend(use_cache=False).query("A B A? B? C?")
        for text, measured in (("A B A?", 1), ("A B A? B?", 2)):
            assert _frontend(use_cache=False).query(text) == [full[:measured]]

    def test_cached_prefix_executes_nothing(self):
        frontend = _frontend()
        (full,) = frontend.query("A B A? B?")
        before = frontend.backend.executed_loads
        assert frontend.query("A B A?") == [full[:1]]
        assert frontend.query("A B A? B?") == [full]
        assert frontend.backend.executed_loads == before

    def test_uncached_extension_replays_the_whole_path(self):
        frontend = _frontend(level="L1")  # innermost level: loads == accesses
        frontend.query("A B C?")
        before = frontend.backend.executed_loads
        frontend.query("A B C? D?")
        # Nothing resumes from where the answered query left the cache: the
        # extension runs all four accesses again.
        assert frontend.backend.executed_loads - before == 4
        before = frontend.backend.executed_loads
        frontend.query("A B C? D? E?")
        assert frontend.backend.executed_loads - before == 5

    def test_every_probe_starts_from_the_reset_state(self):
        """The interface's reset sequence restores the initial content: a
        probe that evicted a line leaves nothing behind for the next one."""
        frontend = _frontend(use_cache=False)
        interface = CacheQuerySetInterface(frontend)
        initial = interface.initial_blocks()
        spare = interface.block_universe()[len(initial)]
        assert interface.probe([spare]) == (MISS,)  # evicts an initial block
        assert interface.probe(initial) == (HIT, HIT)
        assert frontend.backend.executed_queries == 2

    def test_configure_keys_answers_by_the_new_target(self):
        frontend = _frontend()
        frontend.query("A B C?")
        executed = frontend.backend.executed_queries
        frontend.configure(set_index=1)
        frontend.query("A B C?")  # another set: measured afresh
        assert frontend.backend.executed_queries == executed + 1
        frontend.configure(set_index=0)
        frontend.query("A B C?")  # back on set 0: answered from the cache
        assert frontend.backend.executed_queries == executed + 1


class TestInterfaceReplay:
    def test_simulated_probe_replays_from_the_initial_content(self):
        interface = SimulatedCacheInterface(make_policy("PLRU", 4))
        chain = ["E", "A", "B", "E", "C", "F", "A"]
        reference = CacheSet(make_policy("PLRU", 4), interface.initial_blocks())
        expected = tuple(reference.access(block) for block in chain)
        assert interface.probe(chain) == expected
        for cut in range(1, len(chain)):
            assert interface.probe(chain[:cut]) == expected[:cut]

    def test_cachequery_probe_matches_the_simulated_policy(self):
        """The hardware path answers every probe as the simulated cache of
        the level's policy does."""
        interface = CacheQuerySetInterface(_frontend())
        policy = make_policy(cpu_profile("i5-6500").level("L2").policy, 2)
        simulated = SimulatedCacheInterface(policy, block_names=interface.block_universe())
        chains = [["A", "C", "A", "D", "B", "A"], ["D", "E", "B", "A", "C", "A", "B"]]
        for chain in chains:
            outcomes = interface.probe(chain)
            assert outcomes == simulated.probe(chain)
            assert {HIT, MISS} == set(outcomes)

    def test_both_interfaces_start_from_the_flush_refill_content(self):
        """Both interfaces hold the universe's first ``associativity``
        blocks after their reset, so Polca sees one initial cache on both."""
        hardware = CacheQuerySetInterface(_frontend())
        simulated = SimulatedCacheInterface(
            make_policy("PLRU", 2), block_names=hardware.block_universe()
        )
        for interface in (hardware, simulated):
            universe = interface.block_universe()
            assert interface.initial_blocks() == universe[:2]
            assert interface.probe(universe[:2]) == (HIT, HIT)
            assert interface.probe(universe[2:3]) == (MISS,)


class TestPolcaReplay:
    def test_engine_answers_match_direct_polca_queries(self):
        polca, engine = _polca(SimulatedCacheInterface(make_policy("PLRU", 4)))
        direct = PolcaMembershipOracle(SimulatedCacheInterface(make_policy("PLRU", 4)))
        word = tuple(polca.alphabet()) * 2
        for cut in range(1, len(word) + 1):
            assert engine.output_query(word[:cut]) == direct.output_query(word[:cut])
        # Asked shortest first, every word extended an answered one and ran.
        assert polca.statistics.policy_queries == len(word)
        for cut in range(1, len(word) + 1):
            engine.output_query(word[:cut])
        assert polca.statistics.policy_queries == len(word)
        assert engine.statistics.cache_hits == len(word)

    def test_extension_of_an_answered_word_replays_it_whole(self):
        polca, engine = _polca(SimulatedCacheInterface(make_policy("PLRU", 4)))
        word = tuple(polca.alphabet())
        engine.output_query(word)
        symbols = polca.statistics.policy_symbols
        engine.output_query(word + word[:1])
        # Polca answers every word from the initial state: the answered
        # prefix runs again, with the one new symbol.
        assert polca.statistics.policy_symbols - symbols == len(word) + 1

    def test_prefixes_of_an_answered_word_cost_no_probes(self):
        polca, engine = _polca(SimulatedCacheInterface(make_policy("PLRU", 4)))
        direct = PolcaMembershipOracle(SimulatedCacheInterface(make_policy("PLRU", 4)))
        words = [tuple(polca.alphabet()) * k for k in (3, 2, 1)]
        assert engine.output_query(words[0]) == direct.output_query(words[0])
        cost = (polca.statistics.cache_probes, polca.statistics.block_accesses)
        for word in words[1:]:
            assert engine.output_query(word) == direct.output_query(word)
        assert (polca.statistics.cache_probes, polca.statistics.block_accesses) == cost

    def test_a_second_polca_is_answered_by_the_response_cache(self):
        """The hardware path: a fresh Polca and engine (an empty learning
        trie) replay the same probes, and the response cache answers them
        all, without a backend load."""
        frontend = _frontend()
        interface = CacheQuerySetInterface(frontend)
        first, engine = _polca(interface)
        word = tuple(first.alphabet()) * 2
        answer = engine.output_query(word)
        loads = frontend.backend.executed_loads
        second, fresh_engine = _polca(interface)
        assert fresh_engine.output_query(word) == answer
        assert second.statistics.cache_probes == first.statistics.cache_probes
        assert frontend.backend.executed_loads == loads
        uncached = CacheQuerySetInterface(_frontend(use_cache=False))
        assert PolcaMembershipOracle(uncached).output_query(word) == answer


class TestPipelineReplay:
    def test_response_cache_learns_the_identical_machine(self):
        """The response cache changes what executes, never what is learned
        or what Polca books."""
        cached, uncached = _frontend(), _frontend(use_cache=False)
        with_cache, without = (
            learn_policy_from_cache(CacheQuerySetInterface(frontend), depth=1, identify=False)
            for frontend in (cached, uncached)
        )
        assert with_cache.machine == without.machine
        assert dataclasses.asdict(with_cache.polca_statistics) == dataclasses.asdict(
            without.polca_statistics
        )
        assert uncached.backend.executed_queries == without.polca_statistics.cache_probes
        assert cached.backend.executed_queries < uncached.backend.executed_queries

    def test_cachequery_path_learns_the_simulated_machine(self):
        interface = CacheQuerySetInterface(_frontend())
        report = learn_policy_from_cache(interface, depth=1, identify=False)
        reference = learn_simulated_policy(make_policy("PLRU", 2), depth=1, identify=False)
        assert report.machine.size == reference.machine.size
        assert report.machine.equivalent(reference.machine)
