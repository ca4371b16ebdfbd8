"""Resumable measurement sessions, end to end.

Covers the PR-5 resume protocol at every layer:

* the CacheQuery frontend's stateful measurement session
  (``open_session``/``extend``/``reset_session``) with lazy, cache-aware
  execution — fully cached extensions cost zero backend loads, un-cached
  extensions execute exactly the pending suffix;
* the cache interfaces' session extension (simulated and CacheQuery-backed);
* :class:`~repro.polca.algorithm.PolcaMembershipOracle` with ``resume=True``
  — ``supports_resume`` advertised, state reconstruction from cached prefix
  outputs, measurable probe/symbol savings, identical outputs;
* the pipeline flag: machines learned with ``resume=True`` are bit-identical
  to plain runs, and resume + workers is rejected.
"""

from __future__ import annotations

import pytest

from repro.cache.cacheset import HIT, MISS
from repro.cachequery.backend import BackendConfig
from repro.cachequery.frontend import CacheQuery, CacheQueryConfig, CacheQuerySetInterface
from repro.errors import CacheQueryError, LearningError
from repro.hardware.cpu import SimulatedCPU
from repro.hardware.profiles import cpu_profile
from repro.hardware.timing import NoiseModel
from repro.learning.oracles import CachedMembershipOracle
from repro.learning.query_engine import supports_resume
from repro.polca.algorithm import PolcaMembershipOracle
from repro.polca.interfaces import SimulatedCacheInterface
from repro.polca.pipeline import learn_policy_from_cache, learn_simulated_policy
from repro.policies.registry import make_policy


def _frontend(level: str = "L2", associativity: int = 2) -> CacheQuery:
    # Noise-free measurements: session extensions execute each operation
    # once (no repetition/majority voting), so a default-noise CPU's rare
    # timing outliers would surface as NonDeterminismError — by design, the
    # broken-measurement signal of Section 7.1.
    profile = cpu_profile("i5-6500").with_level(level, associativity=associativity)
    cpu = SimulatedCPU(profile, noise=NoiseModel(std=0.0))
    return CacheQuery(
        cpu,
        CacheQueryConfig(
            level=level, set_index=0, backend=BackendConfig(repetitions=1)
        ),
    )


class TestFrontendSessions:
    def test_extend_requires_an_open_session(self):
        frontend = _frontend()
        with pytest.raises(CacheQueryError, match="open_session"):
            frontend.extend("A?")

    def test_session_outcomes_match_standalone_queries(self):
        frontend = _frontend()
        (standalone,) = frontend.query("A B A? B? C?")
        fresh = _frontend()
        fresh.open_session()
        first = fresh.extend("A B A?")
        second = fresh.extend("B? C?")
        assert first + second == standalone

    def test_cached_extension_executes_nothing(self):
        frontend = _frontend()
        frontend.query("A B A? B?")  # caches the whole path
        frontend.open_session()
        before = frontend.backend.executed_loads
        outcomes = frontend.extend("A B A? B?")
        assert frontend.backend.executed_loads == before  # served from the trie
        (reference,) = frontend.query("A B A? B?")
        assert outcomes == reference

    def test_uncached_extension_executes_only_the_pending_suffix(self):
        frontend = _frontend(level="L1")  # innermost level: loads == accesses
        frontend.query("A B C?")  # caches A B C
        frontend.open_session()
        frontend.extend("A B C?")  # cached: no loads
        before = frontend.backend.executed_loads
        frontend.extend("D?")
        # The un-cached extension replays the lazily skipped path once (A, B,
        # C) plus the new access — never more.
        assert frontend.backend.executed_loads - before == 4
        before = frontend.backend.executed_loads
        frontend.extend("E?")
        assert frontend.backend.executed_loads - before == 1  # session is live

    def test_session_results_feed_the_response_cache(self):
        frontend = _frontend()
        frontend.open_session()
        frontend.extend("A B A? B?")
        frontend.close_session()
        # The session's measurements now serve plain queries without
        # touching the backend.
        executed = frontend.backend.executed_queries
        (outcome,) = frontend.query("A B A? B?")
        assert frontend.backend.executed_queries == executed
        assert outcome == (HIT, HIT)

    def test_reset_session_restarts_the_path(self):
        frontend = _frontend(level="L1")
        frontend.open_session()
        frontend.extend("A?")
        frontend.reset_session()
        before = frontend.backend.executed_loads
        frontend.extend("A?")  # cached by the first session's recording
        assert frontend.backend.executed_loads == before

    def test_configure_closes_the_session(self):
        frontend = _frontend()
        frontend.open_session()
        frontend.configure(set_index=1)
        assert not frontend.session_active

    def test_multi_query_extension_rejected(self):
        frontend = _frontend()
        frontend.open_session()
        with pytest.raises(CacheQueryError, match="exactly one"):
            frontend.extend("_?")


class TestInterfaceSessions:
    def test_simulated_interface_session_matches_probe(self):
        policy = make_policy("PLRU", 4)
        with_session = SimulatedCacheInterface(policy)
        reference = SimulatedCacheInterface(make_policy("PLRU", 4))
        chain = ["E", "A", "B", "E", "C"]
        with_session.open_session()
        incremental = []
        for block in chain:
            incremental.extend(with_session.extend((block,)))
        with_session.close_session()
        assert tuple(incremental) == reference.probe(chain)

    def test_cachequery_interface_session_matches_probe(self):
        interface = CacheQuerySetInterface(_frontend())
        reference = CacheQuerySetInterface(_frontend())
        chain = ["A", "C", "B", "C"]
        interface.open_session()
        incremental = []
        for block in chain:
            incremental.extend(interface.extend((block,)))
        interface.close_session()
        assert tuple(incremental) == reference.probe(chain)
        assert interface.extend(()) == ()  # empty extension is a no-op

    def test_both_interfaces_advertise_sessions(self):
        assert SimulatedCacheInterface(make_policy("LRU", 2)).supports_sessions
        assert CacheQuerySetInterface(_frontend()).supports_sessions


class TestPolcaResume:
    def _oracles(self, policy_name="PLRU", associativity=4, resume=True):
        interface = SimulatedCacheInterface(make_policy(policy_name, associativity))
        polca = PolcaMembershipOracle(interface, resume=resume)
        return polca, CachedMembershipOracle(polca)

    def test_resume_advertised_only_when_enabled(self):
        plain, _ = self._oracles(resume=False)
        resuming, _ = self._oracles(resume=True)
        assert not supports_resume(plain)
        assert supports_resume(resuming)

    def test_resume_requires_prefix_outputs(self):
        polca, _ = self._oracles()
        word = tuple(polca.alphabet())
        with pytest.raises(LearningError, match="prefix_outputs"):
            polca.output_query_resume(word[:2], word[2:])

    def test_resumed_outputs_match_full_execution(self):
        plain, plain_engine = self._oracles(resume=False)
        resuming, engine = self._oracles(resume=True)
        word = tuple(resuming.alphabet()) * 2
        for cut in range(1, len(word)):
            assert engine.output_query(word[:cut]) == plain_engine.output_query(
                word[:cut]
            )
        assert engine.output_query(word) == plain_engine.output_query(word)
        assert resuming.statistics.resumed_symbols > 0

    def test_resume_executes_only_the_suffix(self):
        polca, engine = self._oracles()
        word = tuple(polca.alphabet())
        engine.output_query(word)
        symbols_before = polca.statistics.policy_symbols
        engine.output_query(word + word[:1])
        # Only the one-symbol suffix was executed at the policy level.
        assert polca.statistics.policy_symbols - symbols_before == 1
        assert polca.statistics.resumed_symbols == len(word)
        assert engine.statistics.resumed_symbols == 1

    def test_resume_saves_probes_and_accesses(self):
        plain, plain_engine = self._oracles(resume=False)
        resuming, engine = self._oracles(resume=True)
        words = [tuple(resuming.alphabet()) * k for k in (1, 2, 3)]
        for word in words:
            assert engine.output_query(word) == plain_engine.output_query(word)
        assert resuming.statistics.cache_probes < plain.statistics.cache_probes
        assert resuming.statistics.block_accesses < plain.statistics.block_accesses
        assert resuming.statistics.sessions_opened > 0

    def test_cachequery_backed_resume_executes_only_uncached_suffixes(self):
        """The hardware path: counted in backend loads, not just probes."""
        frontend = _frontend()
        interface = CacheQuerySetInterface(frontend)
        polca = PolcaMembershipOracle(interface, resume=True)
        engine = CachedMembershipOracle(polca)
        word = tuple(polca.alphabet())
        engine.output_query(word)
        loads_before = frontend.backend.executed_loads
        symbols_before = polca.statistics.policy_symbols
        extended = engine.output_query(word + word[:1])
        assert polca.statistics.policy_symbols - symbols_before == 1
        # Cross-check against a plain full re-execution on a fresh stack.
        fresh = CacheQuerySetInterface(_frontend())
        reference = CachedMembershipOracle(PolcaMembershipOracle(fresh))
        assert extended == reference.output_query(word + word[:1])
        assert frontend.backend.executed_loads > loads_before  # suffix did run


class TestPipelineResume:
    def test_resume_learns_identical_machines(self):
        plain = learn_simulated_policy(make_policy("PLRU", 4), depth=1)
        resumed = learn_simulated_policy(make_policy("PLRU", 4), depth=1, resume=True)
        assert resumed.machine == plain.machine
        assert resumed.extra["resume"] is True
        assert resumed.extra["sessions_opened"] > 0
        # Resume strictly reduces what reaches the cache interface.
        assert (
            resumed.polca_statistics.block_accesses
            < plain.polca_statistics.block_accesses
        )

    def test_resume_on_the_cachequery_path(self):
        frontend = _frontend()
        interface = CacheQuerySetInterface(frontend)
        report = learn_policy_from_cache(interface, depth=1, resume=True, identify=False)
        reference = learn_simulated_policy(make_policy("PLRU", 2), depth=1, identify=False)
        assert report.machine.size == reference.machine.size
        assert report.machine.equivalent(reference.machine)

    def test_resume_rejected_with_workers(self):
        with pytest.raises(LearningError, match="resume"):
            learn_simulated_policy(
                make_policy("LRU", 2), depth=1, resume=True, workers=2
            )
