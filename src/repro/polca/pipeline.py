"""The end-to-end policy-learning pipeline (Figure 1).

``learn_policy_from_cache`` chains the three boxes of the paper's Figure 1:
a cache interface (software-simulated or CacheQuery-backed), Polca as the
membership oracle, and the Mealy learner with Wp-method conformance testing
as the equivalence oracle.  The result bundles the learned machine with the
query statistics and, when possible, the *name* of a known policy the
machine is equivalent to (how the paper identifies "PLRU" or labels the
unknown machines "New1"/"New2").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.alphabet import policy_input_alphabet
from repro.core.mealy import MealyDefinitionError, MealyMachine, shortest_counterexample
from repro.errors import LearningError, PolicyError
from repro.learning.equivalence import ConformanceEquivalenceOracle
from repro.learning.learner import LEARNER_NAMES, LearningResult, make_learner
from repro.learning.oracles import CachedMembershipOracle
from repro.learning.parallel import WorkerPool
from repro.polca.algorithm import PolcaMembershipOracle, PolcaStatistics
from repro.polca.interfaces import CacheProbeInterface, SimulatedCacheInterface
from repro.policies.base import ReplacementPolicy
from repro.policies.registry import available_policies, make_policy


@dataclass
class PolicyLearningReport:
    """Everything the experiment harness wants to know about one learning run."""

    machine: MealyMachine
    learning_result: LearningResult
    polca_statistics: PolcaStatistics
    associativity: int
    identified_policy: Optional[str] = None
    wall_clock_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def num_states(self) -> int:
        """Number of states of the learned (minimal) machine."""
        return self.machine.size


#: Most (machine state, candidate control state) pairs one identification
#: walk may visit.  Against a minimal machine an equivalent candidate's walk
#: visits one pair per reachable control state, so this caps the candidate's
#: state space as :meth:`ReplacementPolicy.to_mealy`'s ``max_states`` would.
IDENTIFICATION_MAX_PAIRS = 200_000


def identify_policy(
    machine: MealyMachine,
    associativity: int,
    candidates: Optional[Sequence[str]] = None,
) -> Optional[str]:
    """Return the name of a registered policy trace-equivalent to ``machine``.

    This is how Table 4 labels learned automata: machines equivalent to a
    manually implemented reference (e.g. tree PLRU) get that name; machines
    equivalent to none of the references are "previously undocumented".

    Each candidate is instantiated at ``associativity`` and checked by one
    lazy product walk (:func:`~repro.core.mealy.shortest_counterexample`):
    a breadth-first search over (machine state, candidate control state)
    pairs that steps the candidate through ``policy.step`` and stops at the
    first differing output.  A wrong candidate costs a handful of pairs, an
    equivalent one its reachable states, and no reference machine is built,
    so ``machine`` need not be minimal.  Candidates are tried in the given
    order, by default the registry's sorted names, and the first equivalent
    one wins: where policies coincide at an associativity the alphabetically
    first is reported (PLRU-2 reads ``"NEW1"``, MRU-2 ``"LRU"``).  A
    candidate is skipped when the registry does not define it at this
    associativity (PLRU at non-powers of two) or when its walk visits more
    than :data:`IDENTIFICATION_MAX_PAIRS` pairs.

    Raises :class:`~repro.core.mealy.MealyDefinitionError` when the input
    alphabet of ``machine`` is not the policy alphabet of ``associativity``.
    """
    if set(machine.inputs) != set(policy_input_alphabet(associativity)):
        raise MealyDefinitionError(
            f"machine alphabet is not the policy alphabet of associativity {associativity}"
        )
    names = list(candidates) if candidates is not None else available_policies()
    for name in names:
        try:
            policy = make_policy(name, associativity)
            counterexample = shortest_counterexample(
                machine,
                policy.initial_state(),
                policy.step,
                max_pairs=IDENTIFICATION_MAX_PAIRS,
            )
        except (PolicyError, MealyDefinitionError):  # not defined here, or past the bound
            continue
        if counterexample is None:
            return name
    return None


class PolicyLearningPipeline:
    """Configurable Polca + learner pipeline.

    ``workers=N`` (N > 1) hands the query engine
    ``WorkerPool(polca, N)`` (:mod:`repro.learning.parallel`) instead of
    Polca itself, so the misses of every engine batch — the learner's
    rounds and the conformance suite's chunks alike — execute on N worker
    processes, each holding a copy of this run's Polca.  Answers and Polca's
    counters come back in batch order, so the learned machine and every
    statistics column are identical to a serial run.
    """

    def __init__(
        self,
        cache: CacheProbeInterface,
        *,
        depth: int = 1,
        counterexample_strategy: str = "rivest-schapire",
        identify: bool = True,
        identification_candidates: Optional[Sequence[str]] = None,
        max_tests: Optional[int] = None,
        workers: Optional[int] = None,
        resume: bool = False,
        store=None,
        kernel: str = "auto",
        learner: str = "lstar",
    ) -> None:
        if learner.lower() not in LEARNER_NAMES:
            raise LearningError(
                f"unknown learner {learner!r}; expected one of {LEARNER_NAMES}"
            )
        if resume and workers is not None and workers > 1:
            raise LearningError(
                "resume sessions are stateful and inherently serial; they also "
                "change which measurements execute, so probe columns would no "
                "longer be worker-count-invariant — use resume=True or "
                "workers>1, not both"
            )
        self.cache = cache
        self.depth = depth
        self.counterexample_strategy = counterexample_strategy
        self.identify = identify
        self.identification_candidates = identification_candidates
        self.max_tests = max_tests
        self.workers = workers
        self.resume = resume
        #: Which student runs the loop: ``"lstar"`` (observation table, the
        #: paper's configuration) or ``"ttt"`` (classification tree with
        #: discriminator finalization and incremental sifting — fewer
        #: executed symbols per discovered state on large policies).  Both
        #: learn the same minimal machine bit-identically.
        self.learner = learner.lower()
        #: Execution strategy for Polca's probes over simulated targets:
        #: ``"auto"`` (the tabulated kernel when the policy tabulates, else
        #: scalar) or ``"scalar"`` for the per-symbol stepper.  Answers and
        #: statistics are identical across both settings.
        self.kernel = kernel
        #: Optional shared :class:`~repro.store.PrefixStore` the query
        #: engine's trie lives in — pass the same instance backing the
        #: frontend's ``QueryCache`` (and/or a path-backed store) so one
        #: file persists the whole measurement state of a run.
        self.store = store

    def _engine_namespace(self) -> Sequence[object]:
        """Namespace key of the learning trie inside a shared store."""
        derive = getattr(self.cache, "store_namespace", None)
        target = tuple(derive()) if callable(derive) else ()
        return ("learning",) + target

    def run(self) -> PolicyLearningReport:
        """Learn the policy of the configured cache interface.

        One trie-backed query engine is shared between the observation
        table and the conformance tester, so equivalence-testing words whose
        prefixes were already learned (or vice versa) never hit the cache
        interface twice.
        """
        start = time.perf_counter()
        polca = PolcaMembershipOracle(
            self.cache, resume=self.resume, kernel=self.kernel
        )
        pool = None
        if self.workers is not None and self.workers > 1:
            pool = WorkerPool(polca, self.workers)
        engine = CachedMembershipOracle(
            pool or polca, store=self.store, namespace=self._engine_namespace()
        )
        equivalence = ConformanceEquivalenceOracle(
            engine, depth=self.depth, max_tests=self.max_tests
        )
        learner = make_learner(
            self.learner,
            polca.alphabet(),
            engine,
            equivalence,
            counterexample_strategy=self.counterexample_strategy,
        )
        try:
            result = learner.learn()
        finally:
            if pool is not None:
                pool.close()
        machine = result.machine.minimize()
        identified = None
        if self.identify:
            identified = identify_policy(
                machine, self.cache.associativity, self.identification_candidates
            )
        elapsed = time.perf_counter() - start
        extra = {
            "kernel": polca.kernel_in_use,
            "learner": result.learner,
            "rounds": result.rounds,
            "per_round_queries": list(result.per_round_queries),
            "learner_queries": result.learner_queries,
            "learner_symbols": result.learner_symbols,
            "cache_hits": result.statistics.cache_hits,
            "batches": result.statistics.batches,
            "tests_skipped": result.statistics.tests_skipped,
            "cached_prefixes": engine.size,
        }
        tree = getattr(learner, "tree", None)
        if tree is not None:
            # Classification-tree counters (see repro.learning.ttt).
            extra["kv_leaves_from_sifting"] = tree.leaves_from_sifting
            extra["kv_leaves_from_splits"] = tree.leaves_from_splits
            extra["kv_internal_refinements"] = tree.internal_refinements
            extra["discriminator_lengths"] = tree.discriminator_lengths()
            extra["max_discriminator_length"] = tree.max_discriminator_length
            extra["ttt_finalized_discriminators"] = tree.discriminators_finalized
            extra["ttt_temporary_discriminators"] = tree.temporary_discriminators
            extra["ttt_words_resifted_per_split"] = list(tree.words_resifted_per_split)
            extra["ttt_finalization_shrinkage"] = list(tree.finalization_shrinkage)
            extra["ttt_finalization_probe_words"] = tree.finalization_probe_words
        if self.resume:
            extra["resume"] = True
            extra["resumed_symbols"] = result.statistics.resumed_symbols
            extra["polca_resumed_symbols"] = polca.statistics.resumed_symbols
            extra["sessions_opened"] = polca.statistics.sessions_opened
            extra["session_extends"] = polca.statistics.session_extends
        if self.store is not None:
            extra["store"] = self.store.statistics()
        if pool is not None:
            extra["workers"] = self.workers
            extra["parallel_chunks"] = pool.shipped_chunks
            extra["parallel_words"] = pool.shipped_words
            extra["worker_query_counts"] = dict(pool.worker_query_counts)
            extra["worker_symbol_counts"] = dict(pool.worker_symbol_counts)
            extra["worker_statistics"] = {
                pid: dict(counters) for pid, counters in pool.worker_statistics.items()
            }
        return PolicyLearningReport(
            machine=machine,
            learning_result=result,
            polca_statistics=polca.statistics,
            associativity=self.cache.associativity,
            identified_policy=identified,
            wall_clock_seconds=elapsed,
            extra=extra,
        )


def learn_policy_from_cache(cache: CacheProbeInterface, **kwargs) -> PolicyLearningReport:
    """Convenience wrapper around :class:`PolicyLearningPipeline`."""
    return PolicyLearningPipeline(cache, **kwargs).run()


def learn_simulated_policy(
    policy: ReplacementPolicy,
    *,
    depth: int = 1,
    **kwargs,
) -> PolicyLearningReport:
    """Learn a policy from its software-simulated cache (the Table 2 workflow)."""
    if not isinstance(policy, ReplacementPolicy):
        raise LearningError("learn_simulated_policy expects a ReplacementPolicy instance")
    interface = SimulatedCacheInterface(policy)
    return learn_policy_from_cache(interface, depth=depth, **kwargs)
