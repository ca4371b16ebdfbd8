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


def learn_policy_from_cache(
    cache: CacheProbeInterface,
    *,
    depth: int = 1,
    identify: bool = True,
    identification_candidates: Optional[Sequence[str]] = None,
    max_tests: Optional[int] = None,
    workers: Optional[int] = None,
    store=None,
    kernel: str = "auto",
    learner: str = "lstar",
) -> PolicyLearningReport:
    """Learn the policy behind a cache interface (Figure 1).

    One trie-backed query engine is shared between the learner and the
    conformance tester, so equivalence-testing words whose prefixes were
    already learned (or vice versa) never hit the cache interface twice.

    * ``learner`` names the student: ``"lstar"`` (observation table, the
      paper's configuration) or ``"ttt"`` (classification tree with
      discriminator finalization and incremental sifting).  Both learn the
      same minimal machine bit-identically; an unknown name raises
      :class:`~repro.errors.LearningError` before anything is built.
    * ``kernel`` runs Polca's probes over simulated targets: ``"auto"`` (the
      tabulated kernel when the policy tabulates, else scalar) or
      ``"scalar"``.  Answers and statistics are identical either way.
    * ``store`` is an optional shared :class:`~repro.store.PrefixStore` for
      the engine's trie: pass the instance backing the frontend's
      ``QueryCache`` (and/or a path-backed store) so one file persists the
      whole measurement state of a run.
    * ``workers=N`` (N > 1) hands the engine ``WorkerPool(polca, N)``
      (:mod:`repro.learning.parallel`) instead of Polca itself, so the
      misses of every engine batch — the learner's rounds and the
      conformance suite's chunks alike — execute on N worker processes,
      each holding a copy of this run's Polca.  Answers and Polca's counters
      come back in batch order, so the learned machine and every statistics
      column are identical to a serial run.
    """
    if learner.lower() not in LEARNER_NAMES:
        raise LearningError(f"unknown learner {learner!r}; expected one of {LEARNER_NAMES}")
    start = time.perf_counter()
    polca = PolcaMembershipOracle(cache, kernel=kernel)
    pool = WorkerPool(polca, workers) if workers is not None and workers > 1 else None
    derive = getattr(cache, "store_namespace", None)
    namespace = ("learning",) + (tuple(derive()) if callable(derive) else ())
    engine = CachedMembershipOracle(pool or polca, store=store, namespace=namespace)
    equivalence = ConformanceEquivalenceOracle(engine, depth=depth, max_tests=max_tests)
    student = make_learner(learner, polca.alphabet(), engine, equivalence)
    try:
        result = student.learn()
    finally:
        if pool is not None:
            pool.close()
    machine = result.machine.minimize()
    identified = None
    if identify:
        identified = identify_policy(machine, cache.associativity, identification_candidates)
    elapsed = time.perf_counter() - start
    extra = {"kernel": polca.kernel_in_use, "cached_prefixes": engine.size}
    tree = getattr(student, "tree", None)
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
    if store is not None:
        extra["store"] = store.statistics()
    if pool is not None:
        extra["workers"] = workers
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
        associativity=cache.associativity,
        identified_policy=identified,
        wall_clock_seconds=elapsed,
        extra=extra,
    )


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
