"""Active automata learning for Mealy machines.

This package is the library's substitute for LearnLib (Section 3.4): an
observation-table L* learner for Mealy machines (Angluin's algorithm in
Niese's Mealy formulation), Rivest–Schapire counterexample processing, and
Wp-method conformance testing used to approximate equivalence queries
with the ``(|H| + k)``-completeness guarantee of Theorem 3.3.

All membership queries flow through one query engine,
:class:`~repro.learning.oracles.CachedMembershipOracle`
(:mod:`repro.learning.query_engine`): the observation table, the tree
learner and the conformance tester stage whole rounds of words, and the
engine alone partitions them against its response trie, dedupes and
prefix-subsumes the misses, and decides where they execute.  The system
under learning executes exactly the words it is handed.

Two learners sit on that engine: L* (:class:`MealyLearner`, the paper's
configuration) and the TTT classification-tree learner
(:class:`~repro.learning.ttt.TTTLearner`); :func:`make_learner` builds
either by name.

Process-parallel execution lives below the engine, not inside it
(:mod:`repro.learning.parallel`): a
:class:`~repro.learning.parallel.WorkerPool` wraps the system under
learning as one more membership oracle, ``CachedMembershipOracle(
WorkerPool(sul, n))``.  It runs the misses of each engine batch — the
learner's rounds and the conformance suite's chunks alike — on worker
processes holding copies of the SUL and returns the answers in batch
order, so learned machines are bit-identical to serial runs.
"""

from repro.learning.query_engine import (
    ResponseTrie,
    dedupe_and_subsume,
    output_query_batch,
    partition_batch,
    supports_batching,
    supports_resume,
)
from repro.learning.oracles import (
    CachedMembershipOracle,
    FunctionOracle,
    MealyMachineOracle,
    MembershipOracle,
    QueryStatistics,
)
from repro.learning.observation_table import ObservationTable
from repro.learning.counterexample import (
    process_counterexample_prefixes,
    process_counterexample_rivest_schapire,
)
from repro.learning.wpmethod import (
    characterization_set,
    iter_w_method_suite,
    iter_wp_method_suite,
    state_cover,
    transition_cover,
    w_method_suite,
    wp_method_suite,
)
from repro.learning.parallel import WorkerPool
from repro.learning.equivalence import (
    ConformanceEquivalenceOracle,
    EquivalenceOracle,
    PerfectEquivalenceOracle,
    RandomWalkEquivalenceOracle,
)
from repro.learning.learner import (
    ActiveLearner,
    LEARNER_NAMES,
    LearningResult,
    MealyLearner,
    learn_mealy_machine,
    make_learner,
)
from repro.learning.ttt import TTTLearner, TTTTree

__all__ = [
    "ResponseTrie",
    "dedupe_and_subsume",
    "output_query_batch",
    "partition_batch",
    "supports_batching",
    "supports_resume",
    "CachedMembershipOracle",
    "FunctionOracle",
    "MealyMachineOracle",
    "MembershipOracle",
    "QueryStatistics",
    "ObservationTable",
    "process_counterexample_prefixes",
    "process_counterexample_rivest_schapire",
    "characterization_set",
    "iter_w_method_suite",
    "iter_wp_method_suite",
    "state_cover",
    "transition_cover",
    "w_method_suite",
    "wp_method_suite",
    "WorkerPool",
    "ConformanceEquivalenceOracle",
    "EquivalenceOracle",
    "PerfectEquivalenceOracle",
    "RandomWalkEquivalenceOracle",
    "ActiveLearner",
    "LEARNER_NAMES",
    "LearningResult",
    "MealyLearner",
    "learn_mealy_machine",
    "make_learner",
    "TTTLearner",
    "TTTTree",
]
