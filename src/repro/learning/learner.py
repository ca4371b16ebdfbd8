"""The main learning loop (the student of Section 3.1).

Two learners implement the student side behind one interface:

* :class:`MealyLearner` — Angluin's L* with an observation table
  (:mod:`repro.learning.observation_table`), the paper's configuration;
* :class:`~repro.learning.ttt.TTTLearner` — a Kearns–Vazirani
  classification tree with TTT discriminator finalization and incremental
  sifting (:mod:`repro.learning.ttt`), which refines the tree per
  counterexample instead of refilling an O(|S×Σ|·|E|) table every round.

Both share :class:`ActiveLearner`: the query-engine wrapping, the
equivalence loop, per-round executed-query accounting and statistics
collection live here once, so the learners differ only in *how* they turn
answers into hypotheses.  :func:`make_learner` builds either by name (the
``--learner`` knob of the pipeline and CLI, :data:`LEARNER_NAMES`).

The loop mirrors Section 3.4 of the paper: the membership oracle is Polca
(or any other output-query oracle), the equivalence oracle is the k-deep
Wp-method conformance test, and the result carries the completeness caveat
of Corollary 3.4 — the returned machine either equals the target policy or
the policy has more than ``|H| + k`` states.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.mealy import MealyMachine
from repro.errors import BudgetExceeded, LearningError
from repro.learning.counterexample import (
    process_counterexample_prefixes,
    process_counterexample_rivest_schapire,
)
from repro.learning.equivalence import EquivalenceOracle
from repro.learning.observation_table import ObservationTable
from repro.learning.oracles import (
    CachedMembershipOracle,
    MembershipOracle,
    QueryStatistics,
)

Input = Hashable
Word = Tuple[Input, ...]

#: Learner names accepted by :func:`make_learner` (and the ``--learner`` knob).
LEARNER_NAMES = ("lstar", "ttt")

#: Equivalence rounds after which :meth:`ActiveLearner.learn` gives up.
MAX_LEARNING_ROUNDS = 10_000


@dataclass
class LearningResult:
    """Outcome of a learning run."""

    machine: MealyMachine
    rounds: int
    learning_seconds: float
    statistics: QueryStatistics
    counterexamples: List[Word] = field(default_factory=list)
    #: Executed membership queries per equivalence round, in round order
    #: (the refinement that produced a round's hypothesis counts toward that
    #: round).  Sums to ``statistics.membership_queries`` for cached engines.
    per_round_queries: List[int] = field(default_factory=list)
    #: Name of the learner that produced this result (``"lstar"`` /
    #: ``"ttt"``).
    learner: str = "lstar"
    #: Executed membership queries attributed to the learner's own probes —
    #: the engine total minus what the equivalence oracle executed through
    #: the shared engine.  This is the apples-to-apples cost of the learning
    #: algorithm itself: the conformance suite's vocabulary overlaps more
    #: with L*'s table words than with the tree's sift probes, so engine
    #: totals mix the two cost centres.
    learner_queries: int = 0
    #: Executed membership *symbols* attributed to the learner's own probes
    #: (engine symbol total minus suite executions) — the companion of
    #: :attr:`learner_queries` that shows discriminator-length wins: two
    #: learners can execute the same number of probe words while one pays
    #: far fewer symbols per word.
    learner_symbols: int = 0

    @property
    def num_states(self) -> int:
        """Number of states of the learned machine."""
        return self.machine.size

    @property
    def tests_skipped(self) -> int:
        """Conformance-suite words skipped because of a ``max_tests`` cap."""
        return self.statistics.tests_skipped

    @property
    def completeness_guaranteed(self) -> bool:
        """False when suite truncation voided the Corollary 3.4 guarantee."""
        return self.statistics.tests_skipped == 0


class ActiveLearner:
    """Shared scaffolding of the active-learning loop.

    Membership queries flow through the batched query engine: the oracle
    is wrapped in a :class:`~repro.learning.oracles.CachedMembershipOracle`
    unless it already is one, which lets callers share one engine between
    the learner and the equivalence oracle.  When the engine's delegate is
    a :class:`~repro.learning.parallel.WorkerPool`, the misses of the
    learner's per-round batches (table fill for L*, sift rounds for the
    tree) run on worker processes and come back in batch order, so
    parallel runs learn machines bit-identical to serial ones.

    Subclasses build the first hypothesis in :meth:`_initial_hypothesis`
    and turn a counterexample into the next one in :meth:`_refine`;
    :meth:`learn` runs the equivalence loop around them.
    """

    #: Registry name of the learner; subclasses override.
    name: str = ""
    #: Counterexample strategies the learner accepts.
    counterexample_strategies: Tuple[str, ...] = ("rivest-schapire", "prefixes")

    def __init__(
        self,
        alphabet: Sequence[Input],
        membership_oracle: MembershipOracle,
        equivalence_oracle: EquivalenceOracle,
        *,
        counterexample_strategy: str = "rivest-schapire",
    ) -> None:
        if counterexample_strategy not in self.counterexample_strategies:
            raise LearningError(
                f"learner {self.name!r} does not support counterexample strategy "
                f"{counterexample_strategy!r}; expected one of "
                f"{self.counterexample_strategies}"
            )
        self.alphabet = tuple(alphabet)
        if isinstance(membership_oracle, CachedMembershipOracle):
            self.membership_oracle: MembershipOracle = membership_oracle
        else:
            self.membership_oracle = CachedMembershipOracle(membership_oracle)
        self.equivalence_oracle = equivalence_oracle
        self.counterexample_strategy = counterexample_strategy
        self._suite_queries = 0
        self._suite_symbols = 0

    def learn(self) -> LearningResult:
        """Run the learning loop until the equivalence oracle is satisfied."""
        start = time.perf_counter()
        self._suite_queries = 0
        self._suite_symbols = 0
        origin = self._executed_queries()
        symbol_origin = self._executed_symbols()
        round_mark = origin
        per_round_queries: List[int] = []
        counterexamples: List[Word] = []

        hypothesis = self._initial_hypothesis()

        for round_number in range(1, MAX_LEARNING_ROUNDS + 1):
            counterexample = self._find_counterexample(hypothesis)
            if counterexample is None:
                per_round_queries.append(self._executed_queries() - round_mark)
                elapsed = time.perf_counter() - start
                return LearningResult(
                    machine=hypothesis.relabel(),
                    rounds=round_number,
                    learning_seconds=elapsed,
                    statistics=self._collect_statistics(),
                    counterexamples=counterexamples,
                    per_round_queries=per_round_queries,
                    learner=self.name,
                    learner_queries=self._executed_queries()
                    - origin
                    - self._suite_queries,
                    learner_symbols=self._executed_symbols()
                    - symbol_origin
                    - self._suite_symbols,
                )
            counterexample = tuple(counterexample)
            counterexamples.append(counterexample)
            hypothesis = self._refine(hypothesis, counterexample)
            per_round_queries.append(self._executed_queries() - round_mark)
            round_mark = self._executed_queries()

        raise BudgetExceeded(
            f"learning did not converge within {MAX_LEARNING_ROUNDS} rounds",
            spent=MAX_LEARNING_ROUNDS,
            budget=MAX_LEARNING_ROUNDS,
        )

    def _initial_hypothesis(self) -> MealyMachine:
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def _refine(self, hypothesis: MealyMachine, counterexample: Word) -> MealyMachine:
        raise NotImplementedError  # pragma: no cover - subclasses implement

    # ------------------------------------------------------------- accounting

    @property
    def states_discovered(self) -> int:
        """States the learner has discovered so far (readable mid-run, e.g.
        after a :class:`~repro.errors.BudgetExceeded` interrupted learning)."""
        return 0  # pragma: no cover - subclasses override

    def _executed_queries(self) -> int:
        """Executed membership queries of the engine so far."""
        return self.membership_oracle.statistics.membership_queries

    def _executed_symbols(self) -> int:
        """Executed membership symbols of the engine so far."""
        return self.membership_oracle.statistics.membership_symbols

    def _find_counterexample(self, hypothesis: MealyMachine):
        """One equivalence query, attributing its executions to the suite.

        The equivalence oracle usually shares the learner's query engine, so
        its executed words land in the same counter as the learner's own
        probes; snapshotting around the call splits the two cost centres and
        feeds :attr:`LearningResult.learner_queries` /
        :attr:`LearningResult.learner_symbols`.
        """
        before = self._executed_queries()
        before_symbols = self._executed_symbols()
        try:
            return self.equivalence_oracle.find_counterexample(hypothesis)
        finally:
            self._suite_queries += self._executed_queries() - before
            self._suite_symbols += self._executed_symbols() - before_symbols

    def _collect_statistics(self) -> QueryStatistics:
        statistics = QueryStatistics()
        for candidate in (self.membership_oracle, self.equivalence_oracle):
            candidate_stats = getattr(candidate, "statistics", None)
            if isinstance(candidate_stats, QueryStatistics):
                statistics = statistics.merge(candidate_stats)
        return statistics


class MealyLearner(ActiveLearner):
    """Observation-table L* learner for Mealy machines.

    See :class:`ActiveLearner` for the engine behaviour.
    """

    name = "lstar"
    counterexample_strategies = ("rivest-schapire", "prefixes")

    #: The observation table of the current/most recent run (None before
    #: :meth:`learn`); exposed so budget-interrupted runs stay inspectable.
    table: Optional[ObservationTable] = None

    @property
    def states_discovered(self) -> int:
        """Access words added as short rows so far (distinct rows ≈ states)."""
        return len(self.table.short_prefixes) if self.table is not None else 0

    def _initial_hypothesis(self) -> MealyMachine:
        self.table = ObservationTable(self.alphabet, self.membership_oracle)
        self.table.make_closed_and_consistent()
        return self.table.hypothesis()

    def _process_counterexample(self, hypothesis: MealyMachine, counterexample: Word) -> None:
        table = self.table
        if self.counterexample_strategy == "prefixes":
            process_counterexample_prefixes(table, counterexample)
            return
        try:
            process_counterexample_rivest_schapire(
                table, hypothesis, self.membership_oracle, counterexample
            )
        except LearningError:
            # Fall back to the always-sound prefix strategy (e.g. on a
            # spurious counterexample caused by an already-known suffix).
            process_counterexample_prefixes(table, counterexample)

    def _refine(self, hypothesis: MealyMachine, counterexample: Word) -> MealyMachine:
        table = self.table
        previous_size = hypothesis.size
        self._process_counterexample(hypothesis, counterexample)
        table.make_closed_and_consistent()
        hypothesis = table.hypothesis()
        if hypothesis.size == previous_size and hypothesis.run(counterexample) != tuple(
            self.membership_oracle.output_query(counterexample)
        ):
            # The refinement did not resolve the counterexample; escalate
            # to the prefix strategy to guarantee progress.
            process_counterexample_prefixes(table, counterexample)
            table.make_closed_and_consistent()
            hypothesis = table.hypothesis()
        return hypothesis


def make_learner(
    name: str,
    alphabet: Sequence[Input],
    membership_oracle: MembershipOracle,
    equivalence_oracle: EquivalenceOracle,
    **kwargs,
) -> ActiveLearner:
    """Build a learner by registry name (``"lstar"`` or ``"ttt"``).

    This is the single construction point behind the ``--learner`` knob of
    the pipeline, the experiment tables and the CLI; unknown names raise
    :class:`~repro.errors.LearningError` listing the valid names
    (:data:`LEARNER_NAMES`) so a typo fails loudly instead of silently
    learning with the default algorithm.
    """
    cls = _learner_class(name)
    if cls is None:
        raise LearningError(
            f"unknown learner {name!r}; expected one of {LEARNER_NAMES}"
        )
    return cls(alphabet, membership_oracle, equivalence_oracle, **kwargs)


def _learner_class(name: str):
    """Resolve a registry name to its learner class (None when unknown).

    The tree learner imports lazily so ``repro.learning.learner`` stays
    import-cycle-free (:mod:`repro.learning.ttt` imports this module for the
    :class:`ActiveLearner` base).
    """
    normalized = name.lower()
    if normalized == "lstar":
        return MealyLearner
    if normalized == "ttt":
        from repro.learning.ttt import TTTLearner

        return TTTLearner
    return None


def learn_mealy_machine(
    alphabet: Sequence[Input],
    membership_oracle: MembershipOracle,
    equivalence_oracle: EquivalenceOracle,
    *,
    learner: str = "lstar",
    **kwargs,
) -> LearningResult:
    """Convenience wrapper: build a learner (L* by default) and run it."""
    instance = make_learner(
        learner, alphabet, membership_oracle, equivalence_oracle, **kwargs
    )
    return instance.learn()
