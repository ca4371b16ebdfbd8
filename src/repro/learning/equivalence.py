"""Equivalence oracles: finding counterexamples to a hypothesis.

Three implementations are provided:

* :class:`ConformanceEquivalenceOracle` — the paper's approach (Section 3.3):
  generate a Wp-method test suite of configurable depth ``k`` for the
  hypothesis and compare the system's answers against the hypothesis' own
  predictions.  Yields the ``(|H| + k)``-completeness guarantee of
  Theorem 3.3 / Corollary 3.4.  Its suite words are answered by the query
  engine, one streamed chunk at a time.
* :class:`RandomWalkEquivalenceOracle` — random word testing, mentioned in
  Section 6 as an alternative heuristic for deeper counterexample search.
* :class:`PerfectEquivalenceOracle` — compares against a known reference
  machine; used in tests and when learning from white-box simulators to
  measure learner performance independently of conformance-testing cost.
"""

from __future__ import annotations

import random
import warnings
from itertools import islice
from typing import Hashable, Iterator, List, Optional, Protocol, Sequence, Tuple

from repro.core.mealy import MealyMachine
from repro.errors import LearningError
from repro.learning.oracles import MembershipOracle, QueryStatistics
from repro.learning.query_engine import output_query_batch
from repro.learning.wpmethod import iter_wp_method_suite

Input = Hashable
Word = Tuple[Input, ...]


def _chunks(words: Iterator[Word], size: int) -> Iterator[List[Word]]:
    """Yield successive ``size``-word lists from a (lazy) word stream."""
    while True:
        chunk = list(islice(words, size))
        if not chunk:
            return
        yield chunk


class EquivalenceOracle(Protocol):
    """Protocol for equivalence oracles."""

    def find_counterexample(self, hypothesis: MealyMachine) -> Optional[Word]:
        """Return an input word on which the SUL and ``hypothesis`` disagree, or ``None``."""
        ...  # pragma: no cover - protocol


class ConformanceEquivalenceOracle:
    """Wp-method conformance testing against a membership oracle.

    The suite is **streamed**: :func:`~repro.learning.wpmethod.\
iter_wp_method_suite` generates test words lazily and the oracle consumes
    them in batches of ``batch_size`` words, so the parent process never
    materialises the full suite (at depth ≥ 2 PLRU-8's suite is ~350k
    words) before the first chunk executes.  Each batch is answered
    through the batched-oracle protocol so duplicate and prefix-subsumed
    test words never reach the system under learning twice.

    When ``max_tests`` truncates the suite, the dropped words are counted in
    ``statistics.tests_skipped``: a truncated suite voids the
    ``(|H| + k)``-completeness guarantee of Corollary 3.4, and the learner
    surfaces the counter so reports can flag the caveat instead of silently
    claiming completeness.

    There is one loop, whatever executes the words: chunks are answered in
    suite order and the first mismatching word is returned.  When the
    engine's delegate is a :class:`~repro.learning.parallel.WorkerPool`,
    each chunk's misses run on its workers, and the counterexample, hence
    the learned machine, is the one a serial run finds.
    """

    def __init__(
        self,
        oracle: MembershipOracle,
        *,
        depth: int = 1,
        max_tests: Optional[int] = None,
        batch_size: int = 64,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if depth < 0:
            raise LearningError(f"depth must be >= 0, got {depth}")
        self.oracle = oracle
        self.depth = depth
        self.max_tests = max_tests
        self.batch_size = batch_size
        self.statistics = QueryStatistics()

    # -------------------------------------------------------------- the suite

    def _suite(self, hypothesis: MealyMachine) -> Iterator[Word]:
        try:
            return iter_wp_method_suite(hypothesis, self.depth)
        except LearningError:
            # The W-set construction requires a minimal machine.  Both
            # learners hand over minimal hypotheses by construction, so this
            # fallback should be unreachable from the learner — keep it as a
            # guarded safety net for hand-built hypotheses, but make it loud.
            warnings.warn(
                "conformance suite requested for a non-minimal hypothesis; "
                "falling back to the minimized machine (suffix-closed "
                "observation tables should never produce one)",
                RuntimeWarning,
                stacklevel=2,
            )
            return iter_wp_method_suite(hypothesis.minimize(), self.depth)

    def _truncated(self, suite: Iterator[Word]) -> Iterator[Word]:
        """Yield the first ``max_tests`` words; count the rest as skipped.

        Draining the generator to count the dropped words costs generation
        time but no executions — the exact ``tests_skipped`` accounting is
        what voids (or certifies) the Corollary 3.4 guarantee.
        """
        yielded = 0
        for word in suite:
            if yielded < self.max_tests:
                yielded += 1
                yield word
            else:
                self.statistics.tests_skipped += 1

    def _finish_truncation(self, suite: Iterator[Word]) -> None:
        """Counterexample found: words beyond a ``max_tests`` cap were never
        going to run regardless of it, so count them exactly like a run
        that reached the end of the suite."""
        if self.max_tests is not None:
            for _ in suite:
                pass

    def find_counterexample(self, hypothesis: MealyMachine) -> Optional[Word]:
        self.statistics.equivalence_queries += 1
        suite: Iterator[Word] = iter(self._suite(hypothesis))
        if self.max_tests is not None:
            suite = self._truncated(suite)
        for chunk in _chunks(suite, self.batch_size):
            self.statistics.test_words += len(chunk)
            actuals = output_query_batch(self.oracle, chunk)
            for word, actual in zip(chunk, actuals):
                if actual != hypothesis.run(word):
                    self._finish_truncation(suite)
                    return word
        return None


class RandomWalkEquivalenceOracle:
    """Random-word conformance testing (a cheaper, incomplete alternative).

    Test words are generated in batches of ``batch_size`` and answered
    through :func:`~repro.learning.query_engine.output_query_batch`, so a
    trie-backed oracle dedupes and prefix-subsumes random words exactly
    like Wp-suite words instead of receiving them one ``output_query`` at
    a time.  Within a batch the first mismatching word (in generation
    order) is returned, so for a given seed the *first*
    ``find_counterexample`` call returns the same counterexample at every
    batch size.  Later calls may diverge across batch sizes: a round that
    finds a counterexample mid-batch still consumed the whole batch from
    the RNG, while smaller batches consume fewer words.

    The tradeoff of batching: a whole batch is executed before any of it
    is compared, so a round that finds a counterexample runs (and counts
    in ``statistics.test_words``) up to ``batch_size - 1`` words the old
    word-by-word loop would have skipped.  Against cheap simulator
    oracles the trie sharing wins; for expensive hardware-backed oracles
    where every execution is seconds, pick a small ``batch_size`` (1
    restores the seed's stop-at-first-mismatch cost exactly).
    """

    def __init__(
        self,
        oracle: MembershipOracle,
        alphabet: Sequence[Input],
        *,
        num_words: int = 1000,
        min_length: int = 3,
        max_length: int = 30,
        seed: int = 0,
        batch_size: int = 64,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        alphabet = tuple(alphabet)
        if not alphabet:
            raise ValueError("alphabet must not be empty")
        if min_length > max_length:
            raise ValueError(
                f"min_length must be <= max_length, got {min_length} > {max_length}"
            )
        self.oracle = oracle
        self.alphabet = alphabet
        self.num_words = num_words
        self.min_length = min_length
        self.max_length = max_length
        self.batch_size = batch_size
        self._random = random.Random(seed)
        self.statistics = QueryStatistics()

    def _next_word(self) -> Word:
        length = self._random.randint(self.min_length, self.max_length)
        return tuple(self._random.choice(self.alphabet) for _ in range(length))

    def find_counterexample(self, hypothesis: MealyMachine) -> Optional[Word]:
        self.statistics.equivalence_queries += 1
        remaining = self.num_words
        while remaining > 0:
            batch = [self._next_word() for _ in range(min(self.batch_size, remaining))]
            remaining -= len(batch)
            self.statistics.test_words += len(batch)
            actuals = output_query_batch(self.oracle, batch)
            for word, actual in zip(batch, actuals):
                if tuple(actual) != hypothesis.run(word):
                    return word
        return None


class PerfectEquivalenceOracle:
    """Exact equivalence against a known reference machine (white-box testing)."""

    def __init__(self, reference: MealyMachine) -> None:
        self.reference = reference
        self.statistics = QueryStatistics()

    def find_counterexample(self, hypothesis: MealyMachine) -> Optional[Word]:
        self.statistics.equivalence_queries += 1
        return self.reference.find_counterexample(hypothesis)
