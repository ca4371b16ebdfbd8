"""Equivalence oracles: finding counterexamples to a hypothesis.

Three implementations are provided:

* :class:`ConformanceEquivalenceOracle` — the paper's approach (Section 3.3):
  generate a Wp-method test suite of configurable depth ``k`` for the
  hypothesis and compare the system's answers against the hypothesis' own
  predictions.  Yields the ``(|H| + k)``-completeness guarantee of
  Theorem 3.3 / Corollary 3.4.  Its suite words are answered by the query
  engine, and stream through the engine's worker pool when it has one.
* :class:`RandomWalkEquivalenceOracle` — random word testing, mentioned in
  Section 6 as an alternative heuristic for deeper counterexample search.
* :class:`PerfectEquivalenceOracle` — compares against a known reference
  machine; used in tests and when learning from white-box simulators to
  measure learner performance independently of conformance-testing cost.
"""

from __future__ import annotations

import random
import warnings
from collections import deque
from itertools import islice
from typing import (
    Deque,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.core.mealy import MealyMachine
from repro.errors import LearningError
from repro.learning.oracles import MembershipOracle, PendingBatch, QueryStatistics
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

    Process-parallel execution
    --------------------------

    When the oracle is a
    :class:`~repro.learning.oracles.CachedMembershipOracle` built with a
    parallel :class:`~repro.learning.parallel.WorkerPool` (its ``pool``),
    suite chunks are shipped to worker processes that each rebuild a fresh
    system under test from the pool's oracle factory.  At most
    ``max_inflight`` chunks are in flight at once (a bounded window over
    the lazy suite: the parent holds no more than ``max_inflight ×
    batch_size`` queued words, tracked in :attr:`peak_inflight_words`), and
    chunks are consumed *in suite order*, so the returned counterexample is
    always the first mismatching word — identical to a serial run, which
    keeps learned machines bit-identical across worker counts.  Worker
    answers merge back through the engine (:meth:`~repro.learning.oracles.\
CachedMembershipOracle.collect`), so they feed the learner's cache and
    still trip non-determinism detection; words the shared trie already
    knows are never shipped.
    """

    def __init__(
        self,
        oracle: MembershipOracle,
        *,
        depth: int = 1,
        max_tests: Optional[int] = None,
        batch_size: int = 64,
        max_inflight: int = 4,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.oracle = oracle
        self.depth = depth
        self.max_tests = max_tests
        self.batch_size = batch_size
        self.max_inflight = max_inflight
        self.statistics = QueryStatistics()
        #: Peak number of suite words queued in the parent at once (parallel
        #: path): bounded by ``max_inflight * batch_size`` by construction.
        self.peak_inflight_words = 0

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
        pool = getattr(self.oracle, "pool", None)
        if pool is not None and pool.parallel:
            return self._find_counterexample_parallel(hypothesis, suite)
        for chunk in _chunks(suite, self.batch_size):
            self.statistics.test_words += len(chunk)
            actuals = output_query_batch(self.oracle, chunk)
            for word, actual in zip(chunk, actuals):
                if actual != hypothesis.run(word):
                    self._finish_truncation(suite)
                    return word
        return None

    # --------------------------------------------------------- parallel path

    def _find_counterexample_parallel(
        self, hypothesis: MealyMachine, suite: Iterator[Word]
    ) -> Optional[Word]:
        """The engine-backed parallel path, accounting-identical to serial.

        Each chunk is one engine batch: :meth:`~repro.learning.oracles.\
CachedMembershipOracle.submit` partitions and ships it, and
        :meth:`~repro.learning.oracles.CachedMembershipOracle.collect`
        records and merges it, so the cache-hit and subsumed-word columns
        cannot drift between ``--workers 0`` and ``--workers N``.  Words
        covered by a chunk still *in flight* (equal to, or a proper prefix
        of, a shipped word) count as known and are not shipped again:
        chunks are consumed in suite order, so by the time their own chunk
        is compared the covering answers have merged into the shared trie —
        exactly the words a serial run would have found cached.
        """
        engine = self.oracle
        cached_answer = engine.cached_answer
        # A bounded window of in-flight chunks over the lazy suite: chunks
        # are submitted as the generator produces them and consumed in
        # suite order, so the first mismatching word wins deterministically
        # while the parent queues at most max_inflight * batch_size words.
        pending: Deque[PendingBatch] = deque()
        # Reference-counted cover of every in-flight shipped word and its
        # proper prefixes — bounded by the in-flight window, released as
        # chunks merge into the trie.  With the trie it stays prefix-closed.
        inflight_cover: Dict[Word, int] = {}
        inflight_words = 0
        exhausted = False

        def covered(word: Word) -> bool:
            return cached_answer(word) is not None or word in inflight_cover

        def submit_next() -> bool:
            """Pull one more chunk from the suite and ship its missing words."""
            nonlocal inflight_words
            chunk = list(islice(suite, self.batch_size))
            if not chunk:
                return False
            batch = engine.submit(chunk, covered)
            for word in batch.missing:
                for length in range(1, len(word) + 1):
                    prefix = word[:length]
                    inflight_cover[prefix] = inflight_cover.get(prefix, 0) + 1
            pending.append(batch)
            inflight_words += len(batch.words)
            self.peak_inflight_words = max(self.peak_inflight_words, inflight_words)
            return True

        while True:
            while not exhausted and len(pending) < self.max_inflight:
                if not submit_next():
                    exhausted = True
            if not pending:
                return None
            batch = pending.popleft()
            inflight_words -= len(batch.words)
            self.statistics.test_words += len(batch.words)
            # Recorded and merged at *consume* time, so chunks cancelled by
            # a counterexample (which a serial run never reaches) are never
            # counted.  Feeds the shared trie; raises NonDeterminismError
            # when a worker disagrees with a cached prefix.
            engine.collect(batch)
            self.statistics.parallel_chunks += len(batch.chunks)
            self.statistics.parallel_words += len(batch.missing)
            for word in batch.missing:
                for length in range(1, len(word) + 1):
                    prefix = word[:length]
                    remaining = inflight_cover[prefix] - 1
                    if remaining:
                        inflight_cover[prefix] = remaining
                    else:
                        del inflight_cover[prefix]
            for word in batch.words:
                actual = cached_answer(word)
                if actual is None:  # pragma: no cover - every word is covered
                    raise LearningError(
                        f"suite word {word!r} was neither cached nor answered "
                        "by its chunk"
                    )
                if actual != hypothesis.run(word):
                    for queued in pending:
                        queued.cancel()
                    self._finish_truncation(suite)
                    return word


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
        self.oracle = oracle
        self.alphabet = tuple(alphabet)
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
