"""Membership oracles: the "teacher" side of the learning loop.

A membership oracle answers *output queries*: given an input word, it
returns the word of outputs the system under learning produces when reading
it from its initial state.  (For Mealy machines this is the natural
formulation of Angluin's membership queries.)

The module provides:

* :class:`MembershipOracle` — the protocol every oracle implements; the
  optional batched extension is documented in
  :mod:`repro.learning.query_engine`;
* :class:`FunctionOracle` / :class:`MealyMachineOracle` — single-query
  adapters for plain callables and for known machines (used in tests and
  for conformance checks against reference policies);
* :class:`CachedMembershipOracle` — the query engine: the trie-backed
  response cache mirroring the LevelDB response cache of CacheQuery's
  frontend, and the only layer that partitions a batch; its misses go to
  its delegate, the system under learning (or a
  :class:`~repro.learning.parallel.WorkerPool` wrapping it).  It shares
  prefix storage structurally, answers every prefix of an answered word,
  and detects non-determinism (two executions of the same prefix giving
  different outputs), which the paper uses to reject bad reset sequences;
* :class:`QueryStatistics` — counters reported by the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, Hashable, List, Protocol, Sequence, Tuple

from repro.core.mealy import MealyMachine
from repro.errors import LearningError, OutputLengthMismatchError
from repro.learning.query_engine import (
    DEFAULT_LEARNING_NAMESPACE,
    ResponseTrie,
    execute_words,
    partition_batch,
)

Input = Hashable
Output = Hashable
Word = Tuple[Input, ...]
OutputWord = Tuple[Output, ...]


@dataclass
class QueryStatistics:
    """Counters describing the cost of a learning run."""

    membership_queries: int = 0
    membership_symbols: int = 0
    equivalence_queries: int = 0
    test_words: int = 0
    cache_hits: int = 0
    #: Number of batch calls that reached this oracle.
    batches: int = 0
    #: Batch words answered by intra-batch deduplication or prefix
    #: subsumption (slicing another batch member's answer) rather than by a
    #: pre-existing cache entry or an execution.
    subsumed_words: int = 0
    #: Conformance-suite words dropped by a ``max_tests`` truncation — when
    #: non-zero the (|H| + k)-completeness guarantee of Corollary 3.4 is void.
    tests_skipped: int = 0

    def record_query(self, length: int) -> None:
        """Record one membership query of ``length`` symbols."""
        self.membership_queries += 1
        self.membership_symbols += length

    def record_batch(self, total: int, already_cached: int, missing: int) -> None:
        """Record one batch call partitioned by the cache (see
        :func:`~repro.learning.query_engine.partition_batch`): ``total``
        requested words, ``already_cached`` of them genuine cache hits, and
        ``missing`` maximal words left to execute — the remainder was served
        by intra-batch deduplication or prefix subsumption."""
        self.batches += 1
        self.cache_hits += already_cached
        self.subsumed_words += total - already_cached - missing

    def merge(self, other: "QueryStatistics") -> "QueryStatistics":
        """Return a new statistics object summing both operands."""
        return QueryStatistics(
            **{
                field.name: getattr(self, field.name) + getattr(other, field.name)
                for field in fields(QueryStatistics)
            }
        )


class MembershipOracle(Protocol):
    """Protocol for output-query oracles.

    ``output_query`` is mandatory.  Oracles may additionally implement the
    batched extension described in :mod:`repro.learning.query_engine`
    (``output_query_batch``); consumers discover it through
    :func:`repro.learning.query_engine.supports_batching` and fall back to
    word-by-word queries otherwise.
    """

    def output_query(self, word: Sequence[Input]) -> OutputWord:
        """Return the output word produced by the SUL when reading ``word``."""
        ...  # pragma: no cover - protocol


class FunctionOracle:
    """Wrap a plain callable ``word -> outputs`` as a membership oracle.

    Batching consumers assume the callable is deterministic and
    prefix-closed (the answer to a prefix is the prefix of the answer),
    which is exactly the Mealy output-query semantics every consumer in
    this library relies on.
    """

    def __init__(self, function: Callable[[Word], OutputWord]) -> None:
        self._function = function
        self.statistics = QueryStatistics()

    def output_query(self, word: Sequence[Input]) -> OutputWord:
        word = tuple(word)
        self.statistics.record_query(len(word))
        return tuple(self._function(word))


class MealyMachineOracle:
    """A membership oracle backed by a known Mealy machine.

    Used for learning from "white box" models in tests, and as the reference
    teacher in the scalability study where the software-simulated cache can
    be bypassed.
    """

    def __init__(self, machine: MealyMachine) -> None:
        self.machine = machine
        self.statistics = QueryStatistics()

    def output_query(self, word: Sequence[Input]) -> OutputWord:
        word = tuple(word)
        self.statistics.record_query(len(word))
        return self.machine.run(word)


class CachedMembershipOracle:
    """The query engine: a trie-backed response cache in front of the SUL.

    Every answered query also answers all of its prefixes; the
    :class:`~repro.learning.query_engine.ResponseTrie` stores them
    structurally, so the cache needs O(1) extra space per *new* symbol
    instead of one dictionary entry per prefix.  On a miss the full word
    is executed once through the delegate.  Conflicting observations for
    the same prefix raise a
    :class:`~repro.errors.NonDeterminismError`, mirroring how the paper
    detects incorrect reset sequences (Section 7.1).

    The engine is the only layer that partitions a batch; its misses
    execute through the delegate on one path, whatever the delegate is.
    Process-parallel execution is a delegate too: a
    :class:`~repro.learning.parallel.WorkerPool` wrapping the system under
    learning answers the misses on worker processes, and the engine cannot
    tell the difference.
    """

    def __init__(
        self,
        delegate: MembershipOracle,
        *,
        store=None,
        namespace: Sequence[Hashable] = None,
    ) -> None:
        """Wrap ``delegate`` with the trie-backed cache.

        ``store`` (a :class:`~repro.store.PrefixStore`) lets callers place
        the trie in a shared — possibly path-backed — store, e.g. the same
        store instance the CacheQuery frontend's ``QueryCache`` uses;
        ``namespace`` picks the trie's namespace key inside it (defaults to
        the learning namespace).
        """
        self._delegate = delegate
        self._trie = ResponseTrie(
            store=store,
            namespace=namespace if namespace is not None else DEFAULT_LEARNING_NAMESPACE,
        )
        self.statistics = QueryStatistics()

    # ----------------------------------------------------------- single query

    def output_query(self, word: Sequence[Input]) -> OutputWord:
        word = tuple(word)
        cached = self._trie.lookup(word)
        if cached is not None:
            self.statistics.cache_hits += 1
            return cached
        self.statistics.record_query(len(word))
        outputs = tuple(self._delegate.output_query(word))
        if len(outputs) != len(word):
            raise OutputLengthMismatchError(word, outputs)
        self._trie.insert(word, outputs)
        return outputs

    # ----------------------------------------------------------- batch query

    def output_query_batch(self, words: Sequence[Sequence[Input]]) -> List[OutputWord]:
        """Answer a batch: partition it once, execute only its misses.

        Cached words are answered by the same trie walk that finds them.
        The remaining maximal words execute as one call into the delegate;
        every answer passes the same length and non-determinism checks
        before it is inserted, and then answers its word.  Only a duplicate
        or prefix of an executed word is read back from the trie.
        """
        words = [tuple(word) for word in words]
        lookup = self._trie.namespace.lookup
        answers, missing = partition_batch(words, lookup)
        self.statistics.record_batch(
            len(words), len(words) - answers.count(None), len(missing)
        )
        if not missing:
            return answers
        executed = self._merge(missing, execute_words(self._delegate, missing))
        for index, answer in enumerate(answers):
            if answer is None:
                word = words[index]
                answer = executed.get(word)
                answers[index] = lookup(word) if answer is None else answer
        return answers

    def _merge(
        self, words: Sequence[Word], answers: Sequence[OutputWord]
    ) -> Dict[Word, OutputWord]:
        """Record executed answers, one executed membership query per word;
        return each word's answer.

        Each answer is length-checked here and recorded straight into the
        trie's namespace, which checks it against the stored prefixes.
        """
        answers = list(answers)
        if len(answers) != len(words):
            # One answer per handed word is the SUL batch contract.
            raise LearningError(
                f"oracle returned {len(answers)} answers for a batch of "
                f"{len(words)} words"
            )
        record = self._trie.namespace.record
        record_query = self.statistics.record_query
        executed = {}
        for word, outputs in zip(words, answers):
            outputs = tuple(outputs)
            if len(outputs) != len(word):
                raise OutputLengthMismatchError(word, outputs)
            record(word, outputs, terminal=False)
            record_query(len(word))
            executed[word] = outputs
        return executed

    # --------------------------------------------------- external observations

    def cached_answer(self, word: Sequence[Input]) -> "OutputWord | None":
        """Peek at the cache: the stored output word, or ``None`` — no
        statistics, no delegate."""
        return self._trie.lookup(tuple(word))

    def record_external(self, word: Sequence[Input], outputs: Sequence[Output]) -> None:
        """Merge an answer obtained elsewhere into the trie.

        The insert performs the same consistency check as a locally executed
        query: an answer disagreeing with any cached prefix raises
        :class:`~repro.errors.NonDeterminismError`, the broken-reset
        detection of Section 7.1.
        """
        word = tuple(word)
        outputs = tuple(outputs)
        if len(outputs) != len(word):
            raise OutputLengthMismatchError(word, outputs)
        self._trie.insert(word, outputs)

    # ------------------------------------------------------------- inspection

    @property
    def size(self) -> int:
        """Number of cached prefixes (trie nodes below the root)."""
        return len(self._trie)

    def clear(self) -> None:
        """Drop all cached responses."""
        self._trie.clear()
