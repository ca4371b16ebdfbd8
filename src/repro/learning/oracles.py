"""Membership oracles: the "teacher" side of the learning loop.

A membership oracle answers *output queries*: given an input word, it
returns the word of outputs the system under learning produces when reading
it from its initial state.  (For Mealy machines this is the natural
formulation of Angluin's membership queries.)

The module provides:

* :class:`MembershipOracle` — the protocol every oracle implements; the
  optional batched/resumable extensions are documented in
  :mod:`repro.learning.query_engine`;
* :class:`FunctionOracle` / :class:`MealyMachineOracle` — adapters for plain
  callables and for known machines (used in tests and for conformance
  checks against reference policies); both implement ``output_query_batch``
  and the machine adapter additionally supports resume-from-state;
* :class:`CachedMembershipOracle` — the trie-backed response cache of the
  query engine, mirroring the LevelDB response cache of CacheQuery's
  frontend; it shares prefix storage structurally, reuses the longest
  cached prefix (executing only the un-cached suffix when the delegate
  supports resume), and detects non-determinism (two executions of the same
  prefix giving different outputs), which the paper uses to reject bad
  reset sequences;
* :class:`QueryStatistics` — counters reported by the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Hashable, List, Optional, Protocol, Sequence, Tuple

from repro.core.mealy import MealyMachine
from repro.errors import OutputLengthMismatchError
from repro.learning.query_engine import (
    ResponseTrie,
    batch_via_single_queries,
    partition_batch,
    supports_batching,
    supports_resume,
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
    #: Symbols answered by resuming from a cached prefix instead of
    #: re-executing it (only oracles with resume support contribute).
    resumed_symbols: int = 0
    #: Conformance-suite words dropped by a ``max_tests`` truncation — when
    #: non-zero the (|H| + k)-completeness guarantee of Corollary 3.4 is void.
    tests_skipped: int = 0
    #: Suite chunks shipped to pool workers by the parallel conformance path.
    parallel_chunks: int = 0
    #: Suite words answered by pool workers (and merged back into the trie).
    parallel_words: int = 0

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
    batched/resumable extensions described in
    :mod:`repro.learning.query_engine` (``output_query_batch``,
    ``output_query_resume`` + ``supports_resume``); consumers discover them
    through :func:`repro.learning.query_engine.supports_batching` /
    ``supports_resume`` and fall back to word-by-word queries otherwise.
    """

    def output_query(self, word: Sequence[Input]) -> OutputWord:
        """Return the output word produced by the SUL when reading ``word``."""
        ...  # pragma: no cover - protocol


class FunctionOracle:
    """Wrap a plain callable ``word -> outputs`` as a membership oracle.

    The batched form assumes the callable is deterministic and prefix-closed
    (the answer to a prefix is the prefix of the answer), which is exactly
    the Mealy output-query semantics every consumer in this library relies
    on.
    """

    def __init__(self, function: Callable[[Word], OutputWord]) -> None:
        self._function = function
        self.statistics = QueryStatistics()

    def output_query(self, word: Sequence[Input]) -> OutputWord:
        word = tuple(word)
        self.statistics.record_query(len(word))
        return tuple(self._function(word))

    def output_query_batch(self, words: Sequence[Sequence[Input]]) -> List[OutputWord]:
        """Answer a batch of words, executing only its maximal members."""
        self.statistics.batches += 1
        return batch_via_single_queries(self, words)


class MealyMachineOracle:
    """A membership oracle backed by a known Mealy machine.

    Used for learning from "white box" models in tests, and as the reference
    teacher in the scalability study where the software-simulated cache can
    be bypassed.  Because the machine's state after any executed word is
    known, the oracle supports *resume*: answering ``prefix + suffix`` by
    running only ``suffix`` from the state ``prefix`` reaches — the
    behaviour a session-keeping hardware backend would offer.
    """

    supports_resume = True

    def __init__(self, machine: MealyMachine) -> None:
        self.machine = machine
        self.statistics = QueryStatistics()

    def output_query(self, word: Sequence[Input]) -> OutputWord:
        word = tuple(word)
        self.statistics.record_query(len(word))
        return self.machine.run(word)

    def output_query_resume(
        self,
        prefix: Sequence[Input],
        suffix: Sequence[Input],
        prefix_outputs: Optional[Sequence[Output]] = None,
    ) -> OutputWord:
        """Return the outputs of ``suffix`` after ``prefix``, executing only ``suffix``.

        ``prefix_outputs`` (the cached answer of ``prefix``) is part of the
        resume protocol for oracles that rebuild their resume state from
        past observations (Polca); a machine-backed oracle knows its state
        directly and ignores it.
        """
        suffix = tuple(suffix)
        self.statistics.record_query(len(suffix))
        self.statistics.resumed_symbols += len(suffix)
        state = self.machine.state_after(tuple(prefix))
        return self.machine.run(suffix, state)

    def output_query_batch(self, words: Sequence[Sequence[Input]]) -> List[OutputWord]:
        """Answer a batch of words, executing only its maximal members."""
        self.statistics.batches += 1
        return batch_via_single_queries(self, words)


class CachedMembershipOracle:
    """The trie-backed response cache of the batched query engine.

    Every answered query also answers all of its prefixes; the
    :class:`~repro.learning.query_engine.ResponseTrie` stores them
    structurally, so the cache needs O(1) extra space per *new* symbol
    instead of one dictionary entry per prefix.  On a miss the longest
    cached prefix is reused: when the delegate supports resume only the
    un-cached suffix is executed, otherwise the full word is executed once.
    Conflicting observations for the same prefix raise a
    :class:`~repro.errors.NonDeterminismError`, mirroring how the paper
    detects incorrect reset sequences (Section 7.1).
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
        from repro.learning.query_engine import DEFAULT_LEARNING_NAMESPACE

        self._delegate = delegate
        self._trie = ResponseTrie(
            store=store,
            namespace=namespace if namespace is not None else DEFAULT_LEARNING_NAMESPACE,
        )
        self._resume = supports_resume(delegate)
        self.statistics = QueryStatistics()

    # ----------------------------------------------------------- single query

    def output_query(self, word: Sequence[Input]) -> OutputWord:
        word = tuple(word)
        cached = self._trie.lookup(word)
        if cached is not None:
            self.statistics.cache_hits += 1
            return cached
        return self._execute(word)

    def _execute(self, word: Word) -> OutputWord:
        """Answer an un-cached word, reusing the longest cached prefix."""
        prefix_length, prefix_outputs = self._trie.longest_cached_prefix(word)
        if self._resume and 0 < prefix_length < len(word):
            suffix = word[prefix_length:]
            self.statistics.record_query(len(suffix))
            self.statistics.resumed_symbols += len(suffix)
            suffix_outputs = tuple(
                self._delegate.output_query_resume(
                    word[:prefix_length], suffix, prefix_outputs=prefix_outputs
                )
            )
            if len(suffix_outputs) != len(suffix):
                raise OutputLengthMismatchError(suffix, suffix_outputs)
            outputs = prefix_outputs + suffix_outputs
        else:
            self.statistics.record_query(len(word))
            outputs = tuple(self._delegate.output_query(word))
            if len(outputs) != len(word):
                raise OutputLengthMismatchError(word, outputs)
        self._trie.insert(word, outputs)
        return outputs

    # ----------------------------------------------------------- batch query

    def output_query_batch(self, words: Sequence[Sequence[Input]]) -> List[OutputWord]:
        """Answer a batch: dedupe, prefix-subsume, then execute only misses.

        Cached words are served from the trie; the remaining maximal words
        are executed (through the delegate's own batch entry point when it
        has one) and inserted, after which every requested word — duplicate,
        prefix or miss — is answered from the trie.
        """
        words = [tuple(word) for word in words]
        already_cached, _, missing = partition_batch(words, self._trie.lookup)
        self.statistics.record_batch(len(words), already_cached, len(missing))
        if missing and supports_batching(self._delegate) and not self._resume:
            answered = self._delegate.output_query_batch(missing)
            for word, outputs in zip(missing, answered):
                outputs = tuple(outputs)
                if len(outputs) != len(word):
                    raise OutputLengthMismatchError(word, outputs)
                self.statistics.record_query(len(word))
                self._trie.insert(word, outputs)
        else:
            # Execute one by one so every answered word's prefixes are cached
            # before the next miss — later words in the batch then resume
            # from (or are fully served by) earlier answers.
            for word in missing:
                self._execute(word)
        results: List[OutputWord] = []
        for word in words:
            outputs = self._trie.lookup(word)
            if outputs is None:  # pragma: no cover - every word was inserted
                raise OutputLengthMismatchError(word, ())
            results.append(outputs)
        return results

    # --------------------------------------------------- external observations

    def cached_answer(self, word: Sequence[Input]) -> "OutputWord | None":
        """Peek at the cache: the stored output word, or ``None`` — no statistics,
        no delegate.  Used by the parallel conformance path to decide which
        suite words must be shipped to pool workers."""
        return self._trie.lookup(tuple(word))

    def record_external(self, word: Sequence[Input], outputs: Sequence[Output]) -> None:
        """Merge an answer obtained elsewhere (e.g. by a pool worker) into the trie.

        The insert performs the same consistency check as a locally executed
        query: an answer disagreeing with any cached prefix raises
        :class:`~repro.errors.NonDeterminismError`, so parallel execution
        keeps the broken-reset detection of Section 7.1 intact.
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
