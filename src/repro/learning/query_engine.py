"""The batched, trie-backed query engine of the learning hot path.

Membership queries dominate the cost of every experiment the paper reports
(Tables 2 and 4 count them precisely), so this module centralises the
pieces every consumer of the oracle protocol shares:

* :class:`ResponseTrie` — a prefix tree over input words storing one output
  symbol per node.  Lookup and insertion are O(|w|); storing an answer
  automatically stores the answer of every prefix (Mealy output queries are
  prefix-closed), and inserting an answer that disagrees with a previously
  stored prefix raises :class:`~repro.errors.NonDeterminismError`, the
  signal the paper uses to reject broken reset sequences (Section 7.1).

* :func:`dedupe_and_subsume` — batch pre-processing: duplicate words are
  collapsed and words that are proper prefixes of other words in the batch
  are *subsumed* (answered by slicing the longer word's answer), so a batch
  executes only its maximal words.

* :func:`partition_batch` — the one place a batch is split into what a
  cache already knows and the maximal words left to execute.

* :func:`output_query_batch` — the dispatch helper: oracles that implement
  the batched protocol (``output_query_batch``) receive the whole batch at
  once; plain single-query oracles are driven word by word, executing only
  the batch's maximal words.

The batched-oracle protocol
---------------------------

:class:`~repro.learning.oracles.CachedMembershipOracle` is the only layer
that partitions a batch and dedupes it; its misses execute through its
delegate on one path.  Everything above it (the L* table, the TTT tree,
conformance testing) asks it for answers; everything below it executes
exactly the words it is handed — the system under learning (SUL), or a
:class:`~repro.learning.parallel.WorkerPool` that wraps the SUL and runs
the words on worker processes.  A SUL therefore only ever receives
distinct, non-empty, prefix-free words that are not cached yet, and never
dedupes them again.

An oracle *may* implement one extension on top of the mandatory
``output_query(word)``:

``output_query_batch(words)``
    Answer many words in one call, one output word per input word, in
    order.  Implementations execute every word they are handed.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from repro.core.alphabet import EVICT, Evict, Line
from repro.errors import OutputLengthMismatchError
from repro.store import PrefixStore, register_symbol_codec

Input = Hashable
Output = Hashable
Word = Tuple[Input, ...]
OutputWord = Tuple[Output, ...]

#: Namespace key the learning trie uses when none is given explicitly.
DEFAULT_LEARNING_NAMESPACE = ("learning",)

# Teach the shared store codec to persist policy-input symbols, so a
# learning trie living in a path-backed PrefixStore survives across runs
# (the --cache-path flag of the experiment CLI).
register_symbol_codec("Ln", Line, lambda s: str(s.index), lambda t: Line(int(t)))
register_symbol_codec("Ev", Evict, lambda s: "", lambda t: EVICT)


class ResponseTrie:
    """A prefix tree mapping input words to output words.

    A thin learning-flavoured view over a :class:`~repro.store.PrefixStore`
    namespace — the same substrate the CacheQuery frontend's ``QueryCache``
    uses — so one store instance (and one on-disk file) can back both
    caching stacks.  Caching the answer of ``u·v`` caches the answer of
    every prefix of ``u·v`` in the same O(|u·v|) nodes, and inserting an
    answer that disagrees with a stored prefix raises
    :class:`~repro.errors.NonDeterminismError`.
    """

    def __init__(
        self,
        store: Optional[PrefixStore] = None,
        namespace: Sequence[Hashable] = DEFAULT_LEARNING_NAMESPACE,
    ) -> None:
        self.store = store if store is not None else PrefixStore()
        #: The store namespace holding the trie; the engine records its
        #: executed answers straight into it.
        self.namespace = self.store.namespace(namespace)

    def __len__(self) -> int:
        return self.namespace.node_count

    def lookup(self, word: Sequence[Input]) -> Optional[OutputWord]:
        """Return the cached output word for ``word``, or ``None``."""
        if not word:
            return ()
        return self.namespace.lookup(word)

    def insert(self, word: Sequence[Input], outputs: Sequence[Output]) -> None:
        """Store ``outputs`` for ``word`` (and thereby for all its prefixes).

        Raises :class:`~repro.errors.NonDeterminismError` when a stored
        prefix disagrees with the new observation — the system under
        learning answered the same input prefix differently across runs.
        """
        word = tuple(word)
        outputs = tuple(outputs)
        if len(word) != len(outputs):
            raise ValueError(
                f"word of length {len(word)} needs exactly {len(word)} outputs, "
                f"got {len(outputs)}"
            )
        self.namespace.record(word, outputs, terminal=False)

    def clear(self) -> None:
        """Drop every cached response."""
        self.namespace.clear()


def dedupe_and_subsume(words: Sequence[Sequence[Input]]) -> List[Word]:
    """Return the *maximal* words of a batch, deduplicated, in first-seen order.

    A word is dropped when it is a duplicate or a proper prefix of another
    word in the batch: its answer is a slice of the longer word's answer, so
    executing the maximal words answers the whole batch.  The empty word is
    always dropped (its answer is the empty output word).

    Only a prefix whose length is the length of some batch word can be a
    batch word, so each word probes its prefixes at the batch's distinct
    word lengths shorter than itself against the batch's own set, and drops
    each prefix found there.  Symbols need only be hashable, never ordered,
    and a batch whose words share one length probes nothing.  A word pays
    one slice per distinct shorter length, which is cheap for the engine's
    batches (suite chunks and table fills span a few lengths) but grows
    quadratically with word length in batches of long words of many
    lengths, such as random walks.
    """
    unique = dict.fromkeys(map(tuple, words))
    unique.pop((), None)
    shorter_lengths = sorted(set(map(len, unique)))[:-1]
    dropped = set()
    for word in unique:
        size = len(word)
        for length in shorter_lengths:
            if length >= size:
                break
            prefix = word[:length]
            if prefix in unique:
                dropped.add(prefix)
    return [word for word in unique if word not in dropped]


def partition_batch(
    words: Sequence[Word], lookup: Callable[[Word], Optional[OutputWord]]
) -> Tuple[List[Optional[OutputWord]], List[Word]]:
    """Partition a batch by what a cache can already answer.

    ``lookup`` answers a non-empty word from a prefix-closed cache, or
    returns ``None`` (the engine passes its trie namespace's ``lookup``);
    the empty word is answered ``()`` without asking it.  Returns
    ``(answers, missing)``: ``answers`` holds, per batch word, its cached
    answer or ``None`` for a miss — the non-``None`` entries are the
    cache hits, duplicates included — and ``missing`` holds the deduped,
    prefix-subsumed maximal words among the misses, in first-seen order.
    Because the known set is prefix-closed, a miss is never a proper prefix
    of a known word, so subsuming the misses alone loses nothing.
    """
    answers = [lookup(word) if word else () for word in words]
    misses = [word for word, answer in zip(words, answers) if answer is None]
    return answers, dedupe_and_subsume(misses)


def supports_batching(oracle) -> bool:
    """True when ``oracle`` implements the batched-oracle protocol."""
    return callable(getattr(oracle, "output_query_batch", None))


def output_query_batch(oracle, words: Sequence[Sequence[Input]]) -> List[OutputWord]:
    """Answer ``words`` through ``oracle``, batching when it supports it.

    The result has exactly one output word per input word, in input order
    (duplicates and prefixes included) — batching is transparent to callers.
    """
    words = [tuple(word) for word in words]
    if supports_batching(oracle):
        return [tuple(outputs) for outputs in oracle.output_query_batch(words)]
    return batch_via_single_queries(oracle, words)


def batch_via_single_queries(oracle, words: Sequence[Word]) -> List[OutputWord]:
    """Answer a batch through ``oracle.output_query``, executing only its
    maximal words and serving duplicates/prefixes by slicing.

    The fallback of :func:`output_query_batch` for oracles without a native
    batch entry point — and, outside the query engine, the only place a
    batch is deduped.  An answer whose length is not its word's raises
    :class:`~repro.errors.OutputLengthMismatchError`, as in the engine.
    """
    answers = ResponseTrie()
    for word in dedupe_and_subsume(words):
        outputs = tuple(oracle.output_query(word))
        if len(outputs) != len(word):
            raise OutputLengthMismatchError(word, outputs)
        answers.insert(word, outputs)
    return [answers.lookup(word) for word in words]


def execute_words(oracle, words: Sequence[Word]) -> List[OutputWord]:
    """Execute exactly ``words`` on ``oracle``: one batch call when it has a
    batch entry point, else one ``output_query`` per word.

    This is how the engine drives its delegate, and pool workers their copy
    of the system under learning; ``words`` are the distinct, prefix-free
    misses of a partitioned batch, so nothing is deduped here.
    """
    if supports_batching(oracle):
        return oracle.output_query_batch(words)
    return [oracle.output_query(word) for word in words]
