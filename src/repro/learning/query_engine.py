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

An oracle *may* implement any of the following extensions on top of the
mandatory ``output_query(word)``:

``output_query_batch(words)``
    Answer many words in one call, one output word per input word, in
    order.  Implementations execute every word they are handed.

``output_query_resume(prefix, suffix, prefix_outputs=None)``
    Answer ``prefix + suffix`` while only *executing* ``suffix``, resuming
    from the state reached by ``prefix`` (the oracle must have answered a
    word extending ``prefix`` before).  ``prefix_outputs`` is the caller's
    cached answer for ``prefix``: machine-backed oracles ignore it (they
    recompute their state directly), while measurement-backed oracles
    (Polca with ``resume=True``) rebuild their resume state from it without
    touching the system under learning.  Oracles advertise the capability
    with a truthy ``supports_resume`` attribute.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from repro.core.alphabet import EVICT, Evict, Line
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

    Since PR 5 this is a thin learning-flavoured view over a
    :class:`~repro.store.PrefixStore` namespace — the same substrate the
    CacheQuery frontend's ``QueryCache`` uses — so one store instance (and
    one on-disk file) can back both caching stacks.  ``store`` may equally
    be a directory-backed :class:`~repro.store.ShardedStore`, which places
    this trie's namespace in its own append-log shard (its own writer
    lock), so concurrent learning jobs over disjoint targets share one
    corpus without contending.  The semantics are unchanged: caching the
    answer of ``u·v`` caches the answer of every prefix of ``u·v`` in the
    same O(|u·v|) nodes, and inserting an answer that disagrees with a
    stored prefix raises :class:`~repro.errors.NonDeterminismError`.
    """

    def __init__(
        self,
        store: Optional[PrefixStore] = None,
        namespace: Sequence[Hashable] = DEFAULT_LEARNING_NAMESPACE,
    ) -> None:
        # Any object with the PrefixStore namespace surface works here —
        # in particular a ShardedStore (see the class docstring).
        self.store = store if store is not None else PrefixStore()
        self._namespace = self.store.namespace(namespace)

    def __len__(self) -> int:
        return self._namespace.node_count

    def lookup(self, word: Sequence[Input]) -> Optional[OutputWord]:
        """Return the cached output word for ``word``, or ``None``."""
        if not word:
            return ()
        return self._namespace.lookup(word)

    def longest_cached_prefix(self, word: Sequence[Input]) -> Tuple[int, OutputWord]:
        """Return ``(k, outputs)`` for the longest cached prefix ``word[:k]``."""
        return self._namespace.lookup_prefix(word)

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
        self._namespace.record(word, outputs, terminal=False)

    def clear(self) -> None:
        """Drop every cached response."""
        self._namespace.clear()


def dedupe_and_subsume(words: Sequence[Sequence[Input]]) -> List[Word]:
    """Return the *maximal* words of a batch, deduplicated, in first-seen order.

    A word is dropped when it is a duplicate or a proper prefix of another
    word in the batch: its answer is a slice of the longer word's answer, so
    executing the maximal words answers the whole batch.  The empty word is
    always dropped (its answer is the empty output word).
    """
    unique: List[Word] = []
    seen = set()
    for word in words:
        word = tuple(word)
        if word and word not in seen:
            seen.add(word)
            unique.append(word)
    if len(unique) <= 1:
        return unique
    # Map symbols to integer ids so words become comparable key lists
    # (symbols themselves need not be orderable), then sort: in
    # lexicographic order every proper prefix sits immediately before one
    # of its extensions, so a single next-neighbour check per word replaces
    # materializing (and hashing) every prefix of every word — the
    # difference between O(total symbols) and O(total symbols * length) on
    # the deep batches of the tabulated kernels.  Any injective numbering
    # finds the same prefixes, so the batch's distinct symbols are numbered
    # in set order and each key is built by one ``map``.
    symbol_ids = {symbol: code for code, symbol in enumerate(set(chain.from_iterable(unique)))}
    code_of = symbol_ids.__getitem__
    keys: List[List[int]] = [list(map(code_of, word)) for word in unique]
    order = sorted(range(len(unique)), key=keys.__getitem__)
    dropped = set()
    for here, there in zip(order, order[1:]):
        key = keys[here]
        longer = keys[there]
        if len(key) < len(longer) and longer[: len(key)] == key:
            dropped.add(here)
    return [word for index, word in enumerate(unique) if index not in dropped]


def partition_batch(
    words: Sequence[Word], lookup: Callable[[Word], Optional[OutputWord]]
) -> Tuple[List[Optional[OutputWord]], List[Word]]:
    """Partition a batch by what a cache can already answer.

    ``lookup`` answers a word from a prefix-closed cache, or returns
    ``None`` (the engine passes its response trie's ``lookup``).  Returns
    ``(answers, missing)``: ``answers`` holds, per batch word, its cached
    answer or ``None`` for a miss — the non-``None`` entries are the
    cache hits, duplicates included — and ``missing`` holds the deduped,
    prefix-subsumed maximal words among the misses, in first-seen order.
    Because the known set is prefix-closed, a miss is never a proper prefix
    of a known word, so subsuming the misses alone loses nothing.
    """
    answers = list(map(lookup, words))
    misses = [word for word, answer in zip(words, answers) if answer is None]
    return answers, dedupe_and_subsume(misses)


def supports_batching(oracle) -> bool:
    """True when ``oracle`` implements the batched-oracle protocol."""
    return callable(getattr(oracle, "output_query_batch", None))


def supports_resume(oracle) -> bool:
    """True when ``oracle`` can resume execution from a previously run prefix."""
    return bool(getattr(oracle, "supports_resume", False)) and callable(
        getattr(oracle, "output_query_resume", None)
    )


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
    batch is deduped.
    """
    answers = ResponseTrie()
    for word in dedupe_and_subsume(words):
        answers.insert(word, oracle.output_query(word))
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
