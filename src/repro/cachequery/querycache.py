"""Query response cache (the LevelDB stand-in of the frontend).

The real frontend memoises MBL query responses in LevelDB so repeated
queries never reach the kernel module.  Here the cache is a view over the
shared :class:`~repro.store.PrefixStore` — the same trie substrate the
learning engine's ``ResponseTrie`` uses — keyed by the target
``(level, slice, set)`` (one store namespace per target) and the query's
*operation path* rather than its full text:

* each whitespace token of the canonical query text is one trie symbol —
  the block name plus its state-changing flush marker (``A``, ``A!``) —
  while the measurement marker ``?`` selects which positions carry a
  payload (cache outcomes are per *profiled* access);
* queries sharing an operation prefix (every probe of one Polca word, every
  query behind one reset sequence) share storage structurally, so on-disk
  caches stop growing quadratically with suite depth;
* a query whose operations form a *prefix* of an already-answered query is
  served without ever having been executed itself — and measurement
  sessions (:meth:`~repro.cachequery.frontend.CacheQuery.open_session`)
  use :meth:`known_prefix` to execute only the un-cached suffix;
* conflicting measurements for the same operation prefix raise
  :class:`~repro.errors.NonDeterminismError`, the broken-reset signal of
  Section 7.1, now enforced on the frontend path too.

The cache holds no file of its own: persistence is the store's job.  A
frontend cache persists through the store it is handed —
``CacheQuery(cpu, store=open_store(path))`` … ``store.save()`` — exactly
like the learning trie beside it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import CacheQueryError
from repro.mbl.ast import FLUSH_TAG, PROFILE_TAG
from repro.store import PrefixStore

#: First element of every frontend namespace key inside a shared store.
FRONTEND_NAMESPACE = "mbl"


def tokenize_query(query_text: str) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
    """Split canonical query text into trie symbols and profiled positions.

    Returns ``(symbols, profiled)`` where ``symbols`` keeps the
    state-changing flush marker (``A!``) but strips the measurement marker
    (``A?`` → ``A``), and ``profiled`` lists the positions whose outcome
    the query measures.  ``A`` and ``A?`` therefore share one trie node:
    profiling does not change cache state, only what is observed.
    """
    symbols: List[str] = []
    profiled: List[int] = []
    for position, token in enumerate(query_text.split()):
        if token.endswith(PROFILE_TAG):
            symbols.append(token[: -len(PROFILE_TAG)])
            profiled.append(position)
        else:
            symbols.append(token)
    return tuple(symbols), tuple(profiled)


def operation_symbol(operation) -> str:
    """Trie symbol for one :class:`~repro.mbl.ast.Operation` (flush kept, ``?`` dropped)."""
    return f"{operation.block}{FLUSH_TAG}" if operation.flush else operation.block


class QueryCache:
    """A trie-backed response cache: a view over one prefix store.

    ``QueryCache(store)`` records into ``store`` — possibly shared with the
    learning trie of the same run, possibly bound to a file by
    :func:`~repro.store.open_store` — and ``QueryCache()`` into a fresh
    in-memory :class:`~repro.store.PrefixStore`.
    """

    def __init__(
        self, store: Optional[PrefixStore] = None, *, scope: Sequence[object] = ()
    ) -> None:
        """``scope`` extends the namespace key between the ``"mbl"`` marker and
        the ``(level, slice, set)`` target — the frontend passes the CPU
        profile name and per-level effective associativities, so different
        machines (or CAT/profile-reduced geometries) sharing one store file
        never collide on a target key."""
        self.store = store if store is not None else PrefixStore()
        self._scope = tuple(scope)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------- namespaces

    def _key(self, level: str, slice_index: int, set_index: int) -> Tuple[object, ...]:
        return (FRONTEND_NAMESPACE,) + self._scope + (level, slice_index, set_index)

    def _namespace(self, level: str, slice_index: int, set_index: int):
        return self.store.namespace(self._key(level, slice_index, set_index))

    def _frontend_namespaces(self):
        marker = (FRONTEND_NAMESPACE,) + self._scope
        return [
            self.store.namespace(key)
            for key in self.store.namespaces()
            if key[: len(marker)] == marker
        ]

    # ----------------------------------------------------------------- access

    def get(
        self, level: str, slice_index: int, set_index: int, query_text: str
    ) -> Optional[Tuple[str, ...]]:
        """Return the cached outcome trace for a query, or ``None``.

        A query is served when its whole operation path is stored — whether
        it was recorded itself or is a prefix of a longer recorded query —
        and every profiled position carries a measurement.
        """
        symbols, profiled = tokenize_query(query_text)
        if not symbols:
            self.misses += 1
            return None
        payloads = self._namespace(level, slice_index, set_index).lookup(symbols)
        if payloads is None or any(payloads[position] is None for position in profiled):
            self.misses += 1
            return None
        self.hits += 1
        return tuple(payloads[position] for position in profiled)

    def put(
        self,
        level: str,
        slice_index: int,
        set_index: int,
        query_text: str,
        outcomes: Sequence[str],
    ) -> None:
        """Store the outcome trace of a query (one outcome per profiled access)."""
        symbols, profiled = tokenize_query(query_text)
        outcomes = tuple(outcomes)
        if len(outcomes) != len(profiled):
            raise CacheQueryError(
                f"query {query_text!r} profiles {len(profiled)} accesses but "
                f"{len(outcomes)} outcomes were provided"
            )
        payloads: List[Optional[str]] = [None] * len(symbols)
        for position, outcome in zip(profiled, outcomes):
            payloads[position] = outcome
        self._namespace(level, slice_index, set_index).record(
            symbols, payloads, terminal=True
        )

    def record_path(
        self,
        level: str,
        slice_index: int,
        set_index: int,
        symbols: Sequence[str],
        payloads: Sequence[Optional[str]],
        *,
        terminal: bool = True,
    ) -> None:
        """Record a pre-tokenized operation path (the measurement-session entry point)."""
        self._namespace(level, slice_index, set_index).record(
            symbols, payloads, terminal=terminal
        )

    def known_prefix(
        self, level: str, slice_index: int, set_index: int, symbols: Sequence[str]
    ) -> Tuple[int, Tuple[Optional[str], ...]]:
        """Longest stored prefix of an operation path: ``(k, payloads[:k])``.

        No hit/miss accounting — this is the pure peek measurement sessions
        use to decide how much of a query still has to execute.
        """
        return self._namespace(level, slice_index, set_index).lookup_prefix(symbols)

    # ------------------------------------------------------------- statistics

    def __len__(self) -> int:
        return sum(ns.entry_count for ns in self._frontend_namespaces())

    @property
    def node_count(self) -> int:
        """Stored operation prefixes across every target (trie nodes)."""
        return sum(ns.node_count for ns in self._frontend_namespaces())

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every cached response (frontend namespaces only)."""
        for namespace in self._frontend_namespaces():
            namespace.clear()
