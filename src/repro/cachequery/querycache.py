"""Query response cache (the LevelDB stand-in of the frontend).

The real frontend memoises MBL query responses in LevelDB so repeated
queries never reach the kernel module.  Here the cache is a view over the
shared :class:`~repro.store.PrefixStore` — the same trie substrate the
learning engine's ``ResponseTrie`` uses — keyed by the target
``(level, slice, set)`` (one store namespace per target) and the query's
*operation path* rather than its full text:

* each operation of a query is one trie symbol — the block name plus its
  state-changing flush marker (``A``, ``A!``) — while the measurement
  marker ``?`` selects which positions carry a payload (cache outcomes are
  per *profiled* access);
* queries sharing an operation prefix (every probe of one Polca word, every
  query behind one reset sequence) share storage structurally, so on-disk
  caches stop growing quadratically with suite depth;
* a query whose operations form a *prefix* of an already-answered query is
  served without ever having been executed itself — Polca issues each
  run's longest probe first so the run's other probes are served this way;
* conflicting measurements for the same operation prefix raise
  :class:`~repro.errors.NonDeterminismError`, the broken-reset signal of
  Section 7.1, now enforced on the frontend path too.

The cache holds no file of its own: persistence is the store's job.  A
frontend cache persists through the store it is handed —
``CacheQuery(cpu, store=PrefixStore(path))`` … ``store.save()`` — exactly
like the learning trie beside it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CacheQueryError
from repro.mbl.ast import PROFILE_TAG
from repro.store import PrefixStore
from repro.store.prefix_store import PrefixNamespace

#: First element of every frontend namespace key inside a shared store.
FRONTEND_NAMESPACE = "mbl"

#: A query's response-cache key: its trie symbols and profiled positions.
OperationPath = Tuple[Tuple[str, ...], Tuple[int, ...]]


def operation_path(query) -> OperationPath:
    """The ``(symbols, profiled)`` key of a concrete query.

    ``symbols`` holds each operation's :attr:`~repro.mbl.ast.Operation.symbol`:
    its block, keeping the state-changing flush marker (``A!``) but not the
    measurement marker (``A?`` → ``A``), and ``profiled`` lists the
    positions whose outcome the query measures.  ``A`` and ``A?`` therefore
    share one trie node: profiling does not change cache state, only what
    is observed.
    """
    return (
        tuple([operation.symbol for operation in query]),
        tuple([
            position
            for position, operation in enumerate(query)
            if operation.tag == PROFILE_TAG
        ]),
    )


class QueryCache:
    """A trie-backed response cache: a view over one prefix store.

    ``QueryCache(store)`` records into ``store`` — possibly shared with the
    learning trie of the same run, possibly bound to a file by
    ``PrefixStore(path)`` — and ``QueryCache()`` into a fresh in-memory
    :class:`~repro.store.PrefixStore`.
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
        #: Each target's namespace, looked up in the store once; forgotten
        #: whenever the store has dropped a namespace since.
        self._targets: Dict[Tuple[str, int, int], PrefixNamespace] = {}
        self._drops = self.store.drops
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------- namespaces

    def _namespace(self, level: str, slice_index: int, set_index: int) -> PrefixNamespace:
        if self._drops != self.store.drops:
            self._targets.clear()
            self._drops = self.store.drops
        target = (level, slice_index, set_index)
        namespace = self._targets.get(target)
        if namespace is None:
            key = (FRONTEND_NAMESPACE,) + self._scope + target
            namespace = self._targets[target] = self.store.namespace(key)
        return namespace

    def _frontend_namespaces(self):
        marker = (FRONTEND_NAMESPACE,) + self._scope
        return [
            self.store.namespace(key)
            for key in self.store.namespaces()
            if key[: len(marker)] == marker
        ]

    # ----------------------------------------------------------------- access

    def get_path(
        self,
        level: str,
        slice_index: int,
        set_index: int,
        symbols: Sequence[str],
        profiled: Sequence[int],
    ) -> Optional[Tuple[str, ...]]:
        """Return the cached outcome trace for an operation path, or ``None``.

        A query is served when its whole operation path is stored — whether
        it was recorded itself or is a prefix of a longer recorded query —
        and every profiled position carries a measurement.
        """
        if symbols:
            payloads = self._namespace(level, slice_index, set_index).lookup(symbols)
            if payloads is not None:
                outcomes = tuple([payloads[position] for position in profiled])
                if None not in outcomes:
                    self.hits += 1
                    return outcomes
        self.misses += 1
        return None

    def put_path(
        self,
        level: str,
        slice_index: int,
        set_index: int,
        symbols: Sequence[str],
        profiled: Sequence[int],
        outcomes: Sequence[str],
    ) -> None:
        """Store the outcome trace of an operation path (one outcome per profiled access)."""
        outcomes = tuple(outcomes)
        if len(outcomes) != len(profiled):
            raise CacheQueryError(
                f"query {' '.join(symbols)!r} profiles {len(profiled)} accesses "
                f"but {len(outcomes)} outcomes were provided"
            )
        payloads: List[Optional[str]] = [None] * len(symbols)
        for position, outcome in zip(profiled, outcomes):
            payloads[position] = outcome
        self._namespace(level, slice_index, set_index).record(symbols, payloads)

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
