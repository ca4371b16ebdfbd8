"""The shared prefix store: one trie substrate under every response cache.

Before this module existed the repository kept **two disjoint caches** for
the same underlying measurements: the learning side's ``ResponseTrie``
(prefix-sharing, in-memory only) and the CacheQuery frontend's
``QueryCache`` (flat dict keyed by full query text, JSON persistence, no
prefix sharing).  :class:`PrefixStore` is the substrate both are now thin
views over:

* a **symbol-keyed trie** per namespace — recording the answer of a word
  records the answer of every prefix in the same O(|word|) nodes, and
  looking up a word that is a prefix of a previously recorded word is a
  hit without ever having executed it;
* **per-target namespaces** — one store holds many independent tries keyed
  by tuples such as ``("mbl", level, slice, set)`` (the frontend's response
  cache for one hardware cache set) or ``("learning", policy, assoc)``
  (the learning engine's trie), so one file can back a whole sweep;
* **partial payloads** — a node's payload may be unknown (``None``).  The
  frontend uses this for un-profiled accesses: the access is part of the
  state-determining path but no measurement exists for it.  Recording fills
  unknown payloads in and raises
  :class:`~repro.errors.NonDeterminismError` when a known payload
  disagrees — the same broken-reset detection the learning trie performs
  (paper Section 7.1);
* an **append-log on-disk codec** (version 2, :mod:`repro.store.codec`):
  every mutation since the last save is journaled, so saving appends only
  the delta — O(changes), not O(store) — with periodic compaction back to
  a compact snapshot;
* a **multi-writer file protocol**: saves take an advisory ``fcntl`` lock
  on a sibling ``<file>.lock``, first replay whatever other writers
  appended (or a whole compacted file) into memory — raising
  :class:`~repro.errors.NonDeterminismError` when two writers measured
  the same prefix differently — and only then append their own delta.
  Readers never lock: they tolerate a concurrent appender by dropping a
  torn final line (see :class:`~repro.store.codec.LoadReport`).

Persistence is the store's alone: a store is bound to one file when it is
built and saves only there, :func:`~repro.store.shards.open_store` decides
what a path means, and the views never open, merge or save files
themselves.  The store is deliberately generic: symbols are hashable keys
(strings persist natively; other types persist through the codec's symbol
registry), payloads are JSON scalars, and no learning- or MBL-specific
logic lives here.  For corpora shared by many independent sweeps, see
:class:`~repro.store.shards.ShardedStore`, which spreads namespaces over
one file (one lock, one log) per namespace key.
"""

from __future__ import annotations

import os
import warnings
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import NonDeterminismError, StoreError

try:  # pragma: no cover - POSIX everywhere we run; gate for portability
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

#: One-time flag: the first locked operation on a platform without
#: ``fcntl`` warns that the multi-writer protocol is running unlocked.
_warned_fcntl_missing = False


def _warn_fcntl_missing() -> None:
    global _warned_fcntl_missing
    if _warned_fcntl_missing:
        return
    _warned_fcntl_missing = True
    warnings.warn(
        "fcntl is unavailable on this platform: the measurement store cannot "
        "lock out concurrent writers; a second writer touching this file "
        "will be detected on catch-up and rejected with a StoreError instead "
        "of risking corruption (keep one writer per store file, or give "
        "concurrent writers disjoint namespaces of a sharded corpus)",
        RuntimeWarning,
        stacklevel=4,
    )

Symbol = Hashable
Payload = Optional[Hashable]
Word = Tuple[Symbol, ...]
NamespaceKey = Tuple[Hashable, ...]

#: Append-log bytes that trigger an automatic compaction on save: the log
#: must exceed both this floor and the snapshot it extends (so small
#: stores never churn and big stores compact once the replay cost of the
#: tail rivals the snapshot itself).
AUTO_COMPACT_MIN_BYTES = 64 * 1024


def _store_file(value) -> Optional[Path]:
    """``value`` as a store file path; its directory must already exist.

    Checked when a store binds its path, so a typo'd ``--cache-path`` fails
    before any learning instead of at the first save's lock file.
    """
    if value is None:
        return None
    path = Path(value)
    if not path.parent.is_dir():
        raise StoreError(
            f"cannot use store file {path}: its directory {path.parent} does "
            "not exist; create it first or pick an existing directory"
        )
    return path


class _StoreNode:
    """One trie node: the payload of the edge reaching it plus its children."""

    __slots__ = ("children", "payload", "terminal")

    def __init__(self) -> None:
        self.children: Dict[Symbol, "_StoreNode"] = {}
        self.payload: Payload = None
        #: True when a word *ending* here was explicitly recorded as an entry
        #: (used for entry counting and :meth:`PrefixNamespace.iter_entries`).
        self.terminal = False


def _subtree_counts(node: _StoreNode) -> Tuple[int, int]:
    """Return ``(nodes, terminal_entries)`` of the subtree rooted at ``node``,
    the root node included."""
    nodes = 0
    entries = 0
    stack = [node]
    while stack:
        current = stack.pop()
        nodes += 1
        if current.terminal:
            entries += 1
        stack.extend(current.children.values())
    return nodes, entries


class PrefixNamespace:
    """One independent trie of a :class:`PrefixStore` (one cache target)."""

    def __init__(self, key: NamespaceKey, owner: Optional["PrefixStore"] = None) -> None:
        self.key = key
        self._root = _StoreNode()
        self._nodes = 0
        self._entries = 0
        #: Weak reference to the store this namespace journals its mutations
        #: to (None for standalone namespaces, e.g. scratch staging).  Weak,
        #: so a dropped store and its tries are freed by reference counting
        #: instead of waiting for the cyclic collector; a namespace that
        #: outlives its store stops journaling, which is safe because a dead
        #: store can never save.
        self._owner = weakref.ref(owner) if owner is not None else None

    def _live_owner(self) -> Optional["PrefixStore"]:
        """The store to journal to, or None (standalone, or the store is gone)."""
        return self._owner() if self._owner is not None else None

    # Weak references cannot be pickled: ship the owner itself (pickle's memo
    # keeps the store <-> namespace cycle intact) and re-wrap it on load, so
    # a store can travel to pool workers inside a pickled Polca oracle.

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_owner"] = self._live_owner()
        return state

    def __setstate__(self, state: dict) -> None:
        owner = state.pop("_owner")
        self.__dict__.update(state)
        self._owner = weakref.ref(owner) if owner is not None else None

    # ------------------------------------------------------------------ sizes

    @property
    def node_count(self) -> int:
        """Number of trie nodes below the root (== distinct stored prefixes)."""
        return self._nodes

    @property
    def entry_count(self) -> int:
        """Number of words explicitly recorded as entries (terminal marks)."""
        return self._entries

    def __len__(self) -> int:
        return self._nodes

    # ---------------------------------------------------------------- lookups

    def lookup(self, word: Sequence[Symbol]) -> Optional[Tuple[Payload, ...]]:
        """Return the payloads along ``word``, or ``None`` when the path is unknown.

        The returned tuple may contain ``None`` holes for positions whose
        payload was never recorded (e.g. un-profiled accesses); callers that
        need specific positions check them.  The empty word is only
        answered (with ``()``) after it has been recorded as an entry.
        """
        node = self._root
        payloads: List[Payload] = []
        for symbol in word:
            node = node.children.get(symbol)
            if node is None:
                return None
            payloads.append(node.payload)
        if not payloads and not node.terminal:
            return None
        return tuple(payloads)

    # --------------------------------------------------------------- recording

    def record(
        self,
        word: Sequence[Symbol],
        payloads: Optional[Sequence[Payload]] = None,
        *,
        terminal: bool = True,
    ) -> bool:
        """Store ``payloads`` along ``word``; return whether the entry is new.

        ``payloads`` may be omitted (pure membership marking) or contain
        ``None`` holes; known payloads merge with stored ones.  A known
        payload that disagrees with a stored one raises
        :class:`~repro.errors.NonDeterminismError` carrying the conflicting
        prefix — the system under measurement answered the same prefix
        differently across runs.
        """
        word = tuple(word)
        if payloads is None:
            payloads = (None,) * len(word)
        else:
            payloads = tuple(payloads)
            if len(payloads) != len(word):
                raise StoreError(
                    f"word of length {len(word)} needs exactly {len(word)} "
                    f"payloads, got {len(payloads)}"
                )
        node = self._root
        stored: List[Payload] = []
        changed = False
        for position, symbol in enumerate(word):
            child = node.children.get(symbol)
            if child is None:
                child = _StoreNode()
                child.payload = payloads[position]
                node.children[symbol] = child
                self._nodes += 1
                changed = True
            elif payloads[position] is not None:
                if child.payload is None:
                    child.payload = payloads[position]
                    changed = True
                elif child.payload != payloads[position]:
                    raise NonDeterminismError(
                        word[: position + 1],
                        stored + [child.payload],
                        payloads[: position + 1],
                    )
            stored.append(child.payload)
            node = child
        new_entry = terminal and not node.terminal
        if new_entry:
            node.terminal = True
            self._entries += 1
            changed = True
        owner = self._live_owner() if changed else None
        if owner is not None:
            owner._journal_record(self.key, word, payloads, terminal)
        return new_entry

    # --------------------------------------------------------------- merging

    def merge(self, other: "PrefixNamespace") -> None:
        """Merge another namespace's trie into this one.

        Subtrees absent here are grafted wholesale (``other`` must be
        discarded afterwards — its nodes are shared, not copied); shared
        paths merge payloads with the usual conflict rule: a known payload
        that disagrees raises :class:`~repro.errors.NonDeterminismError`.
        This is the staging primitive behind all-or-nothing file loading:
        decode into a scratch namespace first, merge only on full success.
        """
        stack: List[Tuple[_StoreNode, _StoreNode, Word]] = [(self._root, other._root, ())]
        while stack:
            mine, theirs, prefix = stack.pop()
            if theirs.terminal and not mine.terminal:
                mine.terminal = True
                self._entries += 1
            for symbol, their_child in theirs.children.items():
                word = prefix + (symbol,)
                my_child = mine.children.get(symbol)
                if my_child is None:
                    mine.children[symbol] = their_child
                    nodes, entries = _subtree_counts(their_child)
                    self._nodes += nodes
                    self._entries += entries
                    continue
                if their_child.payload is not None:
                    if my_child.payload is None:
                        my_child.payload = their_child.payload
                    elif my_child.payload != their_child.payload:
                        raise NonDeterminismError(
                            word, (my_child.payload,), (their_child.payload,)
                        )
                stack.append((my_child, their_child, word))
        owner = self._live_owner()
        if owner is not None:
            # Journal the graft as replayable records.  Re-journaling paths
            # this trie already held is harmless (replay is idempotent) and
            # the next compaction folds the log back into the snapshot.
            for word, payloads, terminal in other.iter_paths():
                owner._journal_record(self.key, word, payloads, terminal)

    # -------------------------------------------------------------- iteration

    def iter_entries(self) -> Iterator[Tuple[Word, Tuple[Payload, ...]]]:
        """Yield every recorded entry as ``(word, payloads)``, in trie order."""
        stack: List[Tuple[_StoreNode, Word, Tuple[Payload, ...]]] = [(self._root, (), ())]
        while stack:
            node, word, payloads = stack.pop()
            if node.terminal:
                yield word, payloads
            for symbol in sorted(node.children, key=repr, reverse=True):
                child = node.children[symbol]
                stack.append((child, word + (symbol,), payloads + (child.payload,)))

    def iter_paths(self) -> Iterator[Tuple[Word, Tuple[Payload, ...], bool]]:
        """Yield ``(word, payloads, terminal)`` records that rebuild this trie.

        Every maximal path (leaf) and every terminal-marked node is
        yielded, so replaying the records through :meth:`record`
        reconstructs the exact node set, payloads and terminal marks —
        the delta-journal encoding of a whole namespace.
        """
        if self._root.terminal:
            yield (), (), True
        stack: List[Tuple[_StoreNode, Word, Tuple[Payload, ...]]] = [(self._root, (), ())]
        while stack:
            node, word, payloads = stack.pop()
            for symbol in sorted(node.children, key=repr, reverse=True):
                child = node.children[symbol]
                child_word = word + (symbol,)
                child_payloads = payloads + (child.payload,)
                if child.terminal or not child.children:
                    yield child_word, child_payloads, child.terminal
                stack.append((child, child_word, child_payloads))

    def clear(self) -> None:
        """Drop every stored path and entry."""
        self._root = _StoreNode()
        self._nodes = 0
        self._entries = 0
        owner = self._live_owner()
        if owner is not None:
            owner._note_structural_change()


class PrefixStore:
    """A namespaced collection of prefix tries with optional persistence.

    ``PrefixStore(path)`` binds the store to one file for its whole life
    and loads it when it exists (the v2 append-log codec, or the v1
    whole-file codec — migrated to v2 on open); anything else there raises
    :class:`~repro.errors.StoreCorruptionError` naming the file.
    :meth:`save` appends the journaled delta since the last save to that
    file, compacting back to a snapshot when the log outgrows it.  A store
    without a path is purely in-memory and journals nothing.
    """

    #: Duck-typing marker consumers use to tell file-backed stores from
    #: directory-backed :class:`~repro.store.shards.ShardedStore` corpora.
    sharded = False

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        header_extra: Optional[dict] = None,
    ) -> None:
        self._path = _store_file(path)
        self._namespaces: Dict[NamespaceKey, PrefixNamespace] = {}
        #: Replayable mutation records (key, word, payloads, terminal)
        #: accumulated since the last save; only kept for path-backed stores.
        self._journal: List[tuple] = []
        self._journal_suspended = 0
        #: Extra header fields persisted in the v2 header line (e.g. the
        #: shard key a :class:`~repro.store.shards.ShardedStore` stamps).
        self.header_extra = dict(header_extra) if header_extra else {}
        #: Set when the in-memory state cannot be expressed as an append
        #: (cleared or dropped namespaces, a v1 file still on disk): the
        #: next save rewrites a full snapshot.
        self._needs_snapshot = False
        #: Log-position bookkeeping for the multi-writer protocol: the
        #: compaction generation and byte offset this process has synced
        #: to.  ``generation=-1`` forces a full re-read on the next save.
        self._generation = -1
        self._synced_offset = 0
        self._snapshot_end = 0
        #: :class:`~repro.store.codec.LoadReport` of the last file load
        #: (None for fresh/in-memory stores).
        self.load_report = None
        if self._path is not None and self._path.exists():
            from repro.store.codec import load_store_file

            with self._suspended_journal():
                self.load_report = load_store_file(self._path, self)
            self._generation = self.load_report.generation
            self._synced_offset = self.load_report.valid_end
            self._snapshot_end = self.load_report.snapshot_end
            if self.load_report.header_extra and not self.header_extra:
                self.header_extra = dict(self.load_report.header_extra)
            if self.load_report.migrated:
                self._migrate_on_open()

    # -------------------------------------------------------------- journaling

    @property
    def path(self) -> Optional[Path]:
        """The backing file (None for in-memory stores)."""
        return self._path

    def _journal_record(self, key, word, payloads, terminal) -> None:
        if self._path is None or self._journal_suspended:
            return
        self._journal.append((key, tuple(word), tuple(payloads), bool(terminal)))

    def _note_structural_change(self) -> None:
        """A mutation happened that an append cannot express (e.g. clear)."""
        self._needs_snapshot = True
        self._journal.clear()

    @contextmanager
    def _suspended_journal(self):
        """Mutations inside the block are already durable — don't journal them."""
        self._journal_suspended += 1
        try:
            yield
        finally:
            self._journal_suspended -= 1

    @property
    def pending_records(self) -> int:
        """Journal records waiting for the next :meth:`save`."""
        return len(self._journal)

    # -------------------------------------------------------------- namespaces

    def namespace(self, key: Sequence[Hashable]) -> PrefixNamespace:
        """Return (creating if needed) the namespace for ``key``."""
        key = tuple(key)
        namespace = self._namespaces.get(key)
        if namespace is None:
            namespace = PrefixNamespace(key, owner=self)
            self._namespaces[key] = namespace
        return namespace

    def namespaces(self) -> Tuple[NamespaceKey, ...]:
        """The keys of every namespace currently in the store."""
        return tuple(self._namespaces)

    def drop_namespace(self, key: Sequence[Hashable]) -> None:
        """Remove one namespace (a no-op when it does not exist)."""
        dropped = self._namespaces.pop(tuple(key), None)
        if dropped is not None:
            self._note_structural_change()

    # ------------------------------------------------------------------ totals

    @property
    def node_count(self) -> int:
        """Total stored prefixes across all namespaces."""
        return sum(ns.node_count for ns in self._namespaces.values())

    @property
    def entry_count(self) -> int:
        """Total recorded entries across all namespaces."""
        return sum(ns.entry_count for ns in self._namespaces.values())

    def statistics(self) -> Dict[str, object]:
        """Size summary for reports: namespaces, entries, nodes, on-disk bytes."""
        on_disk = (
            self._path.stat().st_size
            if self._path is not None and self._path.exists()
            else 0
        )
        return {
            "path": str(self._path) if self._path is not None else None,
            "namespaces": len(self._namespaces),
            "entries": self.entry_count,
            "nodes": self.node_count,
            "bytes_on_disk": on_disk,
            "generation": self._generation,
            "log_bytes": max(0, self._synced_offset - self._snapshot_end),
            "pending_records": len(self._journal),
            "sharded": False,
        }

    # ------------------------------------------------------------- persistence

    @contextmanager
    def _writer_lock(self):
        """Advisory exclusive lock serialising writers on this store file.

        The lock lives on a sibling ``<file>.lock`` that is never replaced,
        so it survives compaction's :func:`os.replace` of the store file
        itself.  Readers never take it.
        """
        if fcntl is None:
            # No lock to take: warn once that writers are unserialised; the
            # catch-up step rejects a detected second writer cleanly.
            _warn_fcntl_missing()
            yield
            return
        lock_path = self._path.parent / f"{self._path.name}.lock"
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            # The unlock + close MUST stay in this finally: an exception
            # from the locked body (NonDeterminismError or
            # StoreCorruptionError raised during catch-up) would otherwise
            # leak the held lock fd for the life of the process, stalling
            # every sibling writer on this file.
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def _migrate_on_open(self) -> None:
        """Rewrite a just-loaded v1 file in the v2 append-log format."""
        from repro.store.codec import STORE_VERSION, read_header, write_snapshot_file

        try:
            with self._writer_lock():
                # Re-check under the lock: another process may have migrated
                # (and appended!) between our read and our lock acquisition.
                version, _generation = read_header(self._path)
                if version < STORE_VERSION:
                    size = write_snapshot_file(self._path, self, 1, self.header_extra)
                    self._generation = 1
                    self._snapshot_end = size
                    self._synced_offset = size
                    return
        except OSError:  # pragma: no cover - read-only media: defer migration
            pass
        # Someone else migrated first (or the write failed): our sync state
        # is unknown, so force a full catch-up before the next append.
        self._generation = -1
        self._synced_offset = 0
        self._needs_snapshot = False

    def _catch_up_locked(self) -> None:
        """Replay what other writers persisted since our last sync (lock held).

        Raises :class:`~repro.errors.NonDeterminismError` when another
        writer recorded a measurement that disagrees with ours — the
        cross-writer broken-reset signal.  Also repairs a torn tail left by
        a killed writer (safe: we hold the exclusive lock).
        """
        from repro.store.codec import (
            STORE_VERSION,
            load_store_file,
            parse_delta_tail,
            read_file_range,
            read_header,
        )

        if not self._path.exists():
            self._needs_snapshot = True
            return
        version, generation = read_header(self._path)
        if fcntl is None and self._generation >= 0:
            size = self._path.stat().st_size
            if generation != self._generation or size != self._synced_offset:
                # Without fcntl the writers' appends were never serialised:
                # replaying a racing writer's tail could interleave with an
                # append of ours that is still in flight.  Refuse loudly
                # instead of corrupting by luck.
                raise StoreError(
                    f"store file {self._path} changed underneath this writer "
                    f"(generation {self._generation} -> {generation}, synced "
                    f"{self._synced_offset} of {size} bytes) but fcntl "
                    "locking is unavailable on this platform: concurrent "
                    "writers cannot be serialised — keep one writer per "
                    "store file, or give each writer disjoint namespaces of "
                    "a sharded corpus (a directory --cache-path)"
                )
        if version < STORE_VERSION or generation != self._generation:
            # The file was compacted (or rewritten) behind our back — or we
            # never synced: re-read it wholesale and merge.
            scratch = PrefixStore()
            report = load_store_file(self._path, scratch)
            with self._suspended_journal():
                for key in scratch.namespaces():
                    self.namespace(key).merge(scratch.namespace(key))
            if report.migrated:
                # Still v1 on disk: only a full snapshot can continue it.
                self._needs_snapshot = True
                self._generation = -1
                self._synced_offset = 0
                self._snapshot_end = 0
                return
            self._generation = report.generation
            self._snapshot_end = report.snapshot_end
            if report.discarded_bytes:
                os.truncate(self._path, report.valid_end)
            self._synced_offset = report.valid_end
            return
        tail = read_file_range(self._path, self._synced_offset)
        records, valid_end, discarded = parse_delta_tail(
            self._path, tail, self._synced_offset
        )
        with self._suspended_journal():
            for record in records:
                self.namespace(record.key).record(
                    record.word, record.payloads, terminal=record.terminal
                )
        if discarded:
            os.truncate(self._path, valid_end)
        self._synced_offset = valid_end

    def _auto_compact_due(self) -> bool:
        log_bytes = max(0, self._synced_offset - self._snapshot_end)
        return log_bytes > max(AUTO_COMPACT_MIN_BYTES, self._snapshot_end)

    def _compact_locked(self) -> None:
        """Write a fresh snapshot at the next generation (lock held)."""
        from repro.store.codec import render_snapshot, replace_file_bytes

        generation = max(self._generation, 0) + 1
        data = render_snapshot(self, generation, self.header_extra)
        replace_file_bytes(self._path, data)
        self._generation = generation
        self._snapshot_end = len(data)
        self._synced_offset = len(data)
        self._journal.clear()
        self._needs_snapshot = False

    def save(self, *, compact: bool = False) -> None:
        """Persist the store to its file: append the journaled delta (or compact).

        Saving is incremental — O(delta records since the last save) — and
        multi-writer safe: under the advisory writer lock it first replays
        other writers' appends (or a whole compacted file) into memory,
        raising :class:`~repro.errors.NonDeterminismError` when their
        measurements conflict with ours, then appends one delta line.
        ``compact=True`` (or an oversized log, or a mutation appends cannot
        express) rewrites the compact snapshot instead, bumping the
        generation.  A no-op for purely in-memory stores.
        """
        from repro.store.codec import append_delta

        if self._path is None:
            return
        with self._writer_lock():
            self._catch_up_locked()
            if (
                compact
                or self._needs_snapshot
                or not self._path.exists()
                or self._auto_compact_due()
            ):
                self._compact_locked()
            elif self._journal:
                written = append_delta(self._path, self._journal)
                self._synced_offset += written
                self._journal.clear()

    def compact(self) -> None:
        """Force a compaction: fold the append log back into one snapshot."""
        self.save(compact=True)
