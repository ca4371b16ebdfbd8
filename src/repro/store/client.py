"""Synchronous client for the measurement-store server (and its wire protocol).

The server (:mod:`repro.store.server`) owns a
:class:`~repro.store.shards.ShardedStore` and serialises every shard's
appends on one asyncio task, so N writers stop paying an advisory-lock +
catch-up round-trip per save.  :class:`RemoteStore` is the client half: a
synchronous facade exposing the same namespace surface
:class:`~repro.store.prefix_store.PrefixStore` gives to the query engine
and the CacheQuery frontend, so ``ResponseTrie(store=RemoteStore(...))``
and ``QueryCache(store=RemoteStore(...))`` work unchanged.

Design:

* **local mirror, remote truth** — every namespace keeps an in-memory
  :class:`~repro.store.prefix_store.PrefixNamespace` mirror, populated by
  one ``pull`` round-trip when the namespace is first opened (the server
  catches up on direct-file appends before answering, so a warm start over
  a populated corpus re-executes 0 queries).  Lookups are served locally;
  records apply to the mirror (raising
  :class:`~repro.errors.NonDeterminismError` immediately on a local
  conflict) and buffer as pending delta records;
* **one round-trip per save** — :meth:`RemoteStore.save` ships every
  namespace's pending records in a single ``save`` frame; the server
  replays them into its store (cross-client conflicts come back as a
  ``NonDeterminismError`` response and re-raise here, at the recording
  client) and persists the touched shards under the same ``fcntl`` locks
  direct-file writers take — mixed server/direct access stays safe;
* **reconnect-and-resend** — the protocol is stateless and records are
  idempotent replays, so a connection dropped mid-save (server restart,
  network blip) is retried transparently on a fresh connection.

Wire protocol: each frame is a 4-byte big-endian length prefix followed by
one UTF-8 JSON object.  Requests carry ``{"op": ..., ...}``; responses
``{"ok": true, ...}`` or ``{"ok": false, "error": <class>, "message": ...}``.
Words travel in the store codec's symbol encoding
(:func:`~repro.store.codec.encode_symbol`), so registered symbol types
(``Line``/``Evict``) cross the wire exactly as they cross the disk.

Addresses are spelled ``unix:///path/to.sock`` or ``tcp://host:port``;
:func:`~repro.store.shards.open_store` recognises both, so
``--cache-path unix:///…`` and ``--store-server`` reach the same place.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import NonDeterminismError, StoreCorruptionError, StoreError
from repro.store.codec import (
    decode_delta_entry,
    decode_symbol,
    encode_delta_record,
    encode_symbol,
)
from repro.store.prefix_store import NamespaceKey, PrefixNamespace

#: Address-scheme prefixes :func:`parse_address` (and ``open_store``) accept.
ADDRESS_SCHEMES = ("unix://", "tcp://")

_LENGTH = struct.Struct(">I")

#: Refuse frames above this size: a length prefix this large means the
#: stream desynchronised (or a hostile peer), not a real payload.
MAX_FRAME_BYTES = 512 * 1024 * 1024


def is_server_address(path) -> bool:
    """True when ``path`` is a store-server address, not a filesystem path."""
    return isinstance(path, str) and path.startswith(ADDRESS_SCHEMES)


def parse_address(address: str) -> Tuple[str, object]:
    """Parse ``unix:///path`` / ``tcp://host:port`` into ``(scheme, target)``.

    Returns ``("unix", "/path")`` or ``("tcp", (host, port))``; raises
    :class:`~repro.errors.StoreError` on anything else.
    """
    if not isinstance(address, str) or not is_server_address(address):
        raise StoreError(
            f"store-server address {address!r} must start with unix:// or tcp:// "
            '(e.g. "unix:///tmp/corpus.sock" or "tcp://127.0.0.1:9970")'
        )
    if address.startswith("unix://"):
        path = address[len("unix://") :]
        if not path:
            raise StoreError(f"unix store-server address {address!r} has no socket path")
        return "unix", path
    rest = address[len("tcp://") :]
    host, separator, port_text = rest.rpartition(":")
    if not separator or not host:
        raise StoreError(
            f"tcp store-server address {address!r} must be tcp://host:port"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise StoreError(
            f"tcp store-server address {address!r} has a non-integer port"
        ) from exc
    return "tcp", (host, port)


# ------------------------------------------------------------------- framing


def send_frame(sock: socket.socket, payload: dict) -> None:
    """Write one length-prefixed JSON frame."""
    body = json.dumps(payload, separators=(",", ":")).encode()
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionResetError("store server closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict:
    """Read one length-prefixed JSON frame."""
    length = _LENGTH.unpack(_recv_exactly(sock, _LENGTH.size))[0]
    if length > MAX_FRAME_BYTES:
        raise StoreError(
            f"store-server frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit: the protocol stream desynchronised"
        )
    return json.loads(_recv_exactly(sock, length))


def encode_word(word: Sequence[Hashable]) -> List[str]:
    """Wire encoding of a trie word (the codec's symbol encoding)."""
    return [encode_symbol(symbol) for symbol in word]


def decode_word(symbols: Sequence[str]) -> Tuple[Hashable, ...]:
    """Invert :func:`encode_word`."""
    return tuple(decode_symbol(symbol) for symbol in symbols)


def error_response(exc: Exception) -> dict:
    """Render an exception as an ``{"ok": false, ...}`` response payload."""
    payload = {"ok": False, "error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, NonDeterminismError):
        payload["query"] = encode_word(exc.query)
        payload["first"] = list(exc.first)
        payload["second"] = list(exc.second)
    return payload


def raise_from_response(response: dict) -> None:
    """Re-raise the error a ``{"ok": false}`` response carries."""
    error = response.get("error", "StoreError")
    message = response.get("message", "store server reported an error")
    if error in ("NonDeterminismError", "OutputLengthMismatchError"):
        raise NonDeterminismError(
            decode_word(response.get("query", [])),
            tuple(response.get("first", [])),
            tuple(response.get("second", [])),
        )
    if error == "StoreCorruptionError":
        raise StoreCorruptionError(message)
    raise StoreError(message)


# ----------------------------------------------------------------- namespaces


class _MirrorJournal:
    """Owner shim: routes a mirror namespace's change notifications to the
    :class:`RemoteNamespace` pending buffer (same hooks a
    :class:`~repro.store.prefix_store.PrefixStore` owner provides)."""

    def __init__(self, remote: "RemoteNamespace") -> None:
        self._remote = remote

    def _journal_record(self, key, word, payloads, terminal) -> None:
        self._remote._pending.append((tuple(word), tuple(payloads), bool(terminal)))

    def _note_structural_change(self) -> None:
        self._remote._cleared = True
        self._remote._pending.clear()


class RemoteNamespace:
    """One namespace of a :class:`RemoteStore`: a local mirror + pending delta.

    Exposes the full :class:`~repro.store.prefix_store.PrefixNamespace`
    surface (``lookup``/``lookup_prefix``/``covers``/``record``/``merge``/
    ``iter_entries``/``iter_paths``/``clear``/counts).  Reads are local;
    mutations buffer until the owning store's :meth:`RemoteStore.save`.
    """

    def __init__(self, store: "RemoteStore", key: NamespaceKey) -> None:
        self.key = key
        self._store = store
        self._pending: List[tuple] = []
        #: Set when :meth:`clear` ran since the last save: the server must
        #: drop the namespace before replaying pending records.
        self._cleared = False
        # The mirror holds its owner weakly, so this namespace keeps the shim
        # alive.
        self._journal = _MirrorJournal(self)
        self._mirror = PrefixNamespace(key, owner=self._journal)
        self._pull()

    def _pull(self) -> None:
        """Populate the mirror from the server (which catches up on direct
        writers first, so the mirror starts no staler than the disk)."""
        response = self._store._request({"op": "pull", "key": list(self.key)})
        with self._suspended_pending():
            for entry in response.get("paths", []):
                record = decode_delta_entry(Path("<remote>"), entry)
                self._mirror.record(
                    record.word, record.payloads, terminal=record.terminal
                )

    def _suspended_pending(self):
        """Context: mirror mutations that are already durable server-side."""
        from contextlib import contextmanager

        @contextmanager
        def suspend():
            owner = self._mirror._owner
            self._mirror._owner = None
            try:
                yield
            finally:
                self._mirror._owner = owner

        return suspend()

    # Reads: served from the mirror.

    def lookup(self, word):
        return self._mirror.lookup(word)

    def lookup_prefix(self, word):
        return self._mirror.lookup_prefix(word)

    def covers(self, word):
        return self._mirror.covers(word)

    def iter_entries(self):
        return self._mirror.iter_entries()

    def iter_paths(self):
        return self._mirror.iter_paths()

    @property
    def node_count(self):
        return self._mirror.node_count

    @property
    def entry_count(self):
        return self._mirror.entry_count

    def __len__(self):
        return len(self._mirror)

    # Mutations: applied locally, buffered for the next save.

    def record(self, word, payloads=None, *, terminal: bool = True) -> bool:
        """Record into the mirror (local conflicts raise immediately) and
        buffer the delta for the next :meth:`RemoteStore.save`."""
        return self._mirror.record(word, payloads, terminal=terminal)

    def merge(self, other) -> None:
        self._mirror.merge(other)

    def clear(self) -> None:
        self._mirror.clear()

    @property
    def pending_records(self) -> int:
        return len(self._pending)


class RemoteStore:
    """Store facade over a running :mod:`repro.store.server` instance.

    Satisfies the surface consumers expect from
    :class:`~repro.store.prefix_store.PrefixStore` /
    :class:`~repro.store.shards.ShardedStore`: ``namespace``/
    ``namespaces``/``save``/``compact``/``statistics``/``clear`` plus the
    ``node_count``/``entry_count``/``pending_records`` totals (over the
    namespaces this client opened, like a sharded store's loaded shards).
    """

    #: Duck-typing markers: consumers treat a remote store like a sharded
    #: corpus (no client-side file to load or migrate).
    sharded = True
    remote = True

    def __init__(
        self,
        address: str,
        *,
        timeout: float = 60.0,
        connect_retries: int = 10,
        retry_delay: float = 0.2,
    ) -> None:
        self.address = address
        self._scheme, self._target = parse_address(address)
        self._timeout = timeout
        self._connect_retries = connect_retries
        self._retry_delay = retry_delay
        self._sock: Optional[socket.socket] = None
        self._namespaces: Dict[NamespaceKey, RemoteNamespace] = {}
        # Fail fast on a dead address and learn what the server fronts.
        self.server_info = self._request({"op": "hello"})

    # -------------------------------------------------------------- transport

    @property
    def path(self) -> None:
        """Remote stores have no client-side backing file."""
        return None

    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        last_error: Optional[Exception] = None
        for attempt in range(self._connect_retries + 1):
            try:
                if self._scheme == "unix":
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.settimeout(self._timeout)
                    sock.connect(self._target)
                else:
                    sock = socket.create_connection(
                        self._target, timeout=self._timeout
                    )
                self._sock = sock
                return sock
            except OSError as exc:
                last_error = exc
                time.sleep(self._retry_delay * (attempt + 1))
        raise StoreError(
            f"cannot connect to store server at {self.address}: {last_error}; "
            "start one with `python -m repro.store.server --listen "
            f"{self.address} --path CORPUS`"
        ) from last_error

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None

    def _request(self, payload: dict) -> dict:
        """One request/response round-trip, reconnecting and resending once.

        Safe because the protocol is stateless and every mutation is an
        idempotent replay: resending a ``save`` whose response was lost
        re-records the same words with the same payloads.
        """
        last_error: Optional[Exception] = None
        for attempt in (0, 1):
            try:
                sock = self._connect()
                send_frame(sock, payload)
                response = recv_frame(sock)
                break
            except (OSError, json.JSONDecodeError, struct.error) as exc:
                last_error = exc
                self._drop_connection()
                if attempt:
                    raise StoreError(
                        f"store server at {self.address} went away mid-request "
                        f"({exc}) and did not come back"
                    ) from exc
        else:  # pragma: no cover - loop always breaks or raises
            raise StoreError(str(last_error))
        if not response.get("ok"):
            raise_from_response(response)
        return response

    def close(self) -> None:
        """Close the connection (pending records stay buffered)."""
        self._drop_connection()

    def __enter__(self) -> "RemoteStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------- namespaces

    def namespace(self, key: Sequence[Hashable]) -> RemoteNamespace:
        """Return (pulling from the server if new) the namespace for ``key``."""
        key = tuple(key)
        namespace = self._namespaces.get(key)
        if namespace is None:
            namespace = RemoteNamespace(self, key)
            self._namespaces[key] = namespace
        return namespace

    def namespaces(self) -> Tuple[NamespaceKey, ...]:
        """Every namespace key the server knows plus locally opened ones."""
        keys = list(self._namespaces)
        seen = set(keys)
        response = self._request({"op": "namespaces"})
        for raw in response.get("keys", []):
            key = tuple(raw)
            if key not in seen:
                seen.add(key)
                keys.append(key)
        return tuple(keys)

    # ------------------------------------------------------------------ totals

    @property
    def node_count(self) -> int:
        """Stored prefixes across the namespaces this client opened."""
        return sum(ns.node_count for ns in self._namespaces.values())

    @property
    def entry_count(self) -> int:
        """Recorded entries across the namespaces this client opened."""
        return sum(ns.entry_count for ns in self._namespaces.values())

    @property
    def pending_records(self) -> int:
        """Buffered records waiting for the next :meth:`save`."""
        return sum(ns.pending_records for ns in self._namespaces.values())

    def statistics(self) -> Dict[str, object]:
        """The server's corpus statistics, annotated with the client view."""
        stats = dict(self._request({"op": "statistics"}).get("statistics", {}))
        stats["remote"] = self.address
        stats["client_namespaces"] = len(self._namespaces)
        stats["pending_records"] = self.pending_records
        return stats

    def clear(self) -> None:
        """Drop every namespace, server-side included."""
        self._request({"op": "clear"})
        for namespace in self._namespaces.values():
            with namespace._suspended_pending():
                namespace._mirror.clear()
            namespace._pending.clear()
            namespace._cleared = False
        self._namespaces.clear()

    # ------------------------------------------------------------- persistence

    def save(self, path: Optional[str] = None, *, compact: bool = False) -> None:
        """Ship every namespace's pending records in one ``save`` round-trip.

        The server replays them into its store and persists the touched
        shards under their ``fcntl`` locks.  A cross-client conflict comes
        back as an error response and raises
        :class:`~repro.errors.NonDeterminismError` here — at the recording
        client — with the conflicting batch dropped (it is partially
        applied server-side, exactly like a direct writer dying mid-save).
        """
        if path is not None:
            raise StoreError(
                f"remote store {self.address} persists on the server; "
                f"saving to a local path ({path!r}) is not supported"
            )
        batches = []
        dirty = []
        for namespace in self._namespaces.values():
            if not namespace._pending and not namespace._cleared:
                continue
            batches.append(
                {
                    "key": list(namespace.key),
                    "clear": namespace._cleared,
                    "records": [
                        encode_delta_record(namespace.key, word, payloads, terminal)
                        for word, payloads, terminal in namespace._pending
                    ],
                }
            )
            dirty.append(namespace)
        if not batches and not compact:
            return
        try:
            self._request({"op": "save", "batches": batches, "compact": compact})
        except NonDeterminismError:
            for namespace in dirty:
                namespace._pending.clear()
                namespace._cleared = False
            raise
        for namespace in dirty:
            namespace._pending.clear()
            namespace._cleared = False

    def compact(self) -> None:
        """Flush pending records, then compact the whole corpus server-side."""
        self.save(compact=True)
