"""Versioned on-disk codec for :class:`~repro.store.prefix_store.PrefixStore`.

Format (version 2) — a line-oriented **append log**.  The first two lines
are rewritten only by compaction (atomically, via a same-directory
temporary file and :func:`os.replace`); every later line is appended with
a single ``write`` under the writer lock::

    {"format": "repro-prefix-store", "version": 2, "generation": 3}
    {"snapshot": [{"key": ["mbl", "L2", 0, 63], "trie": <node>}, ...]}
    {"delta": [[<key>, [<symbol>, ...], [<payload>, ...], <terminal>], ...]}
    {"delta": [...]}
    ...

where ``<node>`` is the compact recursive encoding
``[payload, {symbol: <node>, ...}]`` with a third element ``1`` appended
for terminal nodes, exactly as in version 1, and each delta record is one
``record()`` call replayed on load: the namespace key, the encoded word,
its payloads and the terminal flag.  Saving a store therefore costs
O(records since the last save), not O(store) — the whole point of the v2
migration (``benchmarks/bench_store_persistence.py`` pins it).

The ``generation`` counter increments on every compaction.  Writers
remember the generation and byte offset they have synced to, so a later
save can detect both "someone appended behind my back" (same generation,
file grew — replay just the tail) and "someone compacted" (generation
changed — re-read the whole file); see
:meth:`~repro.store.prefix_store.PrefixStore.save` for the protocol.

Version 1 (one whole-file JSON document, no newline) is still decoded —
and migrated to v2 on the next save — so pre-existing ``--cache-path``
files keep working forever.

Robustness:

* **atomic snapshots, torn-tolerant tails** — the header + snapshot pair
  is only ever written atomically, so damage there is genuine corruption
  and raises :class:`~repro.errors.StoreCorruptionError`; the delta tail
  is append-only, so a ``kill -9`` mid-append can only tear the *last*
  line.  Loading silently truncates to the valid prefix and reports how
  many delta records survived (:attr:`LoadReport.recovered_records`) and
  how many tail bytes were dropped (:attr:`LoadReport.discarded_bytes`).
  An invalid line *followed by* valid data means the append discipline was
  violated and is reported as corruption;
* **corruption diagnostics** — unreadable, truncated or structurally
  malformed files, and symbols their decoder rejects, raise
  :class:`~repro.errors.StoreCorruptionError` naming the file and the
  problem; files written by a newer codec version are rejected with an
  upgrade hint instead of being half-parsed;
* **symbol registry** — trie children and delta words are keyed by JSON
  strings.  Plain string symbols are stored as-is; any other symbol type
  must be registered via :func:`register_symbol_codec` (the learning stack
  registers its policy-input symbols in
  :mod:`repro.learning.query_engine`).  Encoded symbols are marked with a
  ``\\x01`` sentinel byte that cannot collide with MBL block names.

Every byte the codec moves goes through the :func:`track_store_io`
instrumentation hooks, so tests can assert the O(delta) claim by counting
instead of timing.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StoreCorruptionError, StoreError

STORE_FORMAT = "repro-prefix-store"
STORE_VERSION = 2

#: Sentinel prefix marking a registry-encoded (non-plain-string) symbol.
_ENCODED = "\x01"

#: tag -> (type, encode, decode); see :func:`register_symbol_codec`.
_SYMBOL_CODECS: Dict[str, Tuple[type, Callable, Callable]] = {}
_SYMBOL_TAG_BY_TYPE: Dict[type, str] = {}

_SCALARS = (str, int, float, bool, type(None))


def register_symbol_codec(
    tag: str,
    symbol_type: type,
    encode: Callable[[Hashable], str],
    decode: Callable[[str], Hashable],
) -> None:
    """Teach the codec to persist symbols of ``symbol_type``.

    ``encode`` must render the symbol to a string ``decode`` round-trips.
    Registering the same tag twice for the same type is a no-op; a tag
    collision between different types raises :class:`~repro.errors.StoreError`.
    """
    existing = _SYMBOL_CODECS.get(tag)
    if existing is not None and existing[0] is not symbol_type:
        raise StoreError(
            f"symbol codec tag {tag!r} is already registered for "
            f"{existing[0].__name__}"
        )
    _SYMBOL_CODECS[tag] = (symbol_type, encode, decode)
    _SYMBOL_TAG_BY_TYPE[symbol_type] = tag


def encode_symbol(symbol: Hashable) -> str:
    """Render a trie symbol as a JSON object key."""
    if isinstance(symbol, str):
        if symbol.startswith(_ENCODED):  # defensive: escape the sentinel
            return f"{_ENCODED}s:{symbol[1:]}"
        return symbol
    if isinstance(symbol, bool):  # bool before int: bool is an int subclass
        return f"{_ENCODED}b:{int(symbol)}"
    if isinstance(symbol, int):
        return f"{_ENCODED}i:{symbol}"
    tag = _SYMBOL_TAG_BY_TYPE.get(type(symbol))
    if tag is None:
        raise StoreError(
            f"cannot persist trie symbol {symbol!r} of type "
            f"{type(symbol).__name__}: register a symbol codec first "
            "(see repro.store.codec.register_symbol_codec)"
        )
    return f"{_ENCODED}{tag}:{_SYMBOL_CODECS[tag][1](symbol)}"


def decode_symbol(text: str) -> Hashable:
    """Invert :func:`encode_symbol`."""
    if not text.startswith(_ENCODED):
        return text
    tag, _, payload = text[1:].partition(":")
    if tag == "s":
        return _ENCODED + payload
    if tag == "b":
        return bool(int(payload))
    if tag == "i":
        return int(payload)
    codec = _SYMBOL_CODECS.get(tag)
    if codec is None:
        raise StoreCorruptionError(
            f"store file uses unknown symbol codec tag {tag!r}; the writing "
            "process registered a codec this process has not imported"
        )
    return codec[2](payload)


# ---------------------------------------------------------- IO instrumentation


@dataclass
class StoreIO:
    """Byte counters for every file operation the codec performs.

    Obtained from :func:`track_store_io`; the O(delta) regression test
    asserts on these instead of wall clock.
    """

    bytes_read: int = 0
    bytes_written: int = 0
    reads: int = 0
    writes: int = 0


_IO_TRACKERS: List[StoreIO] = []


@contextmanager
def track_store_io() -> Iterator[StoreIO]:
    """Count the bytes the codec reads/writes inside the ``with`` block."""
    tracker = StoreIO()
    _IO_TRACKERS.append(tracker)
    try:
        yield tracker
    finally:
        _IO_TRACKERS.remove(tracker)


def _note_read(count: int) -> None:
    for tracker in _IO_TRACKERS:
        tracker.bytes_read += count
        tracker.reads += 1


def _note_write(count: int) -> None:
    for tracker in _IO_TRACKERS:
        tracker.bytes_written += count
        tracker.writes += 1


def read_file_bytes(path: Path) -> bytes:
    """Read a whole file (instrumented)."""
    data = Path(path).read_bytes()
    _note_read(len(data))
    return data


def read_file_range(path: Path, start: int) -> bytes:
    """Read a file from byte ``start`` to its end (instrumented)."""
    with open(path, "rb") as handle:
        handle.seek(start)
        data = handle.read()
    _note_read(len(data))
    return data


def read_first_line(path: Path) -> bytes:
    """Read the first line of a file (header peek, instrumented)."""
    with open(path, "rb") as handle:
        data = handle.readline()
    _note_read(len(data))
    return data


def append_file_bytes(path: Path, data: bytes) -> int:
    """Append ``data`` to ``path`` in one write and fsync it (instrumented)."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    _note_write(len(data))
    return len(data)


def replace_file_bytes(path: Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` (same-dir tmp, instrumented).

    Stale temporaries from previously killed writers matching the same
    naming pattern are removed — safe because callers hold the writer lock
    (no live writer can own them).
    """
    path = Path(path)
    for stale in path.parent.glob(f".{path.name}.tmp.*"):
        try:
            stale.unlink()
        except OSError:  # pragma: no cover - racing cleanup is best-effort
            pass
    temporary = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with open(temporary, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    finally:
        if temporary.exists():  # pragma: no cover - only on a failed replace
            temporary.unlink()
    _note_write(len(data))


# ----------------------------------------------------------------- encoding


def _encode_node(node) -> list:
    children = {
        encode_symbol(symbol): _encode_node(child)
        for symbol, child in node.children.items()
    }
    payload = node.payload
    if payload is not None and not isinstance(payload, _SCALARS):
        raise StoreError(
            f"cannot persist trie payload {payload!r} of type "
            f"{type(payload).__name__}: payloads must be JSON scalars"
        )
    encoded = [payload, children]
    if node.terminal:
        encoded.append(1)
    return encoded


def _encode_namespace_key(key) -> list:
    for part in key:
        if not isinstance(part, _SCALARS):
            raise StoreError(
                f"cannot persist namespace key part {part!r} of type "
                f"{type(part).__name__}: keys must be tuples of JSON scalars"
            )
    return list(key)


def encode_snapshot_entries(store) -> list:
    """Render a store's namespaces as the snapshot-line entry list."""
    return [
        {"key": _encode_namespace_key(namespace.key), "trie": _encode_node(namespace._root)}
        for namespace in (store._namespaces[key] for key in store.namespaces())
    ]


def encode_store(store) -> dict:
    """Render a store as one self-contained JSON document (v1 layout).

    Kept for introspection and the v1 fixtures; on-disk persistence goes
    through :func:`write_snapshot_file` / :func:`append_delta` instead.
    """
    return {
        "format": STORE_FORMAT,
        "version": 1,
        "namespaces": encode_snapshot_entries(store),
    }


def encode_delta_record(key, word, payloads, terminal: bool) -> list:
    """Render one replayable ``record()`` call as a delta-line entry."""
    for payload in payloads:
        if payload is not None and not isinstance(payload, _SCALARS):
            raise StoreError(
                f"cannot persist trie payload {payload!r} of type "
                f"{type(payload).__name__}: payloads must be JSON scalars"
            )
    return [
        _encode_namespace_key(key),
        [encode_symbol(symbol) for symbol in word],
        list(payloads),
        1 if terminal else 0,
    ]


def encode_header(generation: int, extra: Optional[dict] = None) -> dict:
    """Render the v2 header line."""
    header = {"format": STORE_FORMAT, "version": STORE_VERSION, "generation": generation}
    if extra:
        header.update(extra)
    return header


def render_snapshot(store, generation: int, extra: Optional[dict] = None) -> bytes:
    """Render the full header + snapshot byte image of a store."""
    header = json.dumps(encode_header(generation, extra), separators=(",", ":"))
    snapshot = json.dumps(
        {"snapshot": encode_snapshot_entries(store)}, separators=(",", ":")
    )
    return (header + "\n" + snapshot + "\n").encode()


def render_delta(records: Sequence[tuple]) -> bytes:
    """Render journal records ``(key, word, payloads, terminal)`` as one delta line."""
    encoded = [
        encode_delta_record(key, word, payloads, terminal)
        for key, word, payloads, terminal in records
    ]
    return (json.dumps({"delta": encoded}, separators=(",", ":")) + "\n").encode()


def write_snapshot_file(
    path: Path, store, generation: int, extra: Optional[dict] = None
) -> int:
    """Atomically write a compact snapshot; return the bytes written."""
    data = render_snapshot(store, generation, extra)
    replace_file_bytes(path, data)
    return len(data)


def append_delta(path: Path, records: Sequence[tuple]) -> int:
    """Append one delta line holding ``records``; return the bytes appended."""
    return append_file_bytes(path, render_delta(records))


# ----------------------------------------------------------------- decoding


def is_store_document(raw: object) -> bool:
    """True when parsed JSON looks like a native whole-file store document."""
    return isinstance(raw, dict) and raw.get("format") == STORE_FORMAT


def _corrupt(path: Path, problem: str) -> StoreCorruptionError:
    return StoreCorruptionError(
        f"prefix store file {path} is corrupted: {problem}; delete it to "
        "start with an empty store"
    )


def _decode_stored_symbol(path: Path, text: str) -> Hashable:
    """:func:`decode_symbol` for a symbol read from ``path``; a payload its
    decoder rejects is corruption, like any other damaged byte."""
    try:
        return decode_symbol(text)
    except (ValueError, TypeError) as exc:
        raise _corrupt(path, f"undecodable symbol {text!r} ({exc})") from exc


def _decode_node(path: Path, namespace, node, depth: int, encoded) -> None:
    """Merge one encoded node (and its subtree) into the live ``node``.

    Works directly on the trie nodes (no per-node root walk), so reloading
    a store is linear in its node count.
    """
    from repro.store.prefix_store import _StoreNode

    if (
        not isinstance(encoded, list)
        or len(encoded) not in (2, 3)
        or not isinstance(encoded[1], dict)
    ):
        raise _corrupt(path, f"malformed trie node at depth {depth}")
    payload, children = encoded[0], encoded[1]
    if payload is not None and not isinstance(payload, _SCALARS):
        raise _corrupt(path, f"non-scalar payload at depth {depth}")
    if payload is not None:
        if node.payload is None:
            node.payload = payload
        elif node.payload != payload:
            raise _corrupt(
                path,
                f"payload conflict at depth {depth}: {node.payload!r} vs {payload!r}",
            )
    if len(encoded) == 3 and not node.terminal:
        node.terminal = True
        namespace._entries += 1
    for symbol_text, child_encoded in children.items():
        symbol = _decode_stored_symbol(path, symbol_text)
        child = node.children.get(symbol)
        if child is None:
            child = _StoreNode()
            node.children[symbol] = child
            namespace._nodes += 1
        _decode_node(path, namespace, child, depth + 1, child_encoded)


def _decode_namespace_entries(path: Path, entries, store) -> None:
    """Populate ``store`` from a snapshot entry list (v1 ``namespaces`` /
    v2 ``snapshot``)."""
    if not isinstance(entries, list):
        raise _corrupt(path, "missing or malformed namespaces list")
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or "key" not in entry or "trie" not in entry:
            raise _corrupt(path, f"malformed namespace entry {index}")
        key = entry["key"]
        if not isinstance(key, list):
            raise _corrupt(path, f"malformed namespace key at entry {index}")
        namespace = store.namespace(tuple(key))
        _decode_node(path, namespace, namespace._root, 0, entry["trie"])


def load_store_document(path: Path, raw: dict, store) -> None:
    """Populate ``store`` from a parsed v1 whole-file document (structure-checked)."""
    version = raw.get("version")
    if not isinstance(version, int):
        raise _corrupt(path, f"missing or non-integer version field ({version!r})")
    if version > STORE_VERSION:
        raise StoreCorruptionError(
            f"prefix store file {path} has format version {version}, but this "
            f"build reads up to version {STORE_VERSION}; upgrade the library "
            "or delete the file"
        )
    if version == STORE_VERSION:
        raise _corrupt(
            path,
            "a version-2 store is an append log, not a whole-file document",
        )
    _decode_namespace_entries(path, raw.get("namespaces"), store)


# ------------------------------------------------------------ v2 log parsing


@dataclass
class DeltaRecord:
    """One decoded, replayable delta record."""

    key: tuple
    word: tuple
    payloads: tuple
    terminal: bool


@dataclass
class LoadReport:
    """What a load (or tail catch-up) actually recovered from a file.

    ``valid_end`` is the byte offset of the end of the last intact line —
    the offset appends must continue from (after truncating the torn
    tail, which only writers holding the lock do).
    """

    version: int = STORE_VERSION
    generation: int = 0
    snapshot_end: int = 0
    valid_end: int = 0
    recovered_records: int = 0
    discarded_bytes: int = 0
    migrated: bool = False
    header_extra: dict = field(default_factory=dict)


def decode_delta_entry(path: Path, entry) -> DeltaRecord:
    """Validate and decode one delta-line entry into a :class:`DeltaRecord`."""
    if (
        not isinstance(entry, list)
        or len(entry) != 4
        or not isinstance(entry[0], list)
        or not isinstance(entry[1], list)
        or not isinstance(entry[2], list)
        or entry[3] not in (0, 1)
        or len(entry[1]) != len(entry[2])
    ):
        raise _corrupt(path, "malformed delta record")
    key, symbols, payloads, terminal = entry
    for part in key:
        if not isinstance(part, _SCALARS):
            raise _corrupt(path, "non-scalar namespace key part in delta record")
    for symbol in symbols:
        if not isinstance(symbol, str):
            raise _corrupt(path, "non-string symbol in delta record")
    for payload in payloads:
        if payload is not None and not isinstance(payload, _SCALARS):
            raise _corrupt(path, "non-scalar payload in delta record")
    return DeltaRecord(
        key=tuple(key),
        word=tuple(_decode_stored_symbol(path, symbol) for symbol in symbols),
        payloads=tuple(payloads),
        terminal=bool(terminal),
    )


def _parse_delta_line(path: Path, line: bytes) -> List[DeltaRecord]:
    """Parse one complete delta line; raise ``StoreCorruptionError`` if invalid."""
    try:
        parsed = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _corrupt(path, f"unparseable delta line ({exc})") from exc
    if not isinstance(parsed, dict) or "delta" not in parsed or not isinstance(
        parsed["delta"], list
    ):
        raise _corrupt(path, "log line is not a delta record batch")
    return [decode_delta_entry(path, entry) for entry in parsed["delta"]]


def parse_delta_tail(
    path: Path, data: bytes, base_offset: int
) -> Tuple[List[DeltaRecord], int, int]:
    """Parse append-region bytes into records, tolerating a torn final line.

    ``data`` starts at file offset ``base_offset`` (which must sit on a
    line boundary).  Returns ``(records, valid_end, discarded_bytes)``
    where ``valid_end`` is the absolute offset of the end of the last
    intact line.  A torn or invalid *final* line is dropped (that is the
    crash signature of a killed append); an invalid line followed by more
    data means real corruption and raises
    :class:`~repro.errors.StoreCorruptionError`.
    """
    records: List[DeltaRecord] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            # Torn tail: an append that never completed its line.
            return records, base_offset + offset, len(data) - offset
        line = data[offset : newline + 1]
        try:
            records.extend(_parse_delta_line(path, line))
        except StoreCorruptionError:
            if newline + 1 >= len(data):
                # Final line is complete but invalid: a partially flushed
                # append whose newline survived.  Drop it like a torn tail.
                return records, base_offset + offset, len(line)
            raise
        offset = newline + 1
    return records, base_offset + offset, 0


def parse_store_data(path: Path, data: bytes, store) -> LoadReport:
    """Decode a store file image (v1 or v2) into ``store``.

    Returns a :class:`LoadReport`; raises
    :class:`~repro.errors.StoreCorruptionError` on structural damage and
    :class:`~repro.errors.NonDeterminismError` when delta records disagree
    with each other (two unlocked writers raced, or the measured system was
    genuinely non-deterministic).
    """
    if not data.strip():
        raise _corrupt(path, "file is empty")
    first_newline = data.find(b"\n")
    header_bytes = data if first_newline == -1 else data[:first_newline]
    try:
        header = json.loads(header_bytes)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreCorruptionError(
            f"prefix store file {path} is unreadable or corrupted ({exc}); "
            "delete it to start with an empty store"
        ) from exc
    if not is_store_document(header):
        raise _corrupt(path, "not a repro-prefix-store document")
    version = header.get("version")
    if not isinstance(version, int):
        raise _corrupt(path, f"missing or non-integer version field ({version!r})")
    if version > STORE_VERSION:
        raise StoreCorruptionError(
            f"prefix store file {path} has format version {version}, but this "
            f"build reads up to version {STORE_VERSION}; upgrade the library "
            "or delete the file"
        )

    if version < STORE_VERSION:
        # v1: one whole-file JSON document (never contains a newline).
        if first_newline != -1 and data[first_newline:].strip():
            raise _corrupt(path, "trailing data after a version-1 document")
        load_store_document(path, header, store)
        return LoadReport(
            version=version,
            snapshot_end=len(data),
            valid_end=len(data),
            migrated=True,
        )

    if first_newline == -1:
        raise _corrupt(path, "version-2 header line is missing its snapshot")
    generation = header.get("generation")
    if not isinstance(generation, int):
        raise _corrupt(path, f"missing or non-integer generation ({generation!r})")
    header_extra = {
        name: value
        for name, value in header.items()
        if name not in ("format", "version", "generation")
    }

    snapshot_start = first_newline + 1
    snapshot_newline = data.find(b"\n", snapshot_start)
    if snapshot_newline == -1:
        # The header+snapshot pair is written atomically; a tear here means
        # the file was damaged outside the append protocol.
        raise _corrupt(path, "truncated snapshot line")
    try:
        snapshot = json.loads(data[snapshot_start : snapshot_newline + 1])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _corrupt(path, f"unparseable snapshot line ({exc})") from exc
    if not isinstance(snapshot, dict) or "snapshot" not in snapshot:
        raise _corrupt(path, "second log line is not a snapshot")
    _decode_namespace_entries(path, snapshot["snapshot"], store)
    snapshot_end = snapshot_newline + 1

    records, valid_end, discarded = parse_delta_tail(
        path, data[snapshot_end:], snapshot_end
    )
    for record in records:
        store.namespace(record.key).record(
            record.word, record.payloads, terminal=record.terminal
        )
    return LoadReport(
        version=version,
        generation=generation,
        snapshot_end=snapshot_end,
        valid_end=valid_end,
        recovered_records=len(records),
        discarded_bytes=discarded,
        header_extra=header_extra,
    )


def read_header(path: Path) -> Tuple[int, int]:
    """Read ``(version, generation)`` from a store file's first line.

    Generation is 0 for v1 files.  Raises
    :class:`~repro.errors.StoreCorruptionError` when the header is damaged.
    """
    line = read_first_line(path)
    if not line.strip():
        raise _corrupt(path, "file is empty")
    try:
        header = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _corrupt(path, f"unparseable header line ({exc})") from exc
    if not is_store_document(header):
        raise _corrupt(path, "not a repro-prefix-store document")
    version = header.get("version")
    if not isinstance(version, int):
        raise _corrupt(path, f"missing or non-integer version field ({version!r})")
    generation = header.get("generation", 0)
    if not isinstance(generation, int):
        raise _corrupt(path, f"missing or non-integer generation ({generation!r})")
    return version, generation


def load_store_file(path: Path, store) -> LoadReport:
    """Load ``path`` into ``store``; raise :class:`StoreCorruptionError` on damage.

    Nothing is partially loaded: when loading fails the store is returned
    to the namespaces it held before the call.  Loading is lock-free and
    tolerates a concurrent appender: a torn final line is dropped (see
    :class:`LoadReport`), because it is either a crash leftover or an
    append still in flight — both mean "not yet durable".
    """
    try:
        data = read_file_bytes(path)
    except OSError as exc:
        raise StoreCorruptionError(
            f"prefix store file {path} is unreadable or corrupted ({exc}); "
            "delete it to start with an empty store"
        ) from exc
    snapshot = dict(store._namespaces)
    try:
        return parse_store_data(path, data, store)
    except Exception:
        store._namespaces.clear()
        store._namespaces.update(snapshot)
        raise
