"""Shared prefix-trie storage: the substrate under every response cache.

Public surface:

* :class:`~repro.store.prefix_store.PrefixStore` /
  :class:`~repro.store.prefix_store.PrefixNamespace` — the namespaced
  symbol-keyed trie both the learning engine's ``ResponseTrie`` and the
  CacheQuery frontend's ``QueryCache`` are views over;
* :class:`~repro.store.shards.ShardedStore` / :func:`~repro.store.shards.open_store`
  — directory-backed corpora with one append-log file (and one writer
  lock) per namespace key, and the path-polymorphic opener behind
  ``--cache-path``, the one way to persist or share a corpus: processes
  sharing one serialise their saves on each file's ``fcntl`` lock;
* the codec helpers of :mod:`repro.store.codec` — the version-2 append-log
  persistence (v1 read-compatible) with corruption diagnostics, the
  symbol registry for non-string trie symbols, and the
  :func:`~repro.store.codec.track_store_io` byte-count instrumentation
  the O(delta) regression tests assert on.
"""

from repro.store.codec import (
    LoadReport,
    STORE_FORMAT,
    STORE_VERSION,
    StoreIO,
    decode_symbol,
    encode_symbol,
    is_store_document,
    register_symbol_codec,
    track_store_io,
)
from repro.store.prefix_store import AUTO_COMPACT_MIN_BYTES, PrefixNamespace, PrefixStore
from repro.store.shards import ShardedStore, open_store, shard_filename

__all__ = [
    "AUTO_COMPACT_MIN_BYTES",
    "LoadReport",
    "PrefixNamespace",
    "PrefixStore",
    "STORE_FORMAT",
    "STORE_VERSION",
    "ShardedStore",
    "StoreIO",
    "decode_symbol",
    "encode_symbol",
    "is_store_document",
    "open_store",
    "register_symbol_codec",
    "shard_filename",
    "track_store_io",
]
