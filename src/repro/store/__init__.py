"""Shared prefix-trie storage: the substrate under every response cache.

Public surface:

* :class:`~repro.store.prefix_store.PrefixStore` /
  :class:`~repro.store.prefix_store.PrefixNamespace` — the namespaced
  symbol-keyed trie both the learning engine's ``ResponseTrie`` and the
  CacheQuery frontend's ``QueryCache`` are views over.  ``PrefixStore(path)``
  binds a store to one append-log file, the one way to persist or share a
  corpus (the ``--cache-path`` of the experiment CLI): processes sharing
  it serialise their saves on the file's ``fcntl`` lock;
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
    register_symbol_codec,
    track_store_io,
)
from repro.store.prefix_store import AUTO_COMPACT_MIN_BYTES, PrefixNamespace, PrefixStore

__all__ = [
    "AUTO_COMPACT_MIN_BYTES",
    "LoadReport",
    "PrefixNamespace",
    "PrefixStore",
    "STORE_FORMAT",
    "STORE_VERSION",
    "StoreIO",
    "decode_symbol",
    "encode_symbol",
    "register_symbol_codec",
    "track_store_io",
]
