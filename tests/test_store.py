"""Tests for the shared prefix store: trie semantics, codec, persistence.

Covers :mod:`repro.store.prefix_store` (namespaces, partial payloads,
conflict detection, entry iteration), the versioned on-disk codec of
:mod:`repro.store.codec` (round-trip, symbol registry, atomic writes,
corruption diagnostics, version gating) and the store views — the learning
``ResponseTrie`` and the frontend ``QueryCache`` sharing one store.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import weakref

import pytest

from repro.cachequery.querycache import QueryCache
from repro.core.alphabet import EVICT, Line
from repro.errors import NonDeterminismError, StoreCorruptionError, StoreError
from repro.learning.oracles import CachedMembershipOracle, FunctionOracle
from repro.learning.query_engine import ResponseTrie
from repro.store import (
    STORE_FORMAT,
    STORE_VERSION,
    PrefixStore,
    decode_symbol,
    encode_symbol,
)


class TestPrefixNamespace:
    def test_record_and_lookup(self):
        ns = PrefixStore().namespace(("t",))
        ns.record(("a", "b", "c"), (1, 2, 3))
        assert ns.lookup(("a", "b", "c")) == (1, 2, 3)
        assert ns.lookup(("a", "b")) == (1, 2)  # prefixes ride along
        assert ns.lookup(("a", "x")) is None
        assert ns.node_count == 3
        assert ns.entry_count == 1

    def test_lookup_prefix(self):
        ns = PrefixStore().namespace(("t",))
        ns.record(("a", "b"), ("x", "y"))
        assert ns.lookup_prefix(("a", "b", "c")) == (2, ("x", "y"))
        assert ns.lookup_prefix(("z",)) == (0, ())

    def test_partial_payloads_fill_in(self):
        ns = PrefixStore().namespace(("t",))
        ns.record(("a", "b"), (None, "y"))
        assert ns.lookup(("a", "b")) == (None, "y")
        ns.record(("a", "b"), ("x", None))  # fills the hole, keeps "y"
        assert ns.lookup(("a", "b")) == ("x", "y")

    def test_conflicting_payload_raises_non_determinism(self):
        ns = PrefixStore().namespace(("t",))
        ns.record(("a", "b"), ("x", "y"))
        with pytest.raises(NonDeterminismError):
            ns.record(("a", "b"), ("x", "z"))

    def test_membership_only_record_and_covers(self):
        ns = PrefixStore().namespace(("t",))
        ns.record(("a", "b", "c"))  # no payloads: pure marking
        assert ns.covers(("a",)) and ns.covers(("a", "b", "c"))
        assert not ns.covers(("a", "b", "c", "d"))
        assert ns.lookup(("a", "b", "c")) == (None, None, None)

    def test_payload_length_mismatch_rejected(self):
        ns = PrefixStore().namespace(("t",))
        with pytest.raises(StoreError):
            ns.record(("a", "b"), ("x",))

    def test_empty_word_needs_explicit_entry(self):
        ns = PrefixStore().namespace(("t",))
        assert ns.lookup(()) is None
        ns.record((), ())
        assert ns.lookup(()) == ()
        assert ns.entry_count == 1

    def test_iter_entries_yields_terminal_words(self):
        ns = PrefixStore().namespace(("t",))
        ns.record(("a", "b"), (1, 2))
        ns.record(("a",), (1,))
        ns.record(("c",), (3,), terminal=False)
        entries = dict(ns.iter_entries())
        assert entries == {("a",): (1,), ("a", "b"): (1, 2)}

    def test_recording_same_entry_twice_counts_once(self):
        ns = PrefixStore().namespace(("t",))
        assert ns.record(("a",), (1,)) is True
        assert ns.record(("a",), (1,)) is False
        assert ns.entry_count == 1

    def test_clear(self):
        ns = PrefixStore().namespace(("t",))
        ns.record(("a", "b"), (1, 2))
        ns.clear()
        assert ns.node_count == 0 and ns.entry_count == 0
        assert ns.lookup(("a",)) is None

    def test_merge_grafts_fills_and_counts(self):
        target = PrefixStore().namespace(("t",))
        target.record(("a", "b"), (1, None))
        other = PrefixStore().namespace(("t",))
        other.record(("a", "b"), (None, 2))  # fills the payload hole
        other.record(("a", "c", "d"), (1, 3, 4))  # grafted subtree
        target.merge(other)
        assert target.lookup(("a", "b")) == (1, 2)
        assert target.lookup(("a", "c", "d")) == (1, 3, 4)
        assert target.node_count == 4
        assert target.entry_count == 2  # (a,b) counted once despite both sides

    def test_merge_conflict_raises_and_keeps_stored_payload(self):
        target = PrefixStore().namespace(("t",))
        target.record(("a",), ("x",))
        other = PrefixStore().namespace(("t",))
        other.record(("a",), ("y",))
        with pytest.raises(NonDeterminismError):
            target.merge(other)
        assert target.lookup(("a",)) == ("x",)


class TestPrefixStore:
    def test_namespaces_are_independent(self):
        store = PrefixStore()
        store.namespace(("one",)).record(("a",), ("x",))
        assert store.namespace(("two",)).lookup(("a",)) is None
        assert set(store.namespaces()) == {("one",), ("two",)}
        assert store.node_count == 1

    def test_statistics(self):
        store = PrefixStore()
        store.namespace(("n",)).record(("a", "b"), ("x", "y"))
        stats = store.statistics()
        assert stats["namespaces"] == 1
        assert stats["entries"] == 1
        assert stats["nodes"] == 2
        assert stats["path"] is None

    def test_drop_namespace(self):
        store = PrefixStore()
        store.namespace(("n",)).record(("a",), ("x",))
        store.drop_namespace(("n",))
        store.drop_namespace(("missing",))  # no-op
        assert store.namespaces() == ()


class TestReferenceCounting:
    """A namespace holds its store weakly, so tries are freed by reference
    counting rather than waiting for a gen-2 collection."""

    def test_dropping_an_engine_frees_its_store(self):
        gc.disable()
        try:
            engine = CachedMembershipOracle(FunctionOracle(lambda word: tuple(word)))
            engine.output_query_batch([("a", "b"), ("c",)])
            store = weakref.ref(engine._trie.store)
            del engine
            assert store() is None
        finally:
            gc.enable()

    def test_namespace_outliving_its_store_stops_journaling(self, tmp_path):
        store = PrefixStore(str(tmp_path / "corpus.store"))
        namespace = store.namespace(("n",))
        namespace.record(("a",), ("x",))
        assert store.pending_records == 1
        del store
        namespace.record(("b",), ("y",))  # no store left to journal to
        namespace.clear()
        assert namespace.lookup(("b",)) is None

    def test_store_with_namespaces_survives_pickling(self, tmp_path):
        # Pool workers receive stores inside pickled cache interfaces.
        store = PrefixStore(str(tmp_path / "corpus.store"))
        store.namespace(("n",)).record(("a", "b"), ("x", "y"))
        clone = pickle.loads(pickle.dumps(store))
        namespace = clone.namespace(("n",))
        assert namespace.lookup(("a", "b")) == ("x", "y")
        assert clone.pending_records == 1
        namespace.record(("c",), ("z",))
        assert clone.pending_records == 2  # journals to the unpickled store
        assert store.pending_records == 1


class TestCodecRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        path = tmp_path / "store.json"
        store = PrefixStore(str(path))
        ns = store.namespace(("mbl", "L2", 0, 63))
        ns.record(("A!", "B", "C"), (None, "Hit", "Miss"))
        ns.record(("A!", "B"), (None, "Hit"))
        other = store.namespace(("learning", "sim", "LRU", 2))
        other.record((Line(0), EVICT), ("-", 1))
        store.save()

        reloaded = PrefixStore(str(path))
        rns = reloaded.namespace(("mbl", "L2", 0, 63))
        assert rns.lookup(("A!", "B", "C")) == (None, "Hit", "Miss")
        assert rns.entry_count == 2
        rother = reloaded.namespace(("learning", "sim", "LRU", 2))
        assert rother.lookup((Line(0), EVICT)) == ("-", 1)
        assert reloaded.node_count == store.node_count
        assert reloaded.entry_count == store.entry_count

    def test_store_file_in_missing_directory_is_store_error(self, tmp_path):
        # Checked when a single-file store is built, not at the first
        # save's lock file.
        missing = tmp_path / "missing" / "store.json"
        with pytest.raises(StoreError) as error:
            PrefixStore(str(missing))
        assert str(missing.parent) in str(error.value)

    def test_save_without_path_is_noop(self):
        PrefixStore().save()

    def test_atomic_write_leaves_no_temporaries(self, tmp_path):
        path = tmp_path / "store.json"
        store = PrefixStore(str(path))
        store.namespace(("n",)).record(("a",), (1,))
        store.save()
        store.save()  # idempotent
        # Only the store and its writer-lock sibling — no .tmp leftovers.
        assert sorted(entry.name for entry in tmp_path.iterdir()) == [
            "store.json",
            "store.json.lock",
        ]

    def test_symbol_codec_round_trip(self):
        for symbol in ("A", "A!", "\x01weird", 7, True, False, Line(3), EVICT):
            assert decode_symbol(encode_symbol(symbol)) == symbol

    def test_unregistered_symbol_type_rejected_on_save(self, tmp_path):
        store = PrefixStore(str(tmp_path / "s.json"))
        store.namespace(("n",)).record(((1, 2),), ("x",))  # tuple symbol
        with pytest.raises(StoreError, match="symbol"):
            store.save()

    def test_non_scalar_payload_rejected_on_save(self, tmp_path):
        store = PrefixStore(str(tmp_path / "s.json"))
        store.namespace(("n",)).record(("a",), ((1, 2),))
        with pytest.raises(StoreError, match="payload"):
            store.save()


class TestCodecCorruption:
    @pytest.mark.parametrize(
        "content",
        [
            "",
            "{ not json",
            "[1, 2, 3]",
            '{"format": "something-else"}',
            '{"format": "repro-prefix-store"}',
            '{"format": "repro-prefix-store", "version": 1}',
            '{"format": "repro-prefix-store", "version": 1, "namespaces": [{"key": ["n"]}]}',
            '{"format": "repro-prefix-store", "version": 1, '
            '"namespaces": [{"key": ["n"], "trie": [null]}]}',
        ],
        ids=[
            "empty",
            "truncated",
            "not-a-document",
            "wrong-magic",
            "missing-version",
            "missing-namespaces",
            "namespace-without-trie",
            "malformed-node",
        ],
    )
    def test_corrupted_file_raises_with_path(self, tmp_path, content):
        path = tmp_path / "store.json"
        path.write_text(content)
        with pytest.raises(StoreCorruptionError, match=str(path)):
            PrefixStore(str(path))

    def test_future_version_rejected_with_upgrade_hint(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(
            json.dumps(
                {"format": STORE_FORMAT, "version": STORE_VERSION + 1, "namespaces": []}
            )
        )
        with pytest.raises(StoreCorruptionError, match="version"):
            PrefixStore(str(path))

    def test_failed_load_leaves_store_empty(self, tmp_path):
        from repro.store.codec import load_store_file

        path = tmp_path / "store.json"
        path.write_text('{"format": "repro-prefix-store", "version": "x"}')
        store = PrefixStore()
        with pytest.raises(StoreCorruptionError):
            load_store_file(path, store)
        assert store.namespaces() == ()
        # All or nothing: a valid first namespace followed by a malformed
        # one leaves nothing behind, not even in a store already in use.
        path.write_text(
            json.dumps(
                {
                    "format": STORE_FORMAT,
                    "version": 1,
                    "namespaces": [
                        {"key": ["mbl", "L1", 0, 0], "trie": [None, {"A": ["Hit", {}, 1]}]},
                        {"key": ["mbl", "L1", 0, 1], "trie": [None]},
                    ],
                }
            )
        )
        store.namespace(("learning", "x")).record(("a",), (1,))
        with pytest.raises(StoreCorruptionError, match="malformed"):
            load_store_file(path, store)
        assert store.namespaces() == (("learning", "x"),)
        assert store.node_count == 1
        with pytest.raises(StoreCorruptionError, match="malformed"):
            PrefixStore(str(path))


class TestSharedStoreViews:
    def test_one_store_backs_both_caching_stacks(self):
        """The acceptance shape: QueryCache and ResponseTrie in one store."""
        store = PrefixStore()
        cache = QueryCache(store=store)
        trie = ResponseTrie(store=store, namespace=("learning", "x"))
        cache.put("L2", 0, 5, "A B?", ("Hit",))
        trie.insert((Line(0), EVICT), ("-", 1))
        assert cache.get("L2", 0, 5, "A B?") == ("Hit",)
        assert trie.lookup((Line(0), EVICT)) == ("-", 1)
        # Both live in the same store, in disjoint namespaces.
        assert store.node_count == 4
        assert len(cache) == 1  # the learning namespace is not a cache entry
        assert len(trie) == 2

    def test_views_round_trip_through_one_file(self, tmp_path):
        path = tmp_path / "shared.json"
        store = PrefixStore(str(path))
        cache = QueryCache(store=store)
        trie = ResponseTrie(store=store, namespace=("learning", "x"))
        cache.put("L1", 0, 0, "A? B?", ("Hit", "Miss"))
        trie.insert((Line(1),), ("-",))
        store.save()

        reloaded = PrefixStore(str(path))
        assert QueryCache(store=reloaded).get("L1", 0, 0, "A? B?") == ("Hit", "Miss")
        assert ResponseTrie(store=reloaded, namespace=("learning", "x")).lookup(
            (Line(1),)
        ) == ("-",)

    def test_response_trie_store_is_smaller_than_flat_entries(self):
        """Prefix sharing: deep word families reuse nodes instead of entries."""
        trie = ResponseTrie()
        base = tuple(f"s{i}" for i in range(20))
        for extra in range(30):
            trie.insert(base + (f"e{extra}",), tuple(range(21)))
        # A flat per-word store would hold 30 * 21 cells; the trie holds
        # 20 shared prefix nodes + 30 leaves.
        assert len(trie) == 50
