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
import random
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
from repro.store.prefix_store import _StoreNode


class TestPrefixNamespace:
    def test_record_and_lookup(self):
        ns = PrefixStore().namespace(("t",))
        ns.record(("a", "b", "c"), (1, 2, 3))
        assert ns.lookup(("a", "b", "c")) == (1, 2, 3)
        assert ns.lookup(("a", "b")) == (1, 2)  # prefixes ride along
        assert ns.lookup(("a", "x")) is None
        assert ns.node_count == 3
        assert ns.entry_count == 1

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
        assert ns.lookup(("a",)) is not None and ns.lookup(("a", "b", "c")) is not None
        assert ns.lookup(("a", "b", "c", "d")) is None
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


def _reference_record(namespace, word, payloads=None, *, terminal=True):
    """``PrefixNamespace.record`` as it was before it stopped re-walking:
    one child probe per symbol, the stored payloads gathered on the way,
    and the journal reached through the owner whenever something changed."""
    word = tuple(word)
    if payloads is None:
        payloads = (None,) * len(word)
    else:
        payloads = tuple(payloads)
        if len(payloads) != len(word):
            raise StoreError("payload count")
    node = namespace._root
    stored = []
    changed = False
    for position, symbol in enumerate(word):
        child = node.children.get(symbol)
        if child is None:
            child = _StoreNode()
            child.payload = payloads[position]
            node.children[symbol] = child
            namespace._nodes += 1
            changed = True
        elif payloads[position] is not None:
            if child.payload is None:
                child.payload = payloads[position]
                changed = True
            elif child.payload != payloads[position]:
                raise NonDeterminismError(
                    word[: position + 1], stored + [child.payload], payloads[: position + 1]
                )
        stored.append(child.payload)
        node = child
    new_entry = terminal and not node.terminal
    if new_entry:
        node.terminal = True
        namespace._entries += 1
        changed = True
    owner = namespace._live_owner() if changed else None
    if owner is not None:
        owner._journal_record(namespace.key, word, payloads, terminal)
    return new_entry


def _trie_nodes(namespace):
    """Every node of a namespace as ``(word, payload, terminal)``, sorted."""
    nodes = []
    stack = [((), namespace._root)]
    while stack:
        word, node = stack.pop()
        nodes.append((word, node.payload, node.terminal))
        for symbol, child in node.children.items():
            stack.append((word + (symbol,), child))
    return sorted(nodes, key=repr)


def _record_script(seed):
    """Seeded ``(word, payloads, terminal)`` records over a small alphabet:
    fresh paths with ``None`` holes and pure marks, then, for stored words,
    a conflict at every position with the holes before it filled in."""
    rng = random.Random(f"record-{seed}")
    stored = {}
    script = []
    for _ in range(40):
        word = tuple(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        if rng.random() < 0.15:
            payloads = None
        else:
            payloads = tuple(
                None if rng.random() < 0.3 else rng.randrange(3) for _ in word
            )
        script.append((word, payloads, rng.random() < 0.7))
        if payloads is not None:
            known = stored.setdefault(word, [None] * len(word))
            for position, payload in enumerate(payloads):
                if payload is not None and known[position] is None:
                    known[position] = payload
    for word, known in sorted(stored.items()):
        for position in range(len(word)):
            payloads = [
                rng.randrange(3) if payload is None else rng.choice((payload, None))
                for payload in known[:position]
            ]
            payloads.append(3)  # never recorded: conflicts with a known payload
            payloads.extend(rng.choice((None, 0)) for _ in word[position + 1:])
            script.append((word, tuple(payloads), rng.random() < 0.5))
    return script


def _replay(record, namespace, script):
    """Apply ``script`` through ``record``; return each record's outcome and
    the namespace's sizes after it."""
    outcomes = []
    for word, payloads, terminal in script:
        try:
            outcome = ("new", record(namespace, word, payloads, terminal=terminal))
        except NonDeterminismError as error:
            outcome = ("conflict", error.query, error.first, error.second)
        outcomes.append((outcome, namespace.node_count, namespace.entry_count))
    return outcomes


class TestRecordMatchesReference:
    """``PrefixNamespace.record`` walks only the stored part of a path and
    grows the new tail without probing it; it must behave exactly as the
    symbol-by-symbol walk it replaced."""

    @pytest.mark.parametrize("seed", range(12))
    def test_in_memory_store(self, seed):
        script = _record_script(seed)
        assert any(payloads is None for _, payloads, _ in script)
        stores = [PrefixStore(), PrefixStore()]
        namespaces = [store.namespace(("t",)) for store in stores]
        outcomes = [
            _replay(record, namespace, script)
            for record, namespace in zip(
                (type(namespaces[0]).record, _reference_record), namespaces
            )
        ]
        assert outcomes[0] == outcomes[1]
        assert sum(outcome[0] == "conflict" for outcome, _, _ in outcomes[0]) >= 10
        assert _trie_nodes(namespaces[0]) == _trie_nodes(namespaces[1])
        # A store without a file keeps no journal.
        assert [store.pending_records for store in stores] == [0, 0]

    @pytest.mark.parametrize("seed", range(4))
    def test_file_backed_store_journals_the_same_records(self, tmp_path, seed):
        script = _record_script(seed)
        stores = [PrefixStore(tmp_path / "new.json"), PrefixStore(tmp_path / "old.json")]
        namespaces = [store.namespace(("t",)) for store in stores]
        outcomes = [
            _replay(record, namespace, script)
            for record, namespace in zip(
                (type(namespaces[0]).record, _reference_record), namespaces
            )
        ]
        assert outcomes[0] == outcomes[1]
        assert _trie_nodes(namespaces[0]) == _trie_nodes(namespaces[1])
        assert stores[0].pending_records > 0
        assert stores[0]._journal == stores[1]._journal


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

    @pytest.mark.parametrize("spelling", ["existing", "trailing-separator"])
    def test_directory_path_is_store_error_naming_a_file(self, tmp_path, spelling):
        # A store is one file: a directory is refused when the store is
        # built, with the fix, not read as a corrupted store file, and a
        # path spelled as a directory is not created as a file.
        target = tmp_path if spelling == "existing" else tmp_path / "new"
        text = str(target) + ("" if spelling == "existing" else os.sep)
        with pytest.raises(StoreError) as error:
            PrefixStore(text)
        assert type(error.value) is StoreError
        assert "names a directory" in str(error.value)
        assert str(target / "store.json") in str(error.value)
        assert list(tmp_path.iterdir()) == []

    def test_header_field_of_a_former_shard_file_is_ignored(self, tmp_path):
        # Directory corpora stamped each file's namespace key into the v2
        # header; such a file opens, appends and compacts as a plain store.
        path = tmp_path / "old.shard"
        written = PrefixStore(str(path))
        written.namespace(("mbl", "L2", 0, 3)).record(("A", "B"), (None, "Hit"))
        written.save()
        header, rest = path.read_bytes().split(b"\n", 1)
        stamped = {**json.loads(header), "shard": ["mbl", "L2", 0, 3]}
        path.write_bytes(json.dumps(stamped).encode() + b"\n" + rest)

        store = PrefixStore(str(path))
        namespace = store.namespace(("mbl", "L2", 0, 3))
        assert namespace.lookup(("A", "B")) == (None, "Hit")
        namespace.record(("A", "C"), (None, "Miss"))
        store.save()
        assert PrefixStore(str(path)).namespace(("mbl", "L2", 0, 3)).entry_count == 2
        store.compact()
        assert "shard" not in json.loads(path.read_bytes().split(b"\n", 1)[0])

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
        cache.put_path("L2", 0, 5, ("A", "B"), (1,), ("Hit",))  # "A B?"
        trie.insert((Line(0), EVICT), ("-", 1))
        assert cache.get_path("L2", 0, 5, ("A", "B"), (1,)) == ("Hit",)
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
        cache.put_path("L1", 0, 0, ("A", "B"), (0, 1), ("Hit", "Miss"))  # "A? B?"
        trie.insert((Line(1),), ("-",))
        store.save()

        reloaded = PrefixStore(str(path))
        assert QueryCache(store=reloaded).get_path("L1", 0, 0, ("A", "B"), (0, 1)) == (
            "Hit",
            "Miss",
        )
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
