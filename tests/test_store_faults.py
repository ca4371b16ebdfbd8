"""Fault injection against the v2 append-log store.

The crash model the codec promises (see :mod:`repro.store.codec`):

* the header + snapshot pair is written atomically (tmp file +
  ``os.replace``), so damage there is genuine corruption and raises
  :class:`~repro.errors.StoreCorruptionError` — never a raw traceback;
* the delta tail is append-only, so a killed writer can only tear the
  *final* line; loading silently truncates to the valid prefix and
  reports what survived (``recovered_records``) and what was dropped
  (``discarded_bytes``);
* temporary files left by a killed compaction are ignored by readers and
  reaped by the next locked writer.

Every scenario here reopens the damaged file and asserts exactly one of
the two allowed outcomes: a clean load of every record up to the last
complete one, or ``StoreCorruptionError``.  The ``kill -9`` scenarios run
a real writer subprocess and terminate it without warning.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.learning.query_engine  # noqa: F401 - registers the Ln/Ev symbol codecs
from repro.core.alphabet import EVICT, Line
from repro.errors import StoreCorruptionError, StoreError
from repro.store import PrefixStore, track_store_io
from repro.store.codec import load_store_file

NS = ("mbl", "cpu", "L2", 0, 21)


def make_logged_store(path: Path, *, entries: int = 6, per_line: int = 2) -> PrefixStore:
    """A store file with a snapshot plus several delta lines."""
    store = PrefixStore(str(path))
    written = 0
    while written < entries:
        for _ in range(per_line):
            store.namespace(NS).record(
                (f"A{written}", "B"), (None, "Hit" if written % 2 else "Miss")
            )
            written += 1
        store.save()
    return store


def entry_words(store) -> set:
    return {word for word, _ in store.namespace(NS).iter_entries()}


class TestTornTails:
    def test_torn_final_line_truncates_to_valid_prefix(self, tmp_path):
        path = tmp_path / "store.json"
        make_logged_store(path)
        data = path.read_bytes()
        assert data.endswith(b"\n")
        path.write_bytes(data[:-9])  # tear the last append mid-line

        reopened = PrefixStore(str(path))
        report = reopened.load_report
        assert report.discarded_bytes > 0
        assert report.valid_end + report.discarded_bytes == len(data) - 9
        assert report.valid_end < len(data)
        # Every record up to the last complete line survived.
        assert entry_words(reopened) >= {("A0", "B"), ("A1", "B")}

    def test_reader_does_not_repair_but_writer_does(self, tmp_path):
        path = tmp_path / "store.json"
        make_logged_store(path)
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        torn_size = path.stat().st_size

        reader = PrefixStore(str(path))
        # Lock-free readers leave the file alone (the tear may be a
        # concurrent append still in flight).
        assert path.stat().st_size == torn_size

        writer = PrefixStore(str(path))
        writer.namespace(NS).record(("Z",), ("Hit",))
        writer.save()  # holds the lock: truncates the tear, then appends
        healed = PrefixStore(str(path))
        assert healed.load_report.discarded_bytes == 0
        assert ("Z",) in entry_words(healed)
        assert reader is not None  # the reader stayed usable throughout

    def test_complete_but_invalid_final_line_dropped(self, tmp_path):
        path = tmp_path / "store.json"
        make_logged_store(path)
        with open(path, "ab") as handle:
            handle.write(b'{"delta": [["broken"\n')  # complete line, bad JSON

        reopened = PrefixStore(str(path))
        assert reopened.load_report.discarded_bytes > 0
        assert entry_words(reopened) >= {("A0", "B")}

    def test_invalid_line_followed_by_valid_data_is_corruption(self, tmp_path):
        path = tmp_path / "store.json"
        make_logged_store(path)
        header, snapshot, *deltas = path.read_bytes().split(b"\n")
        assert len(deltas) >= 3  # at least two delta lines + trailing empty
        damaged = b"\n".join([header, snapshot, b"garbage" + deltas[0]] + deltas[1:])
        path.write_bytes(damaged)
        with pytest.raises(StoreCorruptionError):
            PrefixStore(str(path))

    def test_empty_tail_after_truncated_everything(self, tmp_path):
        """Tearing away the whole tail leaves exactly the snapshot."""
        path = tmp_path / "store.json"
        store = make_logged_store(path)
        snapshot_end = store.load_report.snapshot_end if store.load_report else None
        reopened = PrefixStore(str(path))
        snapshot_end = reopened.load_report.snapshot_end
        path.write_bytes(path.read_bytes()[: snapshot_end + 3])  # 3 stray bytes
        again = PrefixStore(str(path))
        assert again.load_report.discarded_bytes == 3
        assert again.load_report.recovered_records == 0
        assert again.entry_count > 0  # the snapshot itself


class TestSnapshotDamage:
    def test_truncated_snapshot_line_is_corruption(self, tmp_path):
        path = tmp_path / "store.json"
        make_logged_store(path)
        header, snapshot, _rest = path.read_bytes().split(b"\n", 2)
        path.write_bytes(header + b"\n" + snapshot[: len(snapshot) // 2])
        with pytest.raises(StoreCorruptionError):
            PrefixStore(str(path))

    def test_header_only_file_is_corruption(self, tmp_path):
        path = tmp_path / "store.json"
        make_logged_store(path)
        header = path.read_bytes().split(b"\n", 1)[0]
        path.write_bytes(header)
        with pytest.raises(StoreCorruptionError):
            PrefixStore(str(path))

    def test_empty_file_is_corruption(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_bytes(b"")
        with pytest.raises(StoreCorruptionError):
            PrefixStore(str(path))

    def test_future_version_rejected_with_upgrade_hint(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(
            '{"format":"repro-prefix-store","version":99,"generation":1}\n'
            '{"snapshot":[]}\n'
        )
        with pytest.raises(StoreCorruptionError, match="version 99"):
            PrefixStore(str(path))


class TestUndecodableSymbols:
    """A symbol payload its decoder rejects is damage like any other byte:
    corruption in the snapshot or mid-log, a dropped torn tail at the end."""

    BAD_SYMBOLS = pytest.mark.parametrize(
        "bad",
        ["\x01Ln:x", "\x01Ln:-1", "\x01i:zz", "\x01b:q"],
        ids=["Ln-x", "Ln-negative", "i-zz", "b-q"],
    )

    @staticmethod
    def damaged_store(path: Path, placement: str, bad: str) -> bytes:
        """Save ``(Ln(0), Evct)`` at ``placement``, then swap its ``Ln:0`` for ``bad``."""
        store = PrefixStore(str(path))
        if placement != "snapshot":
            store.namespace(NS).record((Line(1),), ("-",))
            store.save()
        store.namespace(NS).record((Line(0), EVICT), ("-", 1))
        store.save()
        if placement == "delta-then-more":
            store.namespace(NS).record((Line(2),), ("-",))
            store.save()
        data = path.read_bytes()
        lines = data.split(b"\n")
        damaged_line = {"snapshot": 1, "final-delta": 2, "delta-then-more": 2}[placement]
        good = json.dumps("\x01Ln:0").encode()
        assert data.count(good) == 1 and good in lines[damaged_line]
        lines[damaged_line] = lines[damaged_line].replace(good, json.dumps(bad).encode())
        path.write_bytes(b"\n".join(lines))
        return lines[damaged_line] + b"\n"

    @BAD_SYMBOLS
    @pytest.mark.parametrize("placement", ["snapshot", "delta-then-more"])
    def test_bad_symbol_before_the_tail_is_corruption(self, tmp_path, placement, bad):
        path = tmp_path / "store.json"
        self.damaged_store(path, placement, bad)
        with pytest.raises(StoreCorruptionError) as excinfo:
            PrefixStore(str(path))
        message = str(excinfo.value)
        assert str(path) in message and repr(bad) in message and "delete it" in message

        before = PrefixStore()
        before.namespace(("other",)).record(("A",), ("Hit",))
        with pytest.raises(StoreCorruptionError):
            load_store_file(path, before)
        assert before.namespaces() == (("other",),)
        assert list(before.namespace(("other",)).iter_entries()) == [(("A",), ("Hit",))]

    @BAD_SYMBOLS
    def test_bad_symbol_in_final_line_is_dropped_like_a_torn_tail(self, tmp_path, bad):
        path = tmp_path / "store.json"
        final_line = self.damaged_store(path, "final-delta", bad)
        reopened = PrefixStore(str(path))
        assert reopened.load_report.discarded_bytes == len(final_line)
        assert entry_words(reopened) == {(Line(1),)}


class TestCompactionLeftovers:
    def test_stale_tmp_from_killed_compaction_is_ignored_and_reaped(self, tmp_path):
        path = tmp_path / "store.json"
        make_logged_store(path)
        stale = tmp_path / f".{path.name}.tmp.99999"
        stale.write_bytes(b"half a snapshot that never got replaced")

        # Readers ignore the leftover entirely.
        reopened = PrefixStore(str(path))
        assert reopened.entry_count > 0
        assert stale.exists()

        # The next locked compaction reaps it.
        reopened.namespace(NS).record(("Q",), ("Hit",))
        reopened.compact()
        assert not stale.exists()
        assert ("Q",) in entry_words(PrefixStore(str(path)))


WRITER_SCRIPT = """
import sys, time
from pathlib import Path
from repro.store import PrefixStore

path, marker = sys.argv[1], Path(sys.argv[2])
store = PrefixStore(path)
ns = store.namespace(("mbl", "cpu", "L2", 0, 21))
i = 0
while True:
    ns.record((f"W{i}", "B"), (None, "Hit"))
    store.save()
    i += 1
    if i == 3:
        marker.touch()  # tell the parent some appends are durable
"""


class TestKillNineWriter:
    def test_killed_appender_leaves_a_loadable_file(self, tmp_path):
        path = tmp_path / "store.json"
        make_logged_store(path)
        marker = tmp_path / "progress"
        process = subprocess.Popen(
            [sys.executable, "-c", WRITER_SCRIPT, str(path), str(marker)],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        try:
            deadline = time.time() + 30
            while not marker.exists():
                assert process.poll() is None, "writer died before making progress"
                assert time.time() < deadline, "writer made no progress in 30s"
                time.sleep(0.005)
            process.send_signal(signal.SIGKILL)
        finally:
            process.wait(timeout=30)

        reopened = PrefixStore(str(path))
        words = entry_words(reopened)
        # Everything durable before the kill is still there...
        assert {("A0", "B"), ("W0", "B"), ("W1", "B"), ("W2", "B")} <= words
        # ...and the file accepts appends again.
        reopened.namespace(NS).record(("after",), ("Miss",))
        reopened.save()
        assert ("after",) in entry_words(PrefixStore(str(path)))

    def test_twenty_seeded_kills_never_raise_raw(self, tmp_path):
        """Randomly torn files either load (valid prefix) or raise
        StoreCorruptionError — never anything else."""
        import random

        path = tmp_path / "store.json"
        make_logged_store(path, entries=10)
        data = path.read_bytes()
        rng = random.Random(0xC0FFEE)
        for _ in range(20):
            cut = rng.randrange(1, len(data))
            victim = tmp_path / "cut.json"
            victim.write_bytes(data[:cut])
            try:
                store = PrefixStore(str(victim))
            except StoreCorruptionError:
                continue  # damage inside header/snapshot: the allowed error
            report = store.load_report
            assert report.valid_end <= cut
            assert report.discarded_bytes == cut - report.valid_end


class TestDeltaSaveCost:
    """The O(delta) fix for the O(store) save pinned in
    benchmarks/bench_store_persistence.py, asserted by byte counting."""

    def test_one_row_save_is_o_delta_not_o_store(self, tmp_path):
        path = tmp_path / "store.json"
        store = PrefixStore(str(path))
        ns = store.namespace(NS)
        for i in range(400):
            ns.record((f"blk{i}", "B", "C"), (None, "Hit", "Miss"))
        store.save()
        snapshot_size = path.stat().st_size

        ns.record(("one", "more", "row"), (None, "Hit", "Miss"))
        with track_store_io() as io:
            store.save()
        # One delta line: far below the snapshot in both directions.  The
        # catch-up header peek reads one line; the append writes one line.
        assert io.bytes_written < snapshot_size / 20
        assert io.bytes_read < snapshot_size / 20
        assert path.stat().st_size > snapshot_size  # appended, not rewritten

    def test_no_change_save_writes_nothing(self, tmp_path):
        path = tmp_path / "store.json"
        store = make_logged_store(path)
        with track_store_io() as io:
            store.save()
        assert io.bytes_written == 0

    def test_recording_known_data_journals_nothing(self, tmp_path):
        path = tmp_path / "store.json"
        store = PrefixStore(str(path))
        ns = store.namespace(NS)
        ns.record(("A", "B"), (None, "Hit"))
        store.save()
        ns.record(("A", "B"), (None, "Hit"))  # bit-identical re-measurement
        assert store.pending_records == 0
        with track_store_io() as io:
            store.save()
        assert io.bytes_written == 0


class TestLoadReportSurface:
    def test_load_report_counts_recovered_records(self, tmp_path):
        path = tmp_path / "store.json"
        make_logged_store(path, entries=6, per_line=2)
        reopened = PrefixStore(str(path))
        report = reopened.load_report
        assert report.version == 2
        # entries beyond the first snapshot arrive as replayed delta records
        assert report.recovered_records > 0
        assert report.discarded_bytes == 0
        assert json.loads(path.read_bytes().split(b"\n")[0])["generation"] == report.generation


class TestWriterLockHygiene:
    """PR 9 regressions: a failed save must release (and close) the lock."""

    def lock_is_free(self, lock_path: Path) -> bool:
        import fcntl

        fd = os.open(lock_path, os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return False
        else:
            fcntl.flock(fd, fcntl.LOCK_UN)
            return True
        finally:
            os.close(fd)

    def test_failed_save_releases_the_writer_lock(self, tmp_path):
        from repro.errors import NonDeterminismError

        path = tmp_path / "store.json"
        first = PrefixStore(str(path))
        second = PrefixStore(str(path))  # opened before first's record lands
        first.namespace(NS).record(("w",), ("Hit",))
        first.save()
        second.namespace(NS).record(("w",), ("Miss",))
        with pytest.raises(NonDeterminismError):
            second.save()  # catch-up replays first's record and conflicts
        # The lock must not stay held by the failed save...
        assert self.lock_is_free(tmp_path / "store.json.lock")
        # ...and other writers must still get through.
        first.namespace(NS).record(("after",), ("Hit",))
        first.save()

    def test_repeated_failed_saves_leak_no_descriptors(self, tmp_path):
        from repro.errors import NonDeterminismError

        path = tmp_path / "store.json"
        first = PrefixStore(str(path))
        second = PrefixStore(str(path))  # opened before first's record lands
        first.namespace(NS).record(("w",), ("Hit",))
        first.save()
        second.namespace(NS).record(("w",), ("Miss",))
        fd_dir = Path("/proc/self/fd")
        if not fd_dir.exists():  # pragma: no cover - non-Linux
            pytest.skip("needs /proc to count open descriptors")
        with pytest.raises(NonDeterminismError):
            second.save()
        before = len(list(fd_dir.iterdir()))
        for _ in range(20):
            with pytest.raises(NonDeterminismError):
                second.save()
        assert len(list(fd_dir.iterdir())) <= before


class TestFcntlUnavailable:
    """PR 9 regressions: without fcntl, warn once and refuse second writers."""

    @pytest.fixture
    def no_fcntl(self, monkeypatch):
        import repro.store.prefix_store as prefix_store_module

        monkeypatch.setattr(prefix_store_module, "fcntl", None)
        monkeypatch.setattr(prefix_store_module, "_warned_fcntl_missing", False)
        return prefix_store_module

    def test_warns_once_on_first_locked_operation(self, tmp_path, no_fcntl):
        import warnings

        path = tmp_path / "store.json"
        store = PrefixStore(str(path))
        store.namespace(NS).record(("a",), ("Hit",))
        with pytest.warns(RuntimeWarning, match="fcntl is unavailable"):
            store.save()
        # Only the first locked operation warns.
        store.namespace(NS).record(("b",), ("Hit",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store.save()

    def test_second_writer_detected_and_refused(self, tmp_path, no_fcntl):
        import warnings

        path = tmp_path / "store.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ours = PrefixStore(str(path))
            ours.namespace(NS).record(("ours",), ("Hit",))
            ours.save()
            # Another writer appends underneath (its own handle, same file).
            theirs = PrefixStore(str(path))
            theirs.namespace(NS).record(("theirs",), ("Hit",))
            theirs.save()
            ours.namespace(NS).record(("late",), ("Hit",))
            with pytest.raises(StoreError, match="changed underneath"):
                ours.save()

    def test_single_writer_still_works_without_fcntl(self, tmp_path, no_fcntl):
        import warnings

        path = tmp_path / "store.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            store = PrefixStore(str(path))
            for i in range(5):
                store.namespace(NS).record((f"x{i}",), ("Hit",))
                store.save()
            reopened = PrefixStore(str(path))
            assert entry_words(reopened) == {(f"x{i}",) for i in range(5)}
