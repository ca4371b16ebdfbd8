"""Multi-writer stress tests for the measurement store file.

N real writer processes append into one store file — disjoint namespaces
(each writer its own) and an overlapping namespace (every writer the
same one), serialised by the file's advisory lock.  Two kinds of writer
run: ``single-file`` writers only append, ``compacting`` writers also
rewrite the file as a fresh snapshot now and then, so the others' next
save finds a new generation and must re-read the whole file.  The
promises under test:

* **no lost records** — every record every writer saved is present
  afterwards, whether writers appended or compacted under contention;
* **cross-writer conflict detection** — two writers measuring the same
  prefix differently produce :class:`~repro.errors.NonDeterminismError`
  in the later writer's save, exactly like a broken reset within one
  process (paper Section 7.1);
* **warm starts stay perfect** — a sweep over a corpus populated by
  concurrent writers re-executes 0 membership queries.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import NonDeterminismError
from repro.store import PrefixStore

N_WRITERS = 4
RECORDS_PER_WRITER = 25

#: One writer process: appends its disjoint rows and the shared rows into
#: the store file, saving after every record (the per-row save discipline
#: of run_table2/run_table4).  Modes: "clean" payloads agree across
#: writers; "conflict" makes this writer disagree on the shared words.  A
#: "compacting" writer compacts on every fifth record, staggered by writer.
WRITER = """
import sys
from repro.store import PrefixStore
from repro.errors import NonDeterminismError

corpus, writer_id, records, mode, kind = sys.argv[1:6]
writer_id, records = int(writer_id), int(records)
store = PrefixStore(corpus)
own = store.namespace(("mbl", "cpu", "L2", 0, writer_id))
shared = store.namespace(("mbl", "cpu", "L2", 0, 999))
try:
    for i in range(records):
        own.record((f"w{writer_id}", f"blk{i}"), (None, "Hit"))
        store.save(compact=kind == "compacting" and (i + writer_id) % 5 == 0)
        outcome = "Miss" if mode == "conflict" and writer_id % 2 else "Hit"
        shared.record((f"shared{i % 5}", f"s{i}"), (None, outcome))
        store.save()
except NonDeterminismError:
    print("NONDETERMINISM", flush=True)
    sys.exit(23)
sys.exit(0)
"""


def run_writers(corpus: Path, *, mode: str, kind: str) -> list:
    processes = [
        subprocess.Popen(
            [
                sys.executable,
                "-c",
                WRITER,
                str(corpus),
                str(writer_id),
                str(RECORDS_PER_WRITER),
                mode,
                kind,
            ],
            env={**os.environ, "PYTHONPATH": "src"},
            stdout=subprocess.PIPE,
            text=True,
        )
        for writer_id in range(N_WRITERS)
    ]
    results = []
    for process in processes:
        stdout, _ = process.communicate(timeout=180)
        results.append((process.returncode, stdout))
    return results


@pytest.mark.parametrize("kind", ["single-file", "compacting"])
class TestConcurrentWriters:
    def test_no_lost_records(self, tmp_path, kind):
        corpus = tmp_path / "corpus.json"
        results = run_writers(corpus, mode="clean", kind=kind)
        assert [code for code, _ in results] == [0] * N_WRITERS

        merged = PrefixStore(str(corpus))
        for writer_id in range(N_WRITERS):
            own = merged.namespace(("mbl", "cpu", "L2", 0, writer_id))
            words = {word for word, _ in own.iter_entries()}
            assert words == {
                (f"w{writer_id}", f"blk{i}") for i in range(RECORDS_PER_WRITER)
            }, f"writer {writer_id} lost records"
        shared = merged.namespace(("mbl", "cpu", "L2", 0, 999))
        shared_words = {word for word, _ in shared.iter_entries()}
        assert shared_words == {
            (f"shared{i % 5}", f"s{i}") for i in range(RECORDS_PER_WRITER)
        }
        for word in shared_words:
            assert shared.lookup(word) == (None, "Hit")

    def test_conflicting_writers_raise_nondeterminism(self, tmp_path, kind):
        corpus = tmp_path / "corpus.json"
        results = run_writers(corpus, mode="conflict", kind=kind)
        codes = sorted(code for code, _ in results)
        # Writers 1 and 3 record "Miss" where 0 and 2 record "Hit": whoever
        # appends second on a shared word sees the other's record during
        # catch-up and dies with the broken-reset signal.  At least one
        # process must survive the fight and at least one must lose it.
        assert 23 in codes, f"no writer detected the conflict: {results}"
        assert 0 in codes, f"every writer died: {results}"
        for code, stdout in results:
            assert code in (0, 23)
            if code == 23:
                assert "NONDETERMINISM" in stdout

        # The surviving store still loads and agrees with itself.
        merged = PrefixStore(str(corpus))
        assert merged.namespace(("mbl", "cpu", "L2", 0, 0)).entry_count > 0

    def test_stress_twenty_seeded_rounds(self, tmp_path, kind):
        """20 short two-writer rounds over one store file: it reopens every
        time, zero lost records (the acceptance-criteria sweep)."""
        corpus = tmp_path / "corpus.json"
        script = """
import sys
from repro.store import PrefixStore
corpus, writer_id, round_id, kind = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
store = PrefixStore(corpus)
ns = store.namespace(("stress", writer_id % 2))
for i in range(5):
    ns.record((f"r{round_id}", f"w{writer_id}", f"b{i}"), (None, None, "Hit"))
    store.save(compact=kind == "compacting" and i == 2 + writer_id)
"""
        for round_id in range(20):
            processes = [
                subprocess.Popen(
                    [sys.executable, "-c", script, str(corpus), str(w), str(round_id), kind],
                    env={**os.environ, "PYTHONPATH": "src"},
                )
                for w in (0, 1)
            ]
            for process in processes:
                assert process.wait(timeout=180) == 0

        merged = PrefixStore(str(corpus))
        for key in (("stress", 0), ("stress", 1)):
            ns = merged.namespace(key)
            words = {word for word, _ in ns.iter_entries()}
            expected = {
                (f"r{r}", f"w{w}", f"b{i}")
                for r in range(20)
                for w in (0, 1)
                if w % 2 == key[1]
                for i in range(5)
            }
            assert words == expected


class TestInProcessInterleaving:
    """The same protocol exercised deterministically with two handles."""

    def test_alternating_handles_merge(self, tmp_path):
        path = tmp_path / "store.json"
        a = PrefixStore(str(path))
        b = PrefixStore(str(path))
        for i in range(10):
            a.namespace(("n",)).record((f"a{i}",), ("Hit",))
            a.save()
            b.namespace(("n",)).record((f"b{i}",), ("Miss",))
            b.save()
        merged = PrefixStore(str(path))
        words = {word for word, _ in merged.namespace(("n",)).iter_entries()}
        assert words == {(f"a{i}",) for i in range(10)} | {(f"b{i}",) for i in range(10)}
        # Live handles converge through catch-up: a's last save pulled
        # every b-row durable at that point (b9 landed only afterwards).
        assert a.namespace(("n",)).lookup(("b8",)) == ("Miss",)
        a.save()
        assert a.namespace(("n",)).lookup(("b9",)) == ("Miss",)

    def test_catch_up_survives_interleaved_compaction(self, tmp_path):
        path = tmp_path / "store.json"
        a = PrefixStore(str(path))
        b = PrefixStore(str(path))
        a.namespace(("n",)).record(("a",), (1,))
        a.save()
        b.namespace(("n",)).record(("b",), (2,))
        b.compact()  # generation bump behind a's back
        a.namespace(("n",)).record(("c",), (3,))
        a.save()  # must detect the new generation and re-read wholesale
        merged = PrefixStore(str(path))
        ns = merged.namespace(("n",))
        assert ns.lookup(("a",)) == (1,)
        assert ns.lookup(("b",)) == (2,)
        assert ns.lookup(("c",)) == (3,)

    def test_conflict_between_handles(self, tmp_path):
        path = tmp_path / "store.json"
        a = PrefixStore(str(path))
        b = PrefixStore(str(path))
        a.namespace(("n",)).record(("x",), ("Hit",))
        a.save()
        b.namespace(("n",)).record(("x",), ("Miss",))
        with pytest.raises(NonDeterminismError):
            b.save()


class TestWarmStartAfterConcurrentPopulation:
    def test_sharded_warm_start_reexecutes_zero_queries(self, tmp_path):
        """A sweep over one store file that concurrent writer processes
        populated (the id predates the one-file layout)."""
        from repro.experiments.table2 import run_table2

        corpus = tmp_path / "corpus.json"
        configurations = [("LRU", 2), ("FIFO", 2)]
        # Populate the store concurrently: one writer process per policy.
        script = """
import sys
from repro.experiments.table2 import run_table2
from repro.store import PrefixStore
corpus, policy = sys.argv[1], sys.argv[2]
run_table2(configurations=[(policy, 2)], store=PrefixStore(corpus))
"""
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(corpus), policy],
                env={**os.environ, "PYTHONPATH": "src"},
            )
            for policy, _ in configurations
        ]
        for process in processes:
            assert process.wait(timeout=300) == 0

        warm = PrefixStore(str(corpus))
        # Both writers' learning tries landed in the one file.
        assert sorted(key[2] for key in warm.namespaces()) == ["FIFO", "LRU"]
        rows = run_table2(configurations=configurations, store=warm)
        assert [row.membership_queries for row in rows] == [0, 0]
        assert all(row.identified for row in rows)
