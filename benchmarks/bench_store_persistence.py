"""On-disk size, reload time, per-row save cost and multi-writer throughput.

Three claims about the measurement store, each pinned by a benchmark:

* **size**: the trie codec stores a PLRU conformance sweep in a
  fraction of the legacy per-query JSON — queries sharing an operation
  prefix store it once;
* **per-row save cost**: the v2 append-log codec makes
  ``store.save()`` after one learned row cost O(delta records), not
  O(store) — measured by byte counting through
  :func:`~repro.store.codec.track_store_io`, so the old rewrite-the-world
  behaviour cannot silently return;
* **concurrency**: N writer processes appending disjoint and overlapping
  namespaces into one store file lose zero records, and the merged file
  reopens, across repeated seeded runs
  (``--json BENCH_store_concurrency.json`` records the sweep).

The probe texts are derived *symbolically* from the PLRU reference machine
(Polca's block mapping replayed against the machine's own outputs), so the
benchmarks measure storage, not simulation.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_store_persistence.py [--full]
    PYTHONPATH=src python benchmarks/bench_store_persistence.py \\
        --json BENCH_store_concurrency.json

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_store_persistence.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from itertools import islice
from pathlib import Path

import pytest

from repro.cachequery.querycache import QueryCache, operation_path
from repro.core.alphabet import MISS_OUTPUT, Line
from repro.learning.wpmethod import iter_wp_method_suite
from repro.mbl.ast import PROFILE_TAG, Operation
from repro.mbl.expansion import expand
from repro.polca.interfaces import default_block_names
from repro.polca.reset import FlushRefillReset
from repro.policies.registry import make_policy
from repro.store import PrefixStore, track_store_io

#: Cap on suite words for the default (fast) profile.
DEFAULT_WORD_CAP = 20_000


def polca_access_chain(word, outputs, universe, associativity):
    """The block sequence Polca would access for ``word`` (derived, not run)."""
    content = list(universe[:associativity])
    accesses = []
    for symbol, output in zip(word, outputs):
        if isinstance(symbol, Line):
            block = content[symbol.index]
        else:
            block = next(b for b in universe if b not in content)
        accesses.append(block)
        if output != MISS_OUTPUT:
            content[output] = block
    return accesses


def sweep_entries(associativity: int, depth: int, cap=None):
    """Yield ``(query_text, operation_path, outcomes)`` for a PLRU
    conformance sweep: each probe as MBL text and as the response-cache key
    CacheQuery stores it under (the expanded reset plus one profiled access
    per block, as ``CacheQuerySetInterface.probe`` builds it)."""
    machine = make_policy("PLRU", associativity).to_mealy(max_states=200_000).minimize()
    universe = default_block_names(associativity + 2)
    reset = FlushRefillReset().mbl_prefix(associativity, universe)
    (prefix,) = expand(reset, associativity, universe)
    suite = iter_wp_method_suite(machine, depth)
    if cap is not None:
        suite = islice(suite, cap)
    for word in suite:
        outputs = machine.run(word)
        chain = polca_access_chain(word, outputs, universe, associativity)
        text = f"{reset} " + " ".join(f"{block}?" for block in chain)
        path = operation_path(prefix + tuple(Operation(block, PROFILE_TAG) for block in chain))
        outcomes = tuple(
            "Hit" if output == MISS_OUTPUT else "Miss" for output in outputs
        )
        yield text, path, outcomes


def measure(associativity: int, depth: int, cap=None):
    with tempfile.TemporaryDirectory() as tmp:
        legacy_path = Path(tmp) / "legacy.json"
        store_path = Path(tmp) / "store.json"

        entries = list(sweep_entries(associativity, depth, cap))

        legacy = [
            {"level": "L2", "slice": 0, "set": 0, "query": text, "outcomes": list(out)}
            for text, _, out in entries
        ]
        legacy_path.write_text(json.dumps(legacy))

        store = PrefixStore(str(store_path))
        cache = QueryCache(store)
        for _, path, outcomes in entries:
            cache.put_path("L2", 0, 0, *path, outcomes)
        store.save()

        start = time.perf_counter()
        json.loads(legacy_path.read_text())
        legacy_reload = time.perf_counter() - start

        start = time.perf_counter()
        reloaded = PrefixStore(str(store_path))
        store_reload = time.perf_counter() - start

        return {
            "associativity": associativity,
            "depth": depth,
            "entries": len(entries),
            "legacy_bytes": legacy_path.stat().st_size,
            "store_bytes": store_path.stat().st_size,
            "ratio": legacy_path.stat().st_size / store_path.stat().st_size,
            "legacy_reload_seconds": legacy_reload,
            "store_reload_seconds": store_reload,
            "store_nodes": reloaded.node_count,
        }


def report(metrics):
    print(
        f"PLRU-{metrics['associativity']} depth {metrics['depth']}: "
        f"{metrics['entries']} queries -> legacy {metrics['legacy_bytes'] / 1024:.0f} KiB, "
        f"store {metrics['store_bytes'] / 1024:.0f} KiB "
        f"(x{metrics['ratio']:.1f} smaller, {metrics['store_nodes']} nodes); "
        f"reload {metrics['legacy_reload_seconds'] * 1000:.0f} ms legacy vs "
        f"{metrics['store_reload_seconds'] * 1000:.0f} ms store"
    )


def assert_store_wins(metrics):
    """The acceptance claim: the trie codec is measurably smaller on disk."""
    assert metrics["store_bytes"] < metrics["legacy_bytes"] / 2, (
        f"store {metrics['store_bytes']} B is not measurably smaller than "
        f"legacy {metrics['legacy_bytes']} B"
    )
    # Round-trip sanity: the reloaded store answers a probe it stored.
    assert metrics["store_nodes"] > 0


# --------------------------------------------------------- per-row save cost


def measure_delta_saves(rows: int = 200, entries_per_row: int = 40):
    """Per-row save cost as the store grows: bytes written per ``save()``.

    Simulates the run_table2/run_table4 discipline — record one row's worth
    of measurements, save, repeat — and byte-counts every save.  With the
    v1 whole-file codec the cost of save ``k`` grew linearly in ``k``; the
    v2 append log keeps it flat.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.json"
        store = PrefixStore(str(path))
        namespace = store.namespace(("bench", "delta"))
        per_save_written = []
        for row in range(rows):
            for i in range(entries_per_row):
                namespace.record(
                    (f"row{row}", f"blk{i}", "probe"), (None, None, "Hit")
                )
            with track_store_io() as io:
                store.save()
            per_save_written.append(io.bytes_written)
        final_size = path.stat().st_size
    window = max(1, rows // 10)
    early = sum(per_save_written[:window]) / window
    late = sum(per_save_written[-window:]) / window
    return {
        "rows": rows,
        "entries_per_row": entries_per_row,
        "early_save_bytes": early,
        "late_save_bytes": late,
        "late_over_early": late / early if early else None,
        "final_store_bytes": final_size,
        "total_bytes_written": sum(per_save_written),
        # What the v1 codec would have written: the final image, per row.
        "o_store_bytes_written_estimate": final_size * rows,
    }


def assert_delta_saves_flat(metrics):
    """The acceptance claim: save cost is O(delta), not O(store)."""
    assert metrics["late_over_early"] < 3, (
        f"late saves write {metrics['late_over_early']:.1f}x the bytes of "
        "early saves: per-row cost is growing with the store again"
    )
    assert metrics["total_bytes_written"] < metrics["o_store_bytes_written_estimate"] / 10, (
        "total bytes written is within 10x of the O(store) rewrite cost"
    )


# --------------------------------------------------------------- concurrency

#: One benchmark writer: appends its own namespace plus a shared one into
#: one store file, saving per record (one fcntl lock + catch-up per save)
#: and timing every save.  Per-save latencies go to stdout as one JSON list.
_WRITER = """
import json, sys, time
from repro.store import PrefixStore

target, writer_id, records = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = PrefixStore(target)
own = store.namespace(("bench", "writer", writer_id))
shared = store.namespace(("bench", "shared"))
latencies = []
for i in range(records):
    own.record((f"w{writer_id}", f"b{i}"), (None, "Hit"))
    start = time.perf_counter()
    store.save()
    latencies.append(time.perf_counter() - start)
    shared.record((f"s{i % 7}", f"x{i}"), (None, "Miss"))
    start = time.perf_counter()
    store.save()
    latencies.append(time.perf_counter() - start)
print(json.dumps(latencies))
"""


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def measure_concurrency(n_writers: int = 4, records: int = 25, runs: int = 20):
    """N concurrent writer processes into one store file, ``runs`` times.

    Every writer takes the advisory ``fcntl`` lock (and replays the
    others' appends) per save.  Each run verifies that the merged file
    reopens and lost zero records before counting; any violation raises.
    """
    wall_times = []
    save_latencies = []
    for run in range(runs):
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "corpus.json"
            start = time.perf_counter()
            processes = [
                subprocess.Popen(
                    [sys.executable, "-c", _WRITER, str(corpus), str(w), str(records)],
                    env={**os.environ, "PYTHONPATH": "src"},
                    stdout=subprocess.PIPE,
                    text=True,
                )
                for w in range(n_writers)
            ]
            for process in processes:
                stdout, _ = process.communicate(timeout=300)
                assert process.returncode == 0, (
                    f"writer failed in run {run} (exit {process.returncode})"
                )
                save_latencies.extend(json.loads(stdout))
            wall_times.append(time.perf_counter() - start)

            merged = PrefixStore(str(corpus))  # raises on a corrupted file
            for w in range(n_writers):
                own = merged.namespace(("bench", "writer", w))
                words = {word for word, _ in own.iter_entries()}
                expected = {(f"w{w}", f"b{i}") for i in range(records)}
                assert words == expected, f"run {run}: writer {w} lost records"
            shared = merged.namespace(("bench", "shared"))
            shared_words = {word for word, _ in shared.iter_entries()}
            assert shared_words == {(f"s{i % 7}", f"x{i}") for i in range(records)}
    total_records = n_writers * records * 2
    return {
        "writers": n_writers,
        "records_per_writer": records * 2,
        "runs": runs,
        "lost_records": 0,
        "corrupted_stores": 0,
        "mean_run_seconds": sum(wall_times) / len(wall_times),
        "records_per_second": total_records / (sum(wall_times) / len(wall_times)),
        "mean_save_seconds": sum(save_latencies) / len(save_latencies),
        "p99_save_seconds": percentile(save_latencies, 0.99),
    }


# --------------------------------------------------------------------- pytest


def test_store_persistence_smoke_plru8_depth1():
    """Fast profile: PLRU-8 depth-1 sweep (capped) — store at least 2x smaller."""
    metrics = measure(8, 1, cap=DEFAULT_WORD_CAP)
    assert metrics["entries"] > 1000
    assert_store_wins(metrics)


def test_per_row_save_is_o_delta_smoke():
    """Fast profile: per-row save cost stays flat as the store grows."""
    metrics = measure_delta_saves(rows=60, entries_per_row=20)
    assert_delta_saves_flat(metrics)


def test_concurrent_writers_smoke():
    """Fast profile: two runs of 4 concurrent writers, nothing lost."""
    metrics = measure_concurrency(n_writers=4, records=10, runs=2)
    assert metrics["lost_records"] == 0
    assert metrics["corrupted_stores"] == 0
    assert metrics["p99_save_seconds"] > 0


@pytest.mark.slow
def test_store_persistence_plru8_depth2_full():
    """The acceptance configuration: the full PLRU-8 depth-2 sweep (~342k words)."""
    metrics = measure(8, 2)
    assert metrics["entries"] > 100_000
    assert_store_wins(metrics)
    report(metrics)


@pytest.mark.slow
def test_concurrent_writers_twenty_seeded_runs():
    """The acceptance configuration: 20 runs of N=4 writers, zero losses."""
    metrics = measure_concurrency(n_writers=4, records=25, runs=20)
    assert metrics["lost_records"] == 0
    assert metrics["corrupted_stores"] == 0


# ----------------------------------------------------------------- standalone


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    print("== Prefix-store persistence vs. legacy QueryCache JSON ==")
    configurations = [(4, 2, None), (8, 1, DEFAULT_WORD_CAP)]
    if "--full" in argv:
        configurations.append((8, 2, None))
    for associativity, depth, cap in configurations:
        metrics = measure(associativity, depth, cap)
        assert_store_wins(metrics)
        report(metrics)
    print("\nTrie-backed store measurably smaller than legacy JSON. OK")

    print("\n== Per-row save cost (v2 append log) ==")
    delta = measure_delta_saves()
    assert_delta_saves_flat(delta)
    print(
        f"{delta['rows']} rows x {delta['entries_per_row']} entries: "
        f"early saves {delta['early_save_bytes']:.0f} B, late saves "
        f"{delta['late_save_bytes']:.0f} B (x{delta['late_over_early']:.2f}); "
        f"total written {delta['total_bytes_written'] / 1024:.0f} KiB vs "
        f"{delta['o_store_bytes_written_estimate'] / 1024 / 1024:.1f} MiB "
        "for the O(store) rewrite"
    )

    print("\n== Concurrent writers into one store file ==")
    runs = 20 if "--full" in argv or "--json" in argv else 3
    concurrency = measure_concurrency(runs=runs)
    print(
        f"{concurrency['writers']} writers x "
        f"{concurrency['records_per_writer']} records x {concurrency['runs']} runs: "
        f"{concurrency['lost_records']} lost records, "
        f"{concurrency['corrupted_stores']} corrupted stores, "
        f"{concurrency['mean_run_seconds'] * 1000:.0f} ms/run "
        f"({concurrency['records_per_second']:.0f} records/s, "
        f"p99 save {concurrency['p99_save_seconds'] * 1000:.1f} ms)"
    )

    if "--json" in argv:
        out = Path(argv[argv.index("--json") + 1])
        out.write_text(
            json.dumps(
                {
                    "benchmark": "bench_store_concurrency",
                    "per_row_save": delta,
                    "concurrency": concurrency,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
