"""Command-line entry point: regenerate any table or figure of the paper.

Examples
--------

.. code-block:: console

   repro-experiments table2 --mode fast
   repro-experiments table4 --mode standard
   repro-experiments table5 --mode full
   repro-experiments overhead
   repro-experiments leader-sets --sets 256
   repro-experiments all --mode fast
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.experiments.leader_sets import detect_leader_sets, follower_adaptivity
from repro.experiments.overhead import mbl_query_latency, simulated_vs_cachequery_overhead
from repro.experiments.reporting import MODES, format_store_statistics, format_table
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.table3 import format_table3
from repro.experiments.table4 import format_table4, run_table4
from repro.experiments.table5 import format_table5, run_table5
from repro.learning.learner import LEARNER_NAMES
from repro.polca.algorithm import POLCA_KERNELS


def _make_store(cache_path: Optional[str]):
    if cache_path is None:
        return None
    from repro.store import open_store

    # A directory (or trailing-separator / .shards path) opens a sharded
    # corpus — one append-log file per namespace — a plain file the classic
    # single-file store.
    return open_store(cache_path)


def _print_store(store, rows) -> None:
    if store is None:
        return
    hits = sum(getattr(row, "cache_hits", 0) for row in rows)
    queries = sum(getattr(row, "membership_queries", 0) for row in rows)
    ratio = hits / (hits + queries) if hits + queries else None
    print(format_store_statistics(store.statistics(), hit_ratio=ratio))


def _print_table2(mode: str, workers: Optional[int], **kwargs) -> None:
    print("== Table 2: learning from software-simulated caches ==")
    rows = run_table2(mode, workers=workers, **kwargs)
    print(format_table2(rows))
    _print_store(kwargs.get("store"), rows)


def _print_table3() -> None:
    print("== Table 3: processors' specifications ==")
    print(format_table3())


def _print_table4(mode: str, workers: Optional[int], **kwargs) -> None:
    print("== Table 4: learning from (simulated) hardware via CacheQuery ==")
    rows = run_table4(mode, workers=workers, **kwargs)
    print(format_table4(rows))
    _print_store(kwargs.get("store"), rows)


def _print_table5(mode: str) -> None:
    print("== Table 5: synthesizing explanations (associativity 4) ==")
    rows = run_table5(mode)
    print(format_table5(rows))
    for row in rows:
        if row.explanation is not None:
            print()
            print(row.explanation.pretty())


def _print_overhead(mode: str) -> None:
    print("== Section 7.2: cost of learning from hardware ==")
    associativity = 4 if mode == "fast" else 8
    result = simulated_vs_cachequery_overhead("PLRU", associativity)
    print(
        f"PLRU assoc {associativity}: software-simulated {result.simulated_seconds:.2f} s, "
        f"CacheQuery-on-simulated-hardware {result.cachequery_seconds:.2f} s "
        f"(overhead x{result.overhead_factor:.0f})"
    )
    latencies = mbl_query_latency()
    rows = [(level, f"{seconds * 1000:.2f} ms") for level, seconds in latencies.items()]
    print(format_table(("Level", "Mean '@ X _?' query time"), rows))


def _print_leader_sets(num_sets: int) -> None:
    print("== Appendix B: leader sets and adaptive policies ==")
    detection = detect_leader_sets(set_indexes=range(num_sets))
    print(f"scanned sets      : 0..{num_sets - 1}")
    print(f"detected leaders  : {list(detection.detected_leaders)}")
    print(f"formula leaders   : {list(detection.formula_leaders)}")
    print(f"agreement         : {detection.formula_agreement * 100:.1f}%")
    adaptivity = follower_adaptivity()
    print(
        f"follower set {adaptivity.follower_set}: thrash miss rate "
        f"{adaptivity.miss_rate_before:.2f} -> {adaptivity.miss_rate_after:.2f} after "
        f"thrashing the leader sets (became resistant: {adaptivity.became_resistant})"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and run the requested experiment(s)."""
    parser = argparse.ArgumentParser(description="Regenerate the paper's tables and figures")
    parser.add_argument(
        "experiment",
        choices=["table2", "table3", "table4", "table5", "overhead", "leader-sets", "all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--mode",
        choices=MODES,
        default="fast",
        help="experiment size (fast: minutes; full: the paper's exact sweeps)",
    )
    parser.add_argument(
        "--sets", type=int, default=128, help="number of L3 sets scanned by leader-sets"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="execute the learning loop's queries (table fill + conformance "
        "testing) on N worker processes, each holding a copy of the system "
        "under learning (table2/table4; machines and counts are identical to "
        "serial runs; pays off only on slow, deep targets such as table4 at "
        "depth 3); 0 or 1 mean serial — 0 is the convention the pipeline, "
        "tests and benchmarks use",
    )
    parser.add_argument(
        "--cache-path",
        default=None,
        metavar="PATH",
        help="persistent prefix store shared by the run's response caches "
        "and learning tries (table2/table4): a file, or a directory (or "
        ".shards path) for a sharded corpus; saved after every row, so an "
        "interrupted sweep resumes from what it already measured, and "
        "processes sharing it serialise their saves on fcntl file locks",
    )
    parser.add_argument(
        "--store-compact",
        action="store_true",
        help="after the run, fold the --cache-path store's append log back "
        "into a compact snapshot (every shard, for sharded directory "
        "corpora); saves happen incrementally either way",
    )
    parser.add_argument(
        "--kernel",
        choices=POLCA_KERNELS,
        default="auto",
        help="simulator execution kernel for table2/table4: auto uses the "
        "tabulated kernel when the policy tabulates and falls back to the "
        "scalar path otherwise (always on CacheQuery targets); scalar "
        "forces the per-symbol stepper — results are identical either way",
    )
    parser.add_argument(
        "--learner",
        choices=LEARNER_NAMES,
        default="lstar",
        help="learning algorithm for table2/table4: lstar (observation table, "
        "the paper's configuration) or ttt (Kearns–Vazirani classification "
        "tree with TTT discriminator finalization and incremental sifting — "
        "fewer executed symbols, similar wall clock); both learn identical "
        "minimal machines",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit raw results as JSON instead of tables"
    )
    arguments = parser.parse_args(argv)
    # 0 is the explicit-serial convention used by the pipeline, tests and
    # benchmarks everywhere else; only negative counts are nonsense.  All
    # flag validation happens here, before any store/experiment work starts.
    if arguments.workers is not None and arguments.workers < 0:
        parser.error("--workers must be >= 0 (0 means serial)")
    if arguments.store_compact and arguments.cache_path is None:
        parser.error("--store-compact needs --cache-path")
    store = _make_store(arguments.cache_path)
    learning_kwargs = {
        "store": store,
        "kernel": arguments.kernel,
        "learner": arguments.learner,
    }

    if arguments.json:
        payload = {}
        if arguments.experiment in ("table2", "all"):
            payload["table2"] = [
                row.__dict__
                for row in run_table2(
                    arguments.mode, workers=arguments.workers, **learning_kwargs
                )
            ]
        if arguments.experiment in ("table4", "all"):
            payload["table4"] = [
                row.__dict__
                for row in run_table4(
                    arguments.mode, workers=arguments.workers, **learning_kwargs
                )
            ]
        if arguments.experiment in ("table5", "all"):
            payload["table5"] = [
                {**row.__dict__, "explanation": row.explanation.pretty() if row.explanation else None}
                for row in run_table5(arguments.mode)
            ]
        json.dump(payload, sys.stdout, indent=2, default=str)
        print()
        if store is not None and arguments.store_compact:
            store.compact()
        return 0

    if arguments.experiment in ("table2", "all"):
        _print_table2(arguments.mode, arguments.workers, **learning_kwargs)
    if arguments.experiment in ("table3", "all"):
        _print_table3()
    if arguments.experiment in ("table4", "all"):
        _print_table4(arguments.mode, arguments.workers, **learning_kwargs)
    if arguments.experiment in ("table5", "all"):
        _print_table5(arguments.mode)
    if arguments.experiment in ("overhead", "all"):
        _print_overhead(arguments.mode)
    if arguments.experiment in ("leader-sets", "all"):
        _print_leader_sets(arguments.sets)
    if store is not None and arguments.store_compact:
        store.compact()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
