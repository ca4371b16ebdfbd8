#!/usr/bin/env python3
"""Drive CacheQuery directly with MemBlockLang queries.

Three short scenarios on the simulated Skylake CPU:

1. *Eviction probing* (Example 4.1): fill an L1 set, access a fresh block and
   probe every original block to see which one the PLRU policy evicted.
2. *Reset sequences*: the same probe prefixed with a Flush+Refill reset is
   reproducible, which is what makes the learning pipeline possible.
3. *Leader-set detection* (Appendix B): a thrashing pattern distinguishes the
   L3 leader sets (fixed, thrash-vulnerable New2 policy) from follower sets.

Run with::

    python examples/mbl_queries_and_leader_sets.py
"""

from __future__ import annotations

from repro.cachequery import BackendConfig, CacheQuery, CacheQueryConfig
from repro.experiments.leader_sets import detect_leader_sets
from repro.hardware import SKYLAKE_I5_6500, SimulatedCPU
from repro.hardware.timing import NoiseModel


def eviction_probing() -> None:
    print("=== 1. Eviction probing on an L1 set (PLRU) ===")
    cpu = SimulatedCPU(SKYLAKE_I5_6500, noise=NoiseModel(std=0.0))
    frontend = CacheQuery(
        cpu, CacheQueryConfig(level="L1", set_index=3, backend=BackendConfig(repetitions=1))
    )
    expression = "@ M _?"
    print(f"MBL query          : {expression}")
    print(f"expands to         : {frontend.associativity} concrete queries")
    results = frontend.query(expression)
    for block, outcome in zip(frontend.blocks, results):
        print(f"  probe {block}: {outcome[0]}")
    evicted = [block for block, outcome in zip(frontend.blocks, results) if outcome[0] == "Miss"]
    print(f"=> the PLRU victim for the fresh block M was line holding {evicted}")
    print()


def reproducible_resets() -> None:
    print("=== 2. Reset sequences make measurements reproducible ===")
    cpu = SimulatedCPU(SKYLAKE_I5_6500, noise=NoiseModel(std=0.0))
    frontend = CacheQuery(
        cpu,
        CacheQueryConfig(
            level="L2", set_index=40, use_cache=False, backend=BackendConfig(repetitions=1)
        ),
    )
    flushes = " ".join(f"{block}!" for block in frontend.blocks)
    query = f"{flushes} @ E A? B? C? D?"
    first = frontend.query(query)[0]
    second = frontend.query(query)[0]
    print(f"query   : F+R reset, miss on E, probe A-D")
    print(f"1st run : {first}")
    print(f"2nd run : {second}")
    print(f"=> identical traces: {first == second}")
    print()


def leader_sets() -> None:
    print("=== 3. Leader-set detection on the L3 (Appendix B) ===")
    detection = detect_leader_sets(set_indexes=range(0, 72), repetitions=4)
    print(f"scanned L3 sets 0-71 with a thrashing pattern")
    print(f"thrash-vulnerable sets found : {list(detection.detected_leaders)}")
    print(f"paper's index formula gives  : {list(detection.formula_leaders)}")
    print(f"agreement                    : {detection.formula_agreement * 100:.1f}%")


def main() -> None:
    eviction_probing()
    reproducible_resets()
    leader_sets()


if __name__ == "__main__":
    main()
