"""Serial vs. 2-worker learning, end to end.

Every configuration is learned twice through the full pipeline — serially
and with ``workers=2``, where the query engine's delegate is a
:class:`~repro.learning.parallel.WorkerPool` wrapping Polca, so the misses
of the observation-table fill *and* of the streamed conformance suite run on
two worker processes — and the benchmark compares:

* the **learned machines** and every engine and Polca statistics field,
  which must be identical (the pool changes where words execute, never what
  is learned or counted);
* the **per-worker executed-query counts**, showing both workers did work;
* the **wall clock** of the two runs.

Two workloads, because the pool only pays off on one of them:

* simulated policies (SRRIP-HP-2 and PLRU-8 at depth 2): the tabulated
  kernel makes the system under learning a small share of the run, so two
  workers lose to the serial run (measured on a 2-vCPU host, Python
  3.11).  The ratio is printed, not gated.
* the nine Table 4 ``fast`` targets at depth 3: CacheQuery-backed, so
  Polca's probes dominate and the suites are deep.  Here two workers must
  beat the serial run (on a host with more than one core).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--full]

or through pytest (the PLRU-8 and Table 4 runs take minutes; slow-marked)::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -m slow
"""

import os
import sys
import time
from dataclasses import asdict, replace

import pytest

from repro.experiments.table4 import run_table4_configuration, table4_configurations
from repro.polca.pipeline import learn_simulated_policy
from repro.policies.registry import make_policy

#: (policy, associativity, conformance depth) exercised by the benchmark.
#: PLRU-8 is the paper's 128-state Table 2 machine; SRRIP-HP at
#: associativity 2 keeps a cheap smoke configuration.
CONFIGURATIONS = [
    ("SRRIP-HP", 2, 2),
    ("PLRU", 8, 2),
]

#: Added by --full: the 178-state SRRIP machine (tens of minutes serially).
FULL_CONFIGURATIONS = [
    ("SRRIP-HP", 4, 2),
]

#: Conformance depth of the Table 4 workload.
TABLE4_DEPTH = 3

WORKERS = 2


def run_configuration(policy_name, associativity, depth, workers=None):
    """Learn one configuration; return the report plus its wall clock."""
    policy = make_policy(policy_name, associativity)
    start = time.perf_counter()
    report = learn_simulated_policy(
        policy, depth=depth, identify=False, workers=workers
    )
    seconds = time.perf_counter() - start
    return report, seconds


def compare_paths(policy_name, associativity, depth):
    """Run serial and parallel; assert identical results; return metrics."""
    serial, serial_seconds = run_configuration(policy_name, associativity, depth)
    parallel, parallel_seconds = run_configuration(
        policy_name, associativity, depth, workers=WORKERS
    )
    label = f"{policy_name}-{associativity}"
    assert parallel.machine == serial.machine, (
        f"{label}: parallel run learned a different machine!"
    )
    assert asdict(parallel.learning_result.statistics) == asdict(
        serial.learning_result.statistics
    ), f"{label}: engine statistics differ across worker counts"
    assert asdict(parallel.polca_statistics) == asdict(serial.polca_statistics), (
        f"{label}: Polca statistics differ across worker counts"
    )
    return {
        "policy": label,
        "depth": depth,
        "states": serial.num_states,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / max(1e-9, parallel_seconds),
        "parallel_words": parallel.extra["parallel_words"],
        "parallel_chunks": parallel.extra["parallel_chunks"],
        "worker_query_counts": parallel.extra["worker_query_counts"],
    }


def run_table4_sweep(workers=None):
    """Learn the Table 4 fast targets at depth 3; return the rows and wall clock."""
    start = time.perf_counter()
    rows = [
        run_table4_configuration(configuration, workers=workers, depth=TABLE4_DEPTH)
        for configuration in table4_configurations("fast")
    ]
    return rows, time.perf_counter() - start


def compare_table4():
    """Run the Table 4 sweep serially and on the pool; assert identical rows.

    A shared host's speed drifts over tens of seconds, so the sweeps run
    in the order serial, pool, pool, serial, and each side's time is its
    two sweeps' sum: a drift that is linear over the four sweeps cancels.
    """
    seconds = {None: 0.0, WORKERS: 0.0}
    rows = []
    for workers in (None, WORKERS, WORKERS, None):
        sweep, elapsed = run_table4_sweep(workers)
        seconds[workers] += elapsed
        rows.append([replace(row, seconds=0.0) for row in sweep])
    assert all(sweep == rows[0] for sweep in rows), (
        "Table 4 rows differ across worker counts"
    )
    return {
        "rows": len(rows[0]),
        "learned": sum(row.learned_states is not None for row in rows[0]),
        "serial_seconds": seconds[None],
        "parallel_seconds": seconds[WORKERS],
        "speedup": seconds[None] / max(1e-9, seconds[WORKERS]),
    }


def report_metrics(metrics):
    workers = ", ".join(
        f"pid {pid}: {queries} queries"
        for pid, queries in sorted(metrics["worker_query_counts"].items())
    )
    print(
        f"{metrics['policy']:>12} depth {metrics['depth']}: "
        f"{metrics['states']} states, "
        f"serial {metrics['serial_seconds']:.1f} s, "
        f"parallel({WORKERS}) {metrics['parallel_seconds']:.1f} s "
        f"(x{metrics['speedup']:.2f}), "
        f"{metrics['parallel_words']} words in {metrics['parallel_chunks']} chunks "
        f"[{workers}]"
    )


def report_table4(metrics):
    print(
        f"Table 4 fast, {metrics['learned']} of {metrics['rows']} targets learned "
        f"at depth {TABLE4_DEPTH}, two sweeps each: serial "
        f"{metrics['serial_seconds']:.1f} s, parallel({WORKERS}) "
        f"{metrics['parallel_seconds']:.1f} s (x{metrics['speedup']:.2f})"
    )


def assert_workers_shared_the_load(metrics):
    assert metrics["parallel_words"] > 0
    counts = metrics["worker_query_counts"]
    assert len(counts) == WORKERS and all(count > 0 for count in counts.values())


# --------------------------------------------------------------------- pytest


def test_parallel_smoke_identical_machines():
    """Cheap configuration: identical machines and counts, real worker traffic."""
    metrics = compare_paths("SRRIP-HP", 2, 2)
    assert_workers_shared_the_load(metrics)


@pytest.mark.slow
def test_parallel_plru8_depth2():
    """PLRU-8 at depth 2 (minutes of compute): identity and worker accounting.

    The pool does not win here (the tabulated kernel leaves little for the
    workers to take over), so the ratio is reported, not asserted.
    """
    metrics = compare_paths("PLRU", 8, 2)
    assert metrics["states"] == 128
    assert_workers_shared_the_load(metrics)
    report_metrics(metrics)


@pytest.mark.slow
def test_parallel_table4_fast_depth3():
    """The nine Table 4 fast targets at depth 3: the SUL-bound, deep workload
    where two workers must beat the serial run."""
    metrics = compare_table4()
    assert metrics["rows"] == 9 and metrics["learned"] == 8
    report_table4(metrics)
    if (os.cpu_count() or 1) > 1:
        assert metrics["speedup"] > 1.0, (
            f"no speedup on a {os.cpu_count()}-core host: "
            f"{metrics['serial_seconds']:.1f}s serial vs "
            f"{metrics['parallel_seconds']:.1f}s parallel"
        )


# ----------------------------------------------------------------- standalone


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    configurations = list(CONFIGURATIONS)
    if "--full" in argv:
        configurations += FULL_CONFIGURATIONS
    print(
        f"== Serial vs. {WORKERS}-worker learning ({os.cpu_count()} cores) =="
    )
    for policy_name, associativity, depth in configurations:
        report_metrics(compare_paths(policy_name, associativity, depth))
    report_table4(compare_table4())
    print("\nMachines and counts identical across serial and parallel runs. OK")


if __name__ == "__main__":
    main()
