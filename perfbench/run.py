"""The learning benchmark: one command per workload and seed.

Run from the repository root::

    python3 perfbench/run.py --workload table2-fast --seed 1 --seconds 35 --trace 0

Workloads: ``table2-fast`` and ``table4-fast`` (see ``workloads.py``), or
``all`` for each in turn, exiting non-zero if any run fails.  ``--trace 0`` prints every end-to-end metric listed in
``BENCHMARK.json``; ``--trace 1`` prints every per-layer metric of one
traced pass.  ``--size smoke`` runs a seconds-long version of a workload
that exercises every metric, the ground-truth gate and the traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (learns), ``failed`` (learns that raised or
missed ground truth) and ``metrics``.  The command exits non-zero on a
wrong machine, a drifting count or a failed counter assertion.

How the numbers are made, on a host whose speed drifts between fast and
slow stretches lasting seconds to tens of seconds:

* Every interpreter is fresh and only one busy one runs at a time.  Set-up
  (from interpreter start to the first learning call: imports and target
  construction) is timed in seven interpreters: the measuring one and
  others it starts, and waits for, between its passes; ``setup_s`` is
  their median.
* The measuring interpreter runs a fixed number of whole passes of the
  workload without tracing: ``--seconds`` over the workload's nominal pass
  time, and at least three.  A pass repeats the same deterministic calls
  in the same order, so the k-th interval between consecutive query-engine
  batches is the same work in every pass.
  ``wall_s`` sums, over those intervals, the fastest pass: each interval
  is short, so it almost always meets a fast stretch of the host in some
  pass, where whole-pass times inherit the drift.  The pass count never
  depends on measured time, so every run and every commit takes the
  minimum over the same number of samples.  The median, quartiles and
  count of whole-pass times are printed beside it.  One-time costs of the
  first pass (lazy imports inside the first learn) drop out of ``wall_s``.
* Counts come from the program's own counters; they must repeat exactly
  across passes and across runs of the same code in one checkout.
* A fixed calibration loop is timed before and after the run and printed
  with the rest of the environment record.  It never adjusts a metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from tracing import SELF_TIME_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".perfbench-out"
WORKLOADS = ("table2-fast", "table4-fast")
TIME_LIMIT_S = 170.0


def emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (host-speed diagnostic)."""
    start = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value & 7
    return time.perf_counter() - start


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# --------------------------------------------------------------- the children


def fastest_segments(passes):
    """Sum over aligned inter-mark intervals of their fastest pass (None if
    the passes marked different numbers of intervals)."""
    if len({len(events) for events in passes}) != 1:
        return None
    return sum(
        min(events[k + 1] - events[k] for events in passes)
        for k in range(len(passes[0]) - 1)
    )


def child(args) -> int:
    """Set up the workload; for ``--role measure`` also run and check passes."""
    tracer = Tracer() if args.trace else None
    setup_span = tracer.open("setup") if tracer else None
    import workloads

    if tracer:
        tracer.install_layer_patches()
    workload = workloads.build(args.workload, args.size, args.seed)
    workload.setup()
    if tracer:
        tracer.uninstall()
        tracer.close(setup_span)
    ready = time.monotonic()
    if args.role == "setup":
        emit({"ready": ready})
        return 0

    gate = workloads.Gate()
    reference_counts = None
    report = {
        "ready": ready,
        "attempted": workload.planned_learns,
        "failed": 0,
        "misses": [],
        "violations": [],
        "kernels": [],
    }
    pass_events, pass_walls = [], []

    def run_one(marks) -> bool:
        nonlocal reference_counts
        gc.collect()
        start = time.perf_counter()
        raised = False
        try:
            with marks:
                workload.run_pass(marks)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            raised = True
        wall = time.perf_counter() - start
        failed, misses = workloads.check_pass(workload, marks.learns, gate)
        report["failed"] = max(report["failed"], failed)
        violations = workloads.counter_violations(workload, marks.learns)
        counts = {learn.label: learn.counts() for learn in marks.learns}
        if reference_counts is None:
            reference_counts = counts
        elif counts != reference_counts:
            violations.append("counts differ between passes of one run")
        for key, found in (("misses", misses), ("violations", violations)):
            report[key].extend(line for line in found if line not in report[key])
        report["kernels"] = sorted({learn.kernel for learn in marks.learns})
        if not raised:
            pass_events.append(marks.events)
            pass_walls.append(wall)
        return not raised

    # The traced run needs only an untraced reference for trace.overhead: two
    # passes, so the first pass's one-time costs stay out of the reference.
    planned = 2 if args.trace else workload.passes(args.seconds)
    # The other set-up samples are timed between passes, spread over the
    # run, so their median does not hang on one stretch of host speed.
    extra = 0 if args.trace else workloads.SETUP_SAMPLES - 1
    report["setup_samples_s"] = setups = []
    while len(pass_walls) < planned and run_one(workloads.LearnMarks()):
        done = len(pass_walls)
        for _ in range(extra * done // planned - extra * (done - 1) // planned):
            setups.append(spawn("setup", args, args.hard_deadline)["setup_s"])
        if done < planned and time.monotonic() + pass_walls[-1] > args.hard_deadline:
            report["violations"].append(
                f"time limit cut the run to {done} of {planned} passes"
            )
            break
    report["counts"] = reference_counts or {}
    report["pass_walls"] = pass_walls
    OUTPUT.mkdir(exist_ok=True)
    marks_path = OUTPUT / f"marks-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    marks_path.write_text(json.dumps(pass_events))
    report["wall_s"] = fastest_segments(pass_events) if pass_events else None
    if report["wall_s"] is None and pass_events:
        report["violations"].append("query-engine batch sequence differs between passes")

    if tracer and pass_walls:
        untraced_wall = min(pass_walls)
        marks = workloads.LearnMarks(tracer)
        tracer.install_layer_patches()
        try:
            run_one(marks)
        finally:
            tracer.uninstall()
        report["per_layer"] = per_layer(
            workload, tracer, marks.learns, marks.root, untraced_wall, report
        )
        tracer.write(str(OUTPUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.tsv"))

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    emit(report)
    return 0


def per_layer(workload, tracer, learns, root, untraced_wall, report):
    """Per-layer metrics of the traced pass (and its traced set-up)."""
    summary = tracer.layer_summary()
    setup_summary = tracer.layer_summary(0, root)
    counters = tracer.counters
    traced_wall = tracer.ends[root] - tracer.starts[root]
    traced_setup = tracer.ends[0] - tracer.starts[0]

    def total(field):
        return sum(getattr(learn, field) for learn in learns)

    metrics = {
        metric: summary.get(span, {"self_s": 0.0})["self_s"]
        for span, metric in SELF_TIME_METRICS.items()
    }
    calls = {span: summary.get(span, {"calls": 0})["calls"] for span in SELF_TIME_METRICS}
    requested = counters["query_engine.words_requested"]
    metrics.update(
        {
            "query_engine.cache_hits": total("cache_hits"),
            "query_engine.subsumed_words": total("subsumed_words"),
            "query_engine.batches": total("batches"),
            "query_engine.hit_ratio": total("cache_hits") / requested if requested else 0.0,
            "learner.queries": total("engine_queries") - counters["suite.queries"],
            "learner.symbols": total("engine_symbols") - counters["suite.symbols"],
            "learner.rounds": counters["learner.rounds"],
            "equivalence.test_words": total("test_words"),
            "mealy.run_calls": calls["mealy"],
            "polca.policy_queries": total("policy_queries"),
            "polca.cache_probes": total("cache_probes"),
            "polca.block_accesses": total("block_accesses"),
            "simkernel.step_calls": calls["simkernel.step"],
            "simkernel.symbols": counters["simkernel.symbols"],
            "cachequery.executed_queries": counters["cachequery.executed_queries"],
            "cachequery.executed_loads": counters["cachequery.executed_loads"],
            "cachequery.response_hits": counters["cachequery.response_hits"],
            "cachequery.response_misses": counters["cachequery.response_misses"],
            "store.trie_nodes": counters["store.trie_nodes"],
            "trace.wall_s": traced_wall,
            "trace.setup_s": traced_setup,
            "trace.overhead": traced_wall / untraced_wall,
            "trace.spans": len(tracer.starts),
        }
    )

    checks = report.setdefault("checks", [])
    violations = report["violations"]
    self_total = sum(entry["self_s"] for entry in summary.values())
    checks.append(
        f"self times sum to {self_total:.6f} s; traced set-up + pass = "
        f"{traced_setup + traced_wall:.6f} s"
    )
    if abs(self_total - (traced_setup + traced_wall)) > 1e-6 * max(1.0, self_total):
        violations.append("per-layer self times do not sum to the traced wall clock")
    if counters["query_engine.cache_hits"] != total("cache_hits"):
        violations.append("traced engine hits disagree with QueryStatistics")
    for span in workload.loads:
        if not calls[span]:
            violations.append(f"loaded layer {span} recorded no calls")
    for span in workload.bypasses:
        if calls[span]:
            violations.append(f"bypassed layer {span} recorded {calls[span]} calls")
    report["calls"] = calls
    if workload.size != "full":
        return metrics  # the predictions are about the full-size workloads
    in_pass = {
        name: entry["self_s"] - setup_summary.get(name, {"self_s": 0.0})["self_s"]
        for name, entry in summary.items()
        if name != "harness"
    }
    largest = max(in_pass, key=in_pass.get) if in_pass else None
    verdict = "holds" if largest in workload.dominant else "FAILED"
    checks.append(
        f"prediction {verdict}: largest self time in the pass is {largest}, "
        f"predicted {' or '.join(workload.dominant)}"
    )
    return metrics


# ----------------------------------------------------------------- the parent


def environment() -> dict:
    record = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        record["numpy"] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        record["numpy"] = "absent"
    record["commit"] = "absent"
    if (ROOT / ".git").exists():
        try:
            record["commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return record


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "absent"


def spawn(role: str, args, deadline: float) -> dict:
    """Run one child interpreter to completion; return its JSON payload."""
    command = [
        sys.executable, str(Path(__file__)), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--hard-deadline", repr(deadline - 10.0),
    ]
    paths = [str(SOURCE)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    started = time.monotonic()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError(f"{role} interpreter exceeded the time limit")
    if process.returncode != 0:
        raise RuntimeError(f"{role} interpreter exited with code {process.returncode}")
    payload = json.loads(stdout.strip().splitlines()[-1])
    payload["setup_s"] = payload["ready"] - started
    return payload


def source_fingerprint() -> str:
    digest = hashlib.sha1()
    for path in sorted(SOURCE.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cross_run_violations(args, counts: dict) -> list:
    """Counts must repeat across every run of the same code in this checkout."""
    OUTPUT.mkdir(exist_ok=True)
    path = OUTPUT / f"counts-{args.workload}-{args.size}-{source_fingerprint()}.json"
    if path.exists():
        if json.loads(path.read_text()) != counts:
            return [f"counts differ from an earlier run of the same code ({path.name})"]
        return []
    path.write_text(json.dumps(counts, sort_keys=True))
    return []


def parent(args) -> int:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SOURCE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + TIME_LIMIT_S
    # Build: compile the sources once, so set-up times imports, not compilation.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SOURCE), str(HERE)],
        check=True, stdout=subprocess.DEVNULL,
    )
    record = environment()
    record["loadavg_before"] = loadavg()
    record["calibration_before_s"] = calibrate()
    try:
        result = spawn("measure", args, deadline)
    except (RuntimeError, ValueError, IndexError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    setups = [result["setup_s"]] + result["setup_samples_s"]
    record["calibration_after_s"] = calibrate()
    record["loadavg_after"] = loadavg()
    record["kernel"] = ",".join(result["kernels"]) or "none"

    counts = result["counts"]
    violations = list(result["violations"]) + cross_run_violations(args, counts)

    def total(field):
        return sum(entry[field] for entry in counts.values())

    if args.trace:
        values = result.get("per_layer", {})
    else:
        values = {
            "wall_s": result["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "executed_queries": total("executed_queries"),
            "executed_symbols": total("executed_symbols"),
            "cache_probes": total("cache_probes"),
            "states_learned": total("states"),
        }
    metrics = {}
    for metric in listed:
        value = values.get(metric["name"])
        if value is None:
            violations.append(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    print(f"workload {args.workload} ({args.size}), seed {args.seed}, trace {args.trace}")
    for key, value in record.items():
        print(f"  env {key}: {value}")
    if not args.trace:
        walls = result["pass_walls"]
        q1, q3 = quartiles(walls)
        print(
            f"  passes: median {statistics.median(walls):.4f} s "
            f"[q1 {q1:.4f}, q3 {q3:.4f}], n={len(walls)}"
        )
        q1, q3 = quartiles(setups)
        print(f"  set-ups: median {statistics.median(setups):.4f} s [q1 {q1:.4f}, q3 {q3:.4f}], n={len(setups)}")
    else:
        for span, calls in sorted(result.get("calls", {}).items()):
            print(f"  calls {span}: {calls}")
        for line in result.get("checks", []):
            print(f"  {line}")
    for name, entry in metrics.items():
        value = entry["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name} = {shown} {entry['unit']}")
    print(f"  learns = {result['attempted']} count")
    print(f"  failed_learns = {result['failed']} count")
    for line in result["misses"]:
        print(f"  MISS {line}")
    for line in violations:
        print(f"  VIOLATION {line}")
    correct = result["failed"] == 0 and not violations
    emit(
        {
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--hard-deadline", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.role:
        return child(args)
    if args.workload != "all":
        return parent(args)
    # Every workload in turn, each in its own interpreters; the worst exit code wins.
    return max(
        parent(argparse.Namespace(**{**vars(args), "workload": name})) for name in WORKLOADS
    )


if __name__ == "__main__":
    sys.exit(main())
