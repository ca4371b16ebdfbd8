"""Tests of the learning benchmark: the gate counts wrong machines, and the
smoke size of every workload prints exactly the metrics BENCHMARK.json lists."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_pass(name):
    workload = workloads.build(name, "smoke", seed=0)
    workload.setup()
    marks = workloads.LearnMarks()
    with marks:
        workload.run_pass(marks)
    return workload, marks.learns


def test_smoke_pass_matches_ground_truth():
    workload, learns = smoke_pass("table2-fast")
    failed, misses = workloads.check_pass(workload, learns, workloads.Gate())
    assert (failed, misses) == (0, [])
    assert len(learns) == workload.planned_learns
    assert workloads.counter_violations(workload, learns) == []


def test_planted_wrong_machine_counts_as_failed_learn():
    workload, learns = smoke_pass("table2-fast")
    wrong = workloads.make_policy("FIFO", 4).to_mealy().minimize()
    learns[0] = dataclasses.replace(learns[0], machine=wrong)
    failed, misses = workloads.check_pass(workload, learns, workloads.Gate())
    assert failed == 1
    name, associativity = learns[0].reference
    assert f"differs from {name}-{associativity}" in misses[0]


def test_undelivered_learn_counts_as_failed():
    workload, learns = smoke_pass("table2-fast")
    failed, misses = workloads.check_pass(workload, learns[:-1], workloads.Gate())
    assert (failed, misses) == (1, [])


def run_smoke(name, trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_smoke(name):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = run_smoke(name, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {key: entry["unit"] for key, entry in result["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in listed
        }


@pytest.mark.parametrize("name", ["table2-fast", "table4-fast"])
def test_smoke_run_prints_every_listed_metric(name):
    check_smoke(name)


def test_fails_cleanly_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table4-fast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
