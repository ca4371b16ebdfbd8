"""Table 4 — learning policies from (simulated) hardware through CacheQuery.

Each benchmark runs the complete hardware pipeline — CacheQuery backend on a
simulated CPU, MBL queries, Polca, learner — for one (CPU, cache level)
target and checks that the identified policy matches the one the paper
reports (PLRU on the L1s and Haswell's L2, New1 on Skylake/Kaby Lake L2,
New2 on the L3 leader sets).  The fast profile shrinks the associativity to
2 (via CAT for the L3s and a reduced profile for L1/L2); the policies, set
selection, reset sequences and the whole measurement stack are identical to
the paper-sized run (``repro-experiments table4 --mode standard|full``).

Haswell's L3 is reported as not learnable (no CAT support), as in the paper.
Each learnable target also pins what its CacheQuery backend executed: the
sweep runs 1,120 queries and 64,716 loads, most of them eviction-set loads
that filter the L2/L3 targets' accesses out of the closer levels.
"""

import pytest

from conftest import run_once

import repro.experiments.table4 as table4_module
from repro.cachequery.frontend import CacheQuery
from repro.experiments.table4 import (
    Table4Configuration,
    run_table4_configuration,
    table4_configurations,
)

FAST_CONFIGURATIONS = [c for c in table4_configurations("fast") if c.learnable]
UNLEARNABLE = [c for c in table4_configurations("fast") if not c.learnable]

#: (executed queries, executed loads) of each target's backend.
EXECUTED = {
    ("i7-4790", "L1"): (54, 317),
    ("i7-4790", "L2"): (54, 1417),
    ("i5-6500", "L1"): (54, 317),
    ("i5-6500", "L2"): (54, 1417),
    ("i5-6500", "L3"): (398, 29757),
    ("i7-8550U", "L1"): (54, 317),
    ("i7-8550U", "L2"): (54, 1417),
    ("i7-8550U", "L3"): (398, 29757),
}


def test_executed_counts_cover_the_sweep():
    assert sorted(EXECUTED) == sorted((c.cpu, c.level) for c in FAST_CONFIGURATIONS)
    assert sum(queries for queries, _ in EXECUTED.values()) == 1120
    assert sum(loads for _, loads in EXECUTED.values()) == 64716


@pytest.mark.parametrize(
    "configuration",
    FAST_CONFIGURATIONS,
    ids=[f"{c.cpu}-{c.level}" for c in FAST_CONFIGURATIONS],
)
def test_table4_hardware_learning(benchmark, monkeypatch, configuration):
    frontends = []

    def recording_frontend(*args, **kwargs):
        frontends.append(CacheQuery(*args, **kwargs))
        return frontends[-1]

    monkeypatch.setattr(table4_module, "CacheQuery", recording_frontend)
    row = run_once(benchmark, run_table4_configuration, configuration)
    assert row.identified_policy == row.paper_policy
    assert row.learned_states is not None and row.learned_states >= 2
    (frontend,) = frontends
    backend = frontend.backend
    executed = (backend.executed_queries, backend.executed_loads)
    assert executed == EXECUTED[configuration.cpu, configuration.level]
    benchmark.extra_info["cpu"] = row.cpu
    benchmark.extra_info["level"] = row.level
    benchmark.extra_info["identified_policy"] = row.identified_policy
    benchmark.extra_info["learned_states"] = row.learned_states
    benchmark.extra_info["paper_states_at_full_associativity"] = row.paper_states
    benchmark.extra_info["reset"] = row.reset
    benchmark.extra_info["note"] = row.note


@pytest.mark.parametrize(
    "configuration", UNLEARNABLE, ids=[f"{c.cpu}-{c.level}" for c in UNLEARNABLE]
)
def test_table4_unlearnable_targets_are_reported(benchmark, configuration):
    """Haswell's L3 cannot be learned (no CAT), matching the paper's '–' entries."""
    row = run_once(benchmark, run_table4_configuration, configuration)
    assert row.learned_states is None
    assert row.identified_policy is None
    benchmark.extra_info["skip_reason"] = row.note
