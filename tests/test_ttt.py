"""Unit tests for the TTT refinements of the classification-tree learner.

Covers the two TTT mechanisms on their own terms — discriminator
finalization (temporary suffixes replaced by verified shortest
candidates, never longer) and incremental sifting (post-split re-sift
volume bounded by the split leaf's residents, not the whole transition
table) — plus the facade (``make_learner("ttt")``), store/resume
interaction, and the ``learner_symbols`` accounting the comparison
benchmarks read.  The tree's own mechanics (sifting, splitting,
refinement, LCA suffixes, the minimality-repair pair search) and the
loud failures for unknown learners are in ``tests/test_kv.py``; the
registry-wide ground-truth matrix lives in
``tests/test_differential_learning.py``; random-machine fuzzing in
``tests/test_property_fuzz.py``.
"""
from __future__ import annotations

import pytest

from repro.core.mealy import MealyMachine
from repro.errors import LearningError
from repro.experiments.table2 import run_table2
from repro.learning.equivalence import PerfectEquivalenceOracle
from repro.learning.learner import LEARNER_NAMES, make_learner
from repro.learning.oracles import CachedMembershipOracle, MealyMachineOracle
from repro.learning.ttt import TTTLearner, TTTTree
from repro.polca.pipeline import learn_simulated_policy
from repro.policies.registry import available_policies, make_policy

#: A 3-state minimal reference machine: ``b`` walks 0 -> 1 -> 2 -> 0 and
#: every state has a distinct output signature.
REFERENCE = MealyMachine(
    states=[0, 1, 2],
    initial_state=0,
    inputs=["a", "b"],
    transitions={
        (0, "a"): 0,
        (0, "b"): 1,
        (1, "a"): 1,
        (1, "b"): 2,
        (2, "a"): 0,
        (2, "b"): 0,
    },
    outputs={
        (0, "a"): "x",
        (0, "b"): "y",
        (1, "a"): "z",
        (1, "b"): "y",
        (2, "a"): "x",
        (2, "b"): "z",
    },
)


def _tree(machine: MealyMachine = REFERENCE) -> TTTTree:
    return TTTTree(machine.inputs, CachedMembershipOracle(MealyMachineOracle(machine)))


def _learn_ttt(machine: MealyMachine = REFERENCE) -> TTTLearner:
    engine = CachedMembershipOracle(MealyMachineOracle(machine))
    learner = TTTLearner(machine.inputs, engine, PerfectEquivalenceOracle(machine))
    learner.learn()
    return learner


# ------------------------------------------------------------------ the tree


class TestTTTTree:
    def test_no_seeded_chain_root_is_a_single_symbol(self):
        tree = _tree()
        assert tree.root.suffix == (REFERENCE.inputs[0],)
        assert tree.root.children == {}
        # Every discriminator the finished tree holds was created by a split
        # (or is the root): there is no seeded single-symbol chain.
        learner = _learn_ttt()
        assert all(len(s) >= 1 for s in learner.tree.discriminators())
        assert len(learner.tree.discriminators()) == learner.tree.num_states - 1

    def test_learns_the_reference_bit_identically(self):
        learner = _learn_ttt()
        assert learner.tree.hypothesis().minimize() == REFERENCE

    def test_idle_hypothesis_rebuild_executes_nothing(self):
        """Incremental sifting: with nothing pending, a rebuild is pure
        table assembly — zero new executions, zero new engine queries."""
        learner = _learn_ttt()
        tree = learner.tree
        before = learner.membership_oracle.statistics.membership_queries
        machine = tree.hypothesis()
        assert learner.membership_oracle.statistics.membership_queries == before
        assert machine.size == REFERENCE.size

    def test_growth_accounting_sums_to_the_state_count(self):
        learner = _learn_ttt()
        tree = learner.tree
        assert tree.leaves_from_sifting + tree.leaves_from_splits == tree.num_states
        assert tree.num_states == REFERENCE.size


# -------------------------------------------------------------- finalization


class TestFinalization:
    def test_finalized_discriminators_are_never_longer(self):
        """The core TTT pin: every finalization replaced a temporary suffix
        with one of at most the same length."""
        for policy_name in ("NEW2", "CLOCK", "SRRIP-HP"):
            report = learn_simulated_policy(
                make_policy(policy_name, 2), depth=1, identify=False, learner="ttt"
            )
            shrinkage = report.extra["ttt_finalization_shrinkage"]
            assert shrinkage, f"{policy_name}: no split was ever finalized"
            assert all(final <= temporary for temporary, final in shrinkage)

    def test_extension_search_adopts_on_larger_machines(self):
        """Past the first split the paid singles round rarely separates the
        two leaves; one-symbol extensions of final discriminators, decided
        from the response trie alone, still shorten suffixes on larger
        machines (NRU-3: a length-3 suffix finalized to length 2)."""
        report = learn_simulated_policy(
            make_policy("NRU", 3), depth=1, identify=False, learner="ttt"
        )
        shrinkage = report.extra["ttt_finalization_shrinkage"]
        assert any(1 < final < temporary for temporary, final in shrinkage), shrinkage

    def test_every_split_is_accounted_finalized_or_temporary(self):
        report = learn_simulated_policy(
            make_policy("SRRIP-HP", 2), depth=1, identify=False, learner="ttt"
        )
        assert (
            report.extra["ttt_finalized_discriminators"]
            + report.extra["ttt_temporary_discriminators"]
            == report.extra["kv_leaves_from_splits"]
        )


# -------------------------------------------------------- incremental sifting


class TestIncrementalSifting:
    def test_post_split_resift_is_bounded_by_the_split_subtree(self):
        """Each split re-enqueues at most the words parked on the split leaf
        — always strictly below the full transition table a from-scratch
        rebuild would re-sift."""
        report = learn_simulated_policy(
            make_policy("SRRIP-HP", 2), depth=1, identify=False, learner="ttt"
        )
        resifted = report.extra["ttt_words_resifted_per_split"]
        assert len(resifted) == report.extra["kv_leaves_from_splits"]
        full_table = report.num_states * len(report.machine.inputs)
        assert all(0 <= count < full_table for count in resifted)

    def test_nru_pays_no_fanin_resift_overhead(self):
        """NRU is the policy where re-sifting every transition into a split
        leaf made a from-scratch tree rebuild ask *more* executed learner
        queries than L*; the residency map removes exactly that overhead."""
        lstar = learn_simulated_policy(
            make_policy("NRU", 2), depth=1, identify=False, learner="lstar"
        )
        ttt = learn_simulated_policy(
            make_policy("NRU", 2), depth=1, identify=False, learner="ttt"
        )
        assert ttt.machine == lstar.machine
        assert ttt.extra["learner_queries"] <= lstar.extra["learner_queries"]


# --------------------------------------------------------- registry-wide cost


@pytest.mark.parametrize("policy_name", available_policies())
def test_ttt_issues_at_most_lstar_learner_queries(policy_name):
    """TTT ≤ L* on executed learner-attributed queries across the registry.

    ``learner_queries`` excludes conformance-suite executions, which depend
    on how much of the suite's vocabulary each learner happened to
    pre-cache — the suite asks the same *questions* either way.
    """
    lstar = learn_simulated_policy(
        make_policy(policy_name, 2), depth=1, identify=False, learner="lstar"
    )
    ttt = learn_simulated_policy(
        make_policy(policy_name, 2), depth=1, identify=False, learner="ttt"
    )
    assert ttt.machine == lstar.machine
    assert ttt.extra["learner_queries"] <= lstar.extra["learner_queries"]


def test_learner_symbols_accounting():
    """``learner_symbols`` mirrors ``learner_queries``: positive, bounded by
    the engine's executed-symbol total, and the suite-attribution identity
    holds for every learner."""
    for learner_name in LEARNER_NAMES:
        report = learn_simulated_policy(
            make_policy("SRRIP-HP", 2), depth=1, identify=False, learner=learner_name
        )
        result = report.learning_result
        assert 0 < result.learner_symbols <= result.statistics.membership_symbols
        assert report.extra["learner_symbols"] == result.learner_symbols


# --------------------------------------------------------- store interaction


class TestStoreAndResume:
    def test_warm_store_answers_a_repeat_ttt_run_without_executing(self, tmp_path):
        path = str(tmp_path / "ttt-store.json")
        configurations = [("SRRIP-HP", 2)]
        cold = run_table2(
            configurations=configurations, cache_path=path, learner="ttt"
        )
        assert cold[0].membership_queries > 0
        warm = run_table2(
            configurations=configurations, cache_path=path, learner="ttt"
        )
        assert warm[0].membership_queries == 0
        assert warm[0].learner_queries == 0
        assert warm[0].learner_symbols == 0
        assert warm[0].learned_states == cold[0].learned_states
        assert warm[0].learner == "ttt"

    def test_ttt_resume_sessions_learn_the_identical_machine(self):
        serial = learn_simulated_policy(
            make_policy("SRRIP-HP", 2), depth=1, identify=False, learner="ttt"
        )
        resumed = learn_simulated_policy(
            make_policy("SRRIP-HP", 2),
            depth=1,
            identify=False,
            learner="ttt",
            resume=True,
        )
        assert resumed.machine == serial.machine
        assert resumed.extra["resume"] is True


# --------------------------------------------------------------- the facade


def test_make_learner_builds_a_ttt_learner():
    engine = CachedMembershipOracle(MealyMachineOracle(REFERENCE))
    learner = make_learner(
        "TTT", REFERENCE.inputs, engine, PerfectEquivalenceOracle(REFERENCE)
    )
    assert isinstance(learner, TTTLearner)
    assert learner.name == "ttt"


def test_unknown_learner_error_lists_the_valid_names():
    engine = CachedMembershipOracle(MealyMachineOracle(REFERENCE))
    with pytest.raises(LearningError) as excinfo:
        make_learner(
            "observation-pack",
            REFERENCE.inputs,
            engine,
            PerfectEquivalenceOracle(REFERENCE),
        )
    message = str(excinfo.value)
    for name in LEARNER_NAMES:
        assert name in message
