"""Unit tests for the Kearns–Vazirani classification tree.

KV's tree and TTT's are one class: :class:`repro.learning.ttt.TTTTree`,
still importable as ``repro.learning.kv.ClassificationTree``, which these
tests use so the historical name stays a working tree.  The learner on
top of it is the ``"ttt"`` learner; there is no separate ``"kv"`` learner
any more, and ``make_learner("kv")`` fails like any unknown name.

Covers the tree's own semantics (sift-based state discovery, splitting),
counterexample-driven refinement, the minimality-repair pair search, the
query- and symbol-count comparison against L* across the policy registry,
the interaction with persistent stores, and the loud
failures for unknown learners and unsupported strategies.  The TTT
mechanisms (finalization, incremental sifting) are pinned in
``tests/test_ttt.py``; the registry-wide ground-truth matrix lives in
``tests/test_differential_learning.py``; random-machine fuzzing in
``tests/test_property_fuzz.py``.
"""

from __future__ import annotations

import pytest

from repro.core.mealy import MealyMachine
from repro.errors import LearningError
from repro.experiments.table2 import run_table2
from repro.learning.equivalence import PerfectEquivalenceOracle
from repro.learning.kv import ClassificationTree
from repro.learning.learner import LEARNER_NAMES, MealyLearner, make_learner
from repro.learning.oracles import CachedMembershipOracle, MealyMachineOracle
from repro.learning.ttt import TTTLearner, TTTTree, equivalent_state_pair
from repro.polca.interfaces import SimulatedCacheInterface
from repro.polca.pipeline import learn_policy_from_cache, learn_simulated_policy
from repro.policies.registry import available_policies, make_policy
from repro.store import PrefixStore

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


def _tree(machine: MealyMachine = REFERENCE) -> ClassificationTree:
    return ClassificationTree(
        machine.inputs, CachedMembershipOracle(MealyMachineOracle(machine))
    )


def _learn_tree(machine: MealyMachine = REFERENCE) -> TTTLearner:
    engine = CachedMembershipOracle(MealyMachineOracle(machine))
    learner = TTTLearner(machine.inputs, engine, PerfectEquivalenceOracle(machine))
    learner.learn()
    return learner


# ------------------------------------------------------------------- sifting


class TestSift:
    def test_sifting_the_empty_word_creates_the_initial_state(self):
        tree = _tree()
        assert ClassificationTree is TTTTree
        assert tree.num_states == 0  # leaves appear only by sifting
        tree.hypothesis()
        leaf = tree._leaves[()]
        assert leaf.state == 0
        assert leaf.access == ()
        assert tree.access_word(0) == ()

    def test_sifting_an_access_word_returns_its_own_leaf(self):
        tree = _tree()
        hypothesis = tree.hypothesis()
        # Every access word but ε is some transition word access(p) + (a,):
        # its sift discovered the state, so the transition lands on it.
        for state, access in enumerate(tree.access_words()):
            assert hypothesis.state_after(access) == state

    def test_sifting_an_equivalent_word_reuses_the_leaf(self):
        tree = _tree()
        hypothesis = tree.hypothesis()
        # ("a",) stays in state 0, so it must classify to state 0's leaf
        # without growing the tree.
        assert ("a",) not in tree.access_words()
        assert hypothesis.transitions[(0, "a")] == 0
        before = tree.num_states
        tree.hypothesis()
        assert tree.num_states == before

    def test_first_hypothesis_discovers_output_distinct_states_by_sifting(self):
        tree = _tree()
        hypothesis = tree.hypothesis()
        # The root discriminator ("a",) separates output tails x and z, so
        # sifting alone discovers those two states; state 2 answers x like
        # ε and needs a counterexample (a split) to surface.
        assert hypothesis.size == 2
        assert tree.access_words() == ((), ("b",))
        assert tree.leaves_from_sifting == 2
        assert tree.leaves_from_splits == 0
        assert hypothesis.minimize().size == 2

    def test_access_words_are_prefix_closed(self):
        learner = _learn_tree()
        access = set(learner.tree.access_words())
        for word in access:
            assert not word or word[:-1] in access

    def test_empty_alphabet_is_rejected(self):
        with pytest.raises(LearningError):
            ClassificationTree((), CachedMembershipOracle(MealyMachineOracle(REFERENCE)))


# ---------------------------------------------------------------- refinement


class TestRefinement:
    def test_split_adds_exactly_one_state_and_one_discriminator(self):
        # After the first hypothesis ("b", "b") still sits on ε's leaf: both
        # answer x to the root suffix ("a",).  Suffix ("b", "b") answers
        # (y, y) after ε but (z, y) after ("b", "b").
        tree = _tree()
        tree.hypothesis()
        suffixes_before = len(tree.discriminators())
        tree.split(tree._leaves[()], ("b", "b"), ("b", "b"))
        assert tree.num_states == 3
        assert len(tree.discriminators()) == suffixes_before + 1
        assert tree.leaves_from_splits == 1
        assert tree.access_words() == ((), ("b",), ("b", "b"))
        # The verbatim suffix was finalized down to the single symbol that
        # separates the two leaves.
        assert tree.finalization_shrinkage == [(2, 1)]
        assert ("b",) in tree.discriminators()
        assert tree.temporary_discriminators == 0
        assert tree.hypothesis().minimize() == REFERENCE

    def test_split_rejects_empty_suffix(self):
        tree = _tree()
        tree.hypothesis()
        with pytest.raises(LearningError):
            tree.split(tree._leaves[()], ("b", "b"), ())

    def test_split_rejects_non_distinguishing_suffix(self):
        tree = _tree()
        tree.hypothesis()
        # ("a",) after ε and after ("b", "b") both answer "x": no split.
        with pytest.raises(LearningError):
            tree.split(tree._leaves[()], ("b", "b"), ("a",))

    def test_refine_rejects_a_spurious_counterexample(self):
        learner = _learn_tree()
        tree = learner.tree
        hypothesis = tree.hypothesis()
        # Learning is exact, so every word agrees — any "counterexample"
        # must be called out as spurious instead of corrupting the tree.
        with pytest.raises(LearningError, match="spurious"):
            tree.refine(hypothesis, ("b", "b", "a"))

    def test_refinement_accounting_sums_to_the_state_count(self):
        learner = _learn_tree()
        tree = learner.tree
        assert tree.leaves_from_sifting + tree.leaves_from_splits == tree.num_states
        assert tree.num_states == REFERENCE.size

    def test_lca_suffix_requires_distinct_states(self):
        learner = _learn_tree()
        with pytest.raises(LearningError):
            learner.tree.lca_suffix(0, 0)

    def test_lca_suffix_separates_the_pair(self):
        learner = _learn_tree()
        tree = learner.tree
        suffix = tree.lca_suffix(0, 2)
        assert tuple(REFERENCE.run(tree.access_word(0) + suffix)) != tuple(
            REFERENCE.run(tree.access_word(2) + suffix)
        )


class TestEquivalentStatePair:
    def test_minimal_machine_has_no_pair(self):
        assert equivalent_state_pair(REFERENCE) is None

    def test_duplicated_state_is_found(self):
        doubled = MealyMachine(
            states=[0, 1],
            initial_state=0,
            inputs=["a"],
            transitions={(0, "a"): 1, (1, "a"): 0},
            outputs={(0, "a"): "x", (1, "a"): "x"},
        )
        assert equivalent_state_pair(doubled) == (0, 1)


# ------------------------------------------------------- query-count compare


@pytest.mark.parametrize("policy_name", available_policies())
def test_kv_issues_at_most_lstar_learner_queries(policy_name):
    """The tree learner ≤ L* on executed learner-attributed queries *and*
    symbols across the registry, with no per-policy allowance.

    KV's from-scratch re-sift once cost NRU a few queries more than L*;
    the residency map removed that overhead, so the bound is now exact.
    ``learner_queries``/``learner_symbols`` exclude conformance-suite
    executions, which depend on how much of the suite's vocabulary each
    learner happened to pre-cache — the suite asks the same *questions*
    either way.
    """
    lstar = learn_simulated_policy(
        make_policy(policy_name, 2), depth=1, identify=False, learner="lstar"
    )
    tree = learn_simulated_policy(
        make_policy(policy_name, 2), depth=1, identify=False, learner="ttt"
    )
    assert tree.machine == lstar.machine
    assert tree.learning_result.learner_queries <= lstar.learning_result.learner_queries
    assert tree.learning_result.learner_symbols <= lstar.learning_result.learner_symbols


def test_per_round_queries_sum_to_engine_total():
    for learner_name in LEARNER_NAMES:
        report = learn_simulated_policy(
            make_policy("SRRIP-HP", 2), depth=1, identify=False, learner=learner_name
        )
        result = report.learning_result
        assert result.learner == learner_name
        assert len(result.per_round_queries) == result.rounds
        assert sum(result.per_round_queries) == result.statistics.membership_queries
        assert 0 < result.learner_queries <= result.statistics.membership_queries


# --------------------------------------------------------- store interaction


class TestStoreAndResume:
    def test_warm_store_answers_a_repeat_kv_run_without_executing(self, tmp_path):
        path = str(tmp_path / "tree-store.json")
        configurations = [("NRU", 2)]
        cold = run_table2(
            configurations=configurations, store=PrefixStore(path), learner="ttt"
        )
        assert cold[0].membership_queries > 0
        warm = run_table2(
            configurations=configurations, store=PrefixStore(path), learner="ttt"
        )
        assert warm[0].membership_queries == 0
        assert warm[0].learner_queries == 0
        assert warm[0].learned_states == cold[0].learned_states
        assert warm[0].learner == "ttt"

    def test_kv_reads_a_store_warmed_by_lstar(self, tmp_path):
        """Cross-learner warm start: the store keys on measurements, not on
        who asked, so the tree learner reuses L*'s observations."""
        path = str(tmp_path / "cross-store.json")
        configurations = [("SRRIP-HP", 2)]
        cold = run_table2(
            configurations=configurations, store=PrefixStore(path), learner="lstar"
        )
        warm = run_table2(
            configurations=configurations, store=PrefixStore(path), learner="ttt"
        )
        assert warm[0].learned_states == cold[0].learned_states
        assert warm[0].learner == "ttt"
        # The tree's sift vocabulary is a subset of what the L* run measured
        # (table rows + suite), so the warm run executes nothing new.
        assert warm[0].membership_queries == 0

    def test_kv_scalar_replay_learns_the_identical_machine(self):
        tabulated = learn_simulated_policy(
            make_policy("CLOCK", 2), depth=1, identify=False, learner="ttt"
        )
        scalar = learn_simulated_policy(
            make_policy("CLOCK", 2),
            depth=1,
            identify=False,
            learner="ttt",
            kernel="scalar",
        )
        assert scalar.machine == tabulated.machine
        assert scalar.extra["kernel"] == "scalar" != tabulated.extra["kernel"]


# ------------------------------------------------------------- forced errors


class TestForcedLearnerErrors:
    def test_make_learner_rejects_unknown_names(self):
        engine = CachedMembershipOracle(MealyMachineOracle(REFERENCE))
        for name in ("nope", "kv"):
            with pytest.raises(LearningError, match="unknown learner"):
                make_learner(
                    name, REFERENCE.inputs, engine, PerfectEquivalenceOracle(REFERENCE)
                )

    def test_kv_rejects_the_prefix_counterexample_strategy(self):
        engine = CachedMembershipOracle(MealyMachineOracle(REFERENCE))
        with pytest.raises(LearningError, match="does not support"):
            TTTLearner(
                REFERENCE.inputs,
                engine,
                PerfectEquivalenceOracle(REFERENCE),
                counterexample_strategy="prefixes",
            )

    def test_lstar_still_accepts_both_strategies(self):
        engine = CachedMembershipOracle(MealyMachineOracle(REFERENCE))
        for strategy in ("rivest-schapire", "prefixes"):
            MealyLearner(
                REFERENCE.inputs,
                engine,
                PerfectEquivalenceOracle(REFERENCE),
                counterexample_strategy=strategy,
            )

    def test_pipeline_rejects_unknown_learner_names(self):
        for name in ("nope", "kv"):
            with pytest.raises(LearningError, match="unknown learner"):
                learn_policy_from_cache(
                    SimulatedCacheInterface(make_policy("LRU", 2)), learner=name
                )

    def test_pipeline_rejects_unknown_learner_via_convenience_wrapper(self):
        with pytest.raises(LearningError, match="unknown learner"):
            learn_simulated_policy(make_policy("LRU", 2), learner="kv")


# ------------------------------------------------------------ learner facade


def test_kv_learner_reports_states_discovered_mid_structure():
    learner = _learn_tree()
    assert learner.states_discovered == REFERENCE.size
    assert learner.tree is not None
    fresh = TTTLearner(
        REFERENCE.inputs,
        CachedMembershipOracle(MealyMachineOracle(REFERENCE)),
        PerfectEquivalenceOracle(REFERENCE),
    )
    assert fresh.states_discovered == 0


def test_make_learner_builds_the_requested_learner():
    engine = CachedMembershipOracle(MealyMachineOracle(REFERENCE))
    lstar = make_learner(
        "lstar", REFERENCE.inputs, engine, PerfectEquivalenceOracle(REFERENCE)
    )
    tree = make_learner(
        "TTT", REFERENCE.inputs, engine, PerfectEquivalenceOracle(REFERENCE)
    )
    assert isinstance(lstar, MealyLearner)
    assert isinstance(tree, TTTLearner)
    assert (lstar.name, tree.name) == ("lstar", "ttt")
