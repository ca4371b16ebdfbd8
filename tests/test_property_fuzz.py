"""Property-based differential fuzzing of serial vs. fully parallel learning.

The PR 2 differential harness checks the fixed policy registry; this layer
generalises it to *generated* instances, fuzzing the whole parallel stack —
process-parallel observation-table fill **and** streamed parallel
conformance testing on one shared :class:`~repro.learning.parallel.\
WorkerPool` — against the serial reference:

* seeded random Mealy machines (random size, alphabet, outputs) learned
  serially and with a 2-worker pool must produce **field-by-field
  identical** results: the machine (states, transitions, outputs — ``==``,
  not mere equivalence), the round count and the counterexample sequence;
* the tree learner (TTT) must learn each seeded machine *itself* — ``==``
  the reference, serially and in parallel — and so must L*, so the two
  learners agree;
* seeded random policy configurations from the registry, learned through
  the full Polca pipeline both ways, must agree the same way; and
* replaying seeded random words against a fresh reference (the machine
  itself, or a fresh Polca-driven simulator) must match the learned
  machine, catching a bug that corrupted both runs identically.

The default budget is intentionally small (seconds); the wide sweeps are
``slow``-marked.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import asdict
from typing import List, Tuple

import pytest

from repro.core.mealy import MealyMachine
from repro.learning.equivalence import ConformanceEquivalenceOracle
from repro.learning.learner import LearningResult, MealyLearner
from repro.learning.ttt import TTTLearner
from repro.learning.oracles import CachedMembershipOracle, MealyMachineOracle
from repro.learning.parallel import MealyMachineOracleFactory, WorkerPool
from repro.polca.algorithm import PolcaMembershipOracle
from repro.polca.interfaces import SimulatedCacheInterface
from repro.polca.pipeline import learn_simulated_policy
from repro.policies.registry import available_policies, make_policy

#: Seeds for the default (fast) machine budget; every seed learns exactly at
#: conformance depth 2 (verified — see the replay assertion below).
FAST_MACHINE_SEEDS = tuple(range(8))

#: The wide, slow-marked machine sweep.
SLOW_MACHINE_SEEDS = tuple(range(8, 40))

#: Conformance depth at which learning is exact at associativity 2, for the
#: policies whose depth-1 suites under-approximate (cf. the differential
#: harness); BRRIP runs take seconds and stay in the slow sweep.
EXACT_DEPTH = {"BIP": 3, "BRRIP-HP": 3, "BRRIP-FP": 2}
SLOW_POLICIES = ("BRRIP-HP", "BRRIP-FP")

ASSOCIATIVITY = 2
REPLAY_WORDS = 20
REPLAY_MAX_LENGTH = 12


def _random_mealy(seed: int) -> MealyMachine:
    """A seeded random Mealy machine: random size, alphabet and outputs."""
    rng = random.Random(f"fuzz-{seed}")
    num_states = rng.randint(4, 12)
    num_inputs = rng.randint(2, 3)
    num_outputs = rng.randint(2, 3)
    inputs = [f"i{k}" for k in range(num_inputs)]
    transitions = {}
    outputs = {}
    for state in range(num_states):
        for symbol in inputs:
            transitions[(state, symbol)] = rng.randrange(num_states)
            outputs[(state, symbol)] = f"o{rng.randrange(num_outputs)}"
    return MealyMachine(
        list(range(num_states)), 0, inputs, transitions, outputs
    ).minimize()


def _replay_words(tag: str, alphabet) -> List[Tuple]:
    rng = random.Random(f"fuzz-replay-{tag}")
    return [
        tuple(rng.choice(alphabet) for _ in range(rng.randint(1, REPLAY_MAX_LENGTH)))
        for _ in range(REPLAY_WORDS)
    ]


def _learn_machine(machine: MealyMachine, workers: int = 1) -> LearningResult:
    """Learn ``machine`` white-box; with workers > 1 both oracle sides run
    on one shared pool (parallel table fill + parallel streamed suite)."""
    if workers > 1:
        with WorkerPool(MealyMachineOracleFactory(machine), workers) as pool:
            engine = CachedMembershipOracle(MealyMachineOracle(machine), pool=pool)
            equivalence = ConformanceEquivalenceOracle(engine, depth=2)
            learner = MealyLearner(machine.inputs, engine, equivalence)
            result = learner.learn()
        # Table fill and suite execution ran on the pool; the only parent
        # executions allowed are Rivest–Schapire's binary-search probes,
        # which are inherently sequential and usually cache hits.
        assert result.statistics.parallel_words >= 1
        return result
    engine = CachedMembershipOracle(MealyMachineOracle(machine))
    equivalence = ConformanceEquivalenceOracle(engine, depth=2)
    return MealyLearner(machine.inputs, engine, equivalence).learn()


def _assert_machine_differential(seed: int) -> None:
    reference = _random_mealy(seed)
    serial = _learn_machine(reference)
    parallel = _learn_machine(reference, workers=2)

    # Field-by-field identity, not mere equivalence.
    assert parallel.machine == serial.machine, f"seed {seed}: machines diverged"
    assert parallel.machine.size == serial.machine.size
    assert parallel.rounds == serial.rounds, f"seed {seed}: round counts diverged"
    assert parallel.counterexamples == serial.counterexamples, (
        f"seed {seed}: counterexample sequences diverged"
    )

    # Replay against the reference: learning was exact for these seeds, so
    # the learned machine must reproduce the system under learning.
    assert parallel.machine.size == reference.size
    for word in _replay_words(f"machine-{seed}", tuple(reference.inputs)):
        assert parallel.machine.run(word) == reference.run(word), (
            f"seed {seed}: learned machine disagrees with the reference on {word!r}"
        )


def _assert_policy_differential(policy_name: str) -> None:
    depth = EXACT_DEPTH.get(policy_name, 1)
    policy = make_policy(policy_name, ASSOCIATIVITY)
    serial = learn_simulated_policy(policy, depth=depth, identify=False)
    parallel = learn_simulated_policy(
        make_policy(policy_name, ASSOCIATIVITY), depth=depth, identify=False, workers=2
    )

    assert parallel.machine == serial.machine, f"{policy_name}: machines diverged"
    assert (
        parallel.learning_result.rounds == serial.learning_result.rounds
    ), f"{policy_name}: round counts diverged"
    assert (
        parallel.learning_result.counterexamples
        == serial.learning_result.counterexamples
    ), f"{policy_name}: counterexample sequences diverged"
    assert parallel.extra["workers"] == 2

    # Replay seeded random words through a fresh Polca-driven simulator.
    oracle = PolcaMembershipOracle(
        SimulatedCacheInterface(make_policy(policy_name, ASSOCIATIVITY))
    )
    alphabet = tuple(oracle.alphabet())
    for word in _replay_words(f"policy-{policy_name}", alphabet):
        assert parallel.machine.run(word) == tuple(oracle.output_query(word)), (
            f"{policy_name}: learned machine disagrees with the simulator on {word!r}"
        )


def _assert_kernel_differential(policy_name: str) -> None:
    """Every execution kernel learns field-for-field identical results.

    The legacy scalar stepper is the reference; the tabulated kernel must
    reproduce the machine, the learning trajectory (rounds,
    counterexamples), the engine statistics *and* Polca's probe accounting
    exactly — the kernel is an execution strategy, never an observable.
    """
    depth = EXACT_DEPTH.get(policy_name, 1)
    kernels = ["scalar", "python"]
    reports = {
        kernel: learn_simulated_policy(
            make_policy(policy_name, ASSOCIATIVITY),
            depth=depth,
            identify=False,
            kernel=kernel,
        )
        for kernel in kernels
    }
    reference = reports["scalar"]
    assert reference.extra["kernel"] == "scalar"
    for kernel in kernels[1:]:
        report = reports[kernel]
        assert report.extra["kernel"] == kernel
        assert report.machine == reference.machine, f"{policy_name}/{kernel}: machines diverged"
        assert report.learning_result.rounds == reference.learning_result.rounds
        assert (
            report.learning_result.counterexamples
            == reference.learning_result.counterexamples
        ), f"{policy_name}/{kernel}: counterexample sequences diverged"
        assert asdict(report.learning_result.statistics) == asdict(
            reference.learning_result.statistics
        ), f"{policy_name}/{kernel}: engine statistics diverged"
        assert asdict(report.polca_statistics) == asdict(
            reference.polca_statistics
        ), f"{policy_name}/{kernel}: Polca probe accounting diverged"


def _learn_machine_ttt(machine: MealyMachine, workers: int = 1) -> LearningResult:
    """Learn ``machine`` white-box with the TTT-refined tree learner."""
    if workers > 1:
        with WorkerPool(MealyMachineOracleFactory(machine), workers) as pool:
            engine = CachedMembershipOracle(MealyMachineOracle(machine), pool=pool)
            equivalence = ConformanceEquivalenceOracle(engine, depth=2)
            learner = TTTLearner(machine.inputs, engine, equivalence)
            return learner.learn()
    engine = CachedMembershipOracle(MealyMachineOracle(machine))
    equivalence = ConformanceEquivalenceOracle(engine, depth=2)
    return TTTLearner(machine.inputs, engine, equivalence).learn()


def _assert_ttt_machine_differential(seed: int) -> None:
    """TTT on a seeded random machine learns the reference itself, and a
    2-worker pool changes nothing — the finalization and incremental
    sifting layers are refinement strategies, never observables."""
    reference = _random_mealy(seed)
    ttt = _learn_machine_ttt(reference)

    # The reference is minimal and canonically numbered, and so is every
    # learned machine: learning is exact iff the two are equal.
    assert ttt.machine == reference, f"seed {seed}: TTT missed the reference"
    assert ttt.learner == "ttt"

    parallel = _learn_machine_ttt(reference, workers=2)
    assert parallel.machine == reference, f"seed {seed}: parallel TTT missed the reference"
    assert parallel.rounds == ttt.rounds
    assert parallel.counterexamples == ttt.counterexamples


def _assert_tree_lstar_differential(seed: int) -> None:
    """The L*-vs-tree axis on a seeded random machine: the observation
    table and the classification tree (Kearns–Vazirani's, with the TTT
    refinements) must learn one machine — the reference itself."""
    reference = _random_mealy(seed)
    lstar = _learn_machine(reference)
    tree = _learn_machine_ttt(reference)

    assert lstar.machine == reference, f"seed {seed}: L* missed the reference"
    assert tree.machine == lstar.machine, f"seed {seed}: tree and L* machines diverged"
    assert (tree.learner, lstar.learner) == ("ttt", "lstar")


def _regression_machine(num_states: int, seed: int) -> MealyMachine:
    """The generator of PR 4's non-minimal-hypothesis repro (string outputs,
    no reachability pruning) — kept bit-compatible with test_learning's."""
    rng = random.Random(seed)
    inputs = [f"i{k}" for k in range(2)]
    transitions = {}
    outputs = {}
    for state in range(num_states):
        for symbol in inputs:
            transitions[(state, symbol)] = rng.randrange(num_states)
            outputs[(state, symbol)] = f"o{rng.randrange(2)}"
    return MealyMachine(list(range(num_states)), 0, inputs, transitions, outputs)


def _seeded_policy_sample(count: int) -> List[str]:
    """A seeded random sample of registry policies (fast ones only)."""
    rng = random.Random("fuzz-policy-sample")
    candidates = [name for name in available_policies() if name not in SLOW_POLICIES]
    return rng.sample(candidates, count)


# ------------------------------------------------------------- default budget


@pytest.mark.parametrize("seed", FAST_MACHINE_SEEDS)
def test_random_machine_parallel_learning_is_identical(seed):
    _assert_machine_differential(seed)


@pytest.mark.parametrize("seed", FAST_MACHINE_SEEDS)
def test_random_machine_kv_learning_is_identical(seed):
    _assert_tree_lstar_differential(seed)


@pytest.mark.parametrize("seed", FAST_MACHINE_SEEDS)
def test_random_machine_ttt_learning_is_identical(seed):
    _assert_ttt_machine_differential(seed)


def test_regression_seed_116_ttt_hypotheses_are_minimal():
    """End to end on the seed-116 machine: no hypothesis the conformance
    tester sees triggers its minimize-and-warn fallback, and the learned
    machine is the 8-state reference."""
    reference = _regression_machine(8, seed=116).minimize()
    assert reference.size == 8
    engine = CachedMembershipOracle(MealyMachineOracle(reference))
    equivalence = ConformanceEquivalenceOracle(engine, depth=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = TTTLearner(reference.inputs, engine, equivalence).learn()
    assert result.machine.size == reference.size
    assert reference.equivalent(result.machine)


def test_regression_seed_116_kv_hypotheses_are_minimal(monkeypatch):
    """Port of PR 4's suffix-closure regression to the classification tree.

    The seed-116 machine made L* hand non-minimal hypotheses to the Wp
    suite before ``add_suffix`` learned to close the column set.  The
    tree's analogue is ``_stable_hypothesis``'s internal minimality repair:
    every hypothesis that reaches the conformance tester must already be
    minimal, so the suite's minimize-and-warn fallback (a RuntimeWarning)
    never fires.
    """
    reference = _regression_machine(8, seed=116).minimize()
    assert reference.size == 8
    sizes = []
    original = TTTLearner._stable_hypothesis

    def recording(self, tree):
        hypothesis = original(self, tree)
        sizes.append((hypothesis.size, hypothesis.minimize().size))
        return hypothesis

    monkeypatch.setattr(TTTLearner, "_stable_hypothesis", recording)
    engine = CachedMembershipOracle(MealyMachineOracle(reference))
    equivalence = ConformanceEquivalenceOracle(engine, depth=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = TTTLearner(reference.inputs, engine, equivalence).learn()
    assert sizes, "instrumentation never saw a hypothesis"
    assert all(size == minimal for size, minimal in sizes), sizes
    assert result.machine.size == reference.size
    assert reference.equivalent(result.machine)


@pytest.mark.parametrize("policy_name", _seeded_policy_sample(3))
def test_random_policy_parallel_learning_is_identical(policy_name):
    _assert_policy_differential(policy_name)


@pytest.mark.parametrize("policy_name", _seeded_policy_sample(3))
def test_random_policy_kernels_are_identical(policy_name):
    _assert_kernel_differential(policy_name)


# ----------------------------------------------------------------- wide sweep


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_MACHINE_SEEDS)
def test_random_machine_parallel_learning_is_identical_wide(seed):
    _assert_machine_differential(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_MACHINE_SEEDS)
def test_random_machine_kv_learning_is_identical_wide(seed):
    _assert_tree_lstar_differential(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_MACHINE_SEEDS)
def test_random_machine_ttt_learning_is_identical_wide(seed):
    _assert_ttt_machine_differential(seed)


@pytest.mark.slow
@pytest.mark.parametrize(
    "policy_name", [name for name in available_policies()]
)
def test_every_policy_parallel_learning_is_identical_exact(policy_name):
    """The full registry at its exact depths (BRRIP included: seconds/run)."""
    _assert_policy_differential(policy_name)


@pytest.mark.slow
@pytest.mark.parametrize(
    "policy_name", [name for name in available_policies()]
)
def test_every_policy_kernels_are_identical_exact(policy_name):
    """The full registry across every execution kernel."""
    _assert_kernel_differential(policy_name)


# --------------------------------------------------------------------------
# Store codec fuzz: random contents through v2 snapshot + append/compact
# interleavings (the persistence substrate every learner above sits on).


CODEC_SEEDS = tuple(range(10))
SLOW_CODEC_SEEDS = tuple(range(10, 40))

#: Symbol/payload pools mix every kind the codec supports: plain strings,
#: sentinel-colliding strings, ints, bools, and the learning stack's
#: registered symbol types.
def _codec_pools():
    from repro.policies.base import EVICT, Line

    symbols = ["A", "A!", "blk7", "\x01weird", 0, 7, True, False, Line(0), Line(3), EVICT]
    payloads = [None, "Hit", "Miss", 0, 1, 4, True, "x y z"]
    keys = ["mbl", "learning", "cpu", "L2", 0, 1, 21, True]
    return symbols, payloads, keys


def _random_store_ops(seed: int, budget: int = 60):
    """A seeded random mutation script: (key, word, payloads, terminal) records."""
    rng = random.Random(f"codec-{seed}")
    symbols, payloads, keys = _codec_pools()
    ops = []
    for _ in range(budget):
        key = tuple(rng.choice(keys) for _ in range(rng.randint(1, 3)))
        length = rng.randint(0, 5)
        word = tuple(rng.choice(symbols) for _ in range(length))
        ops.append(
            (
                key,
                word,
                tuple(rng.choice(payloads) for _ in range(length)),
                rng.random() < 0.7,
            )
        )
    return ops


def _apply_record(store, op) -> bool:
    """Replay one record op; returns False when it conflicts (skipped)."""
    from repro.errors import NonDeterminismError

    key, word, word_payloads, terminal = op
    try:
        store.namespace(key).record(word, word_payloads, terminal=terminal)
        return True
    except NonDeterminismError:
        return False


def _store_image(store):
    """Comparable image of a store: every namespace's replayable path set.

    Empty namespaces (a handle created by a conflicted record) are
    skipped: they hold no measurements and are not persisted.
    """
    image = {}
    for key in sorted(store.namespaces(), key=repr):
        namespace = store.namespace(key)
        entry = (
            namespace.node_count,
            namespace.entry_count,
            frozenset(namespace.iter_paths()),
        )
        if entry != (0, 0, frozenset()):
            image[key] = entry
    return image


def _assert_codec_round_trip(seed: int, tmp_path):
    from repro.store import PrefixStore

    reference = PrefixStore()
    applied = [op for op in _random_store_ops(seed) if _apply_record(reference, op)]
    assert applied, "degenerate fuzz case: every op conflicted"

    path = tmp_path / "fuzz.json"
    disk = PrefixStore(str(path))
    for op in applied:
        _apply_record(disk, op)
    disk.save()
    from_snapshot = PrefixStore(str(path))
    assert _store_image(from_snapshot) == _store_image(reference)


def _assert_codec_interleaving(seed: int, tmp_path):
    """Random append/compact/reopen interleavings converge on the reference."""
    from repro.store import PrefixStore

    rng = random.Random(f"codec-interleave-{seed}")
    path = tmp_path / "fuzz.json"
    reference = PrefixStore()
    disk = PrefixStore(str(path))
    for op in _random_store_ops(seed, budget=80):
        if _apply_record(reference, op):
            assert _apply_record(disk, op)
        else:
            _apply_record(disk, op)
        roll = rng.random()
        if roll < 0.30:
            disk.save()  # appends one delta line
        elif roll < 0.40:
            disk.compact()  # folds the log into a snapshot
        elif roll < 0.50:
            disk.save()
            disk = PrefixStore(str(path))  # a fresh process arrives
    disk.save()
    final = PrefixStore(str(path))
    assert _store_image(final) == _store_image(reference)


@pytest.mark.parametrize("seed", CODEC_SEEDS)
def test_codec_round_trip_random_store(seed, tmp_path):
    _assert_codec_round_trip(seed, tmp_path)


@pytest.mark.parametrize("seed", CODEC_SEEDS)
def test_codec_random_append_compact_interleavings(seed, tmp_path):
    _assert_codec_interleaving(seed, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_CODEC_SEEDS)
def test_codec_round_trip_random_store_wide(seed, tmp_path):
    _assert_codec_round_trip(seed, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_CODEC_SEEDS)
def test_codec_random_append_compact_interleavings_wide(seed, tmp_path):
    _assert_codec_interleaving(seed, tmp_path)


def test_v1_fixture_bytes_decode_forever(tmp_path):
    """The checked-in v1 file must decode (and migrate) in every future build.

    The fixture bytes are frozen: regenerating them with a newer codec
    would defeat the point of the test.
    """
    import shutil
    from pathlib import Path

    import repro.learning.query_engine  # noqa: F401 — registers Line/Evict codecs
    from repro.policies.base import EVICT, Line
    from repro.store import PrefixStore

    fixture = Path(__file__).parent / "fixtures" / "store_v1_small.json"
    path = tmp_path / "v1.json"
    shutil.copy(fixture, path)

    store = PrefixStore(str(path))
    assert store.load_report.migrated
    frontend = store.namespace(("mbl", "i5-6500", "L2", 0, 21))
    assert frontend.lookup(("A!", "B", "C")) == (None, "Hit", "Miss")
    assert frontend.lookup(("A!", "B")) == (None, "Hit")
    assert frontend.lookup(()) == ()
    learning = store.namespace(("learning", "sim", "LRU", 2))
    assert learning.lookup((Line(0), Line(1), EVICT)) == (4, 0, 1)
    assert learning.lookup((Line(0), EVICT)) == (4, 1)

    # On-open migration rewrote the file as a v2 log; the contents carry over.
    from repro.store.codec import read_header

    assert read_header(path) == (2, 1)
    reloaded = PrefixStore(str(path))
    assert _store_image(reloaded) == _store_image(store)
