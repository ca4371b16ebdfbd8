"""The two workloads of the learning benchmark and their ground-truth gate.

Every workload runs serially in one process (``workers=0``) with
``kernel="auto"`` and noise-free simulated timing, through public entry
points.  Each one is the only workload where its main layer dominates, and
between them they load every layer the traced run times:

``table2-fast``
    ``run_table2("fast")`` with ``lstar`` and then ``ttt``: 24 learns of
    2-24 states.  ``identify_policy`` enumerates and minimizes every
    registry reference per row, so it dominates; the suites are short.  It
    carries the learning core on simulated targets: query engine, both
    learners, Wp generation, Polca and the tabulated kernel.
``table4-fast``
    ``run_table4("fast")`` with ``lstar``: 8 learnable CPU/level targets at
    associativity 2 plus the Haswell-L3 skip row.  The only workload whose
    SUL dominates (``CacheQueryBackend.execute`` and MBL ``expand``); the
    tabulated kernel is bypassed (scalar Polca over CacheQuery).

At the 35 s run length a run samples every interval of a pass in nine
(``table2-fast``) or eleven (``table4-fast``) passes (see ``run.py``); on
the VM below, three to five samples let whole runs read up to 1.7x slow.
Workloads whose pass is too long for that many samples within the run time
are left out: PLRU-8 learned with both learners (9-13 s a pass), and
budgeted PLRU-16 / SRRIP-HP-4 learns, whose set-up alone tabulates PLRU-16
for 5-7 s in each of the set-up samples.

Self-time shares of one traced full-size pass on a 2-vCPU Xeon VM with
Python 3.11 and numpy 2.4; "-" marks a layer the workload bypasses, which
the traced run asserts records no calls:

==================  ===========  ===========
layer               table2-fast  table4-fast
==================  ===========  ===========
polca.identify      57%          <1%
query_engine        12%          1%
learner.table       7%           <1%
wpmethod            6%           <1%
polca               6%           2%
mealy               4%           <1%
simkernel.step      4%           -
simkernel.tabulate  <1%          -
cachequery.backend  -            59%
mbl.expand          -            32%
==================  ===========  ===========

The seed only permutes the order of the learns, so every count repeats
exactly across seeds and runs.  Worker IPC and store I/O are left unloaded
in every workload (see :mod:`tracing` for why).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.mealy import MealyMachine
from repro.experiments import table2 as table2_module
from repro.experiments import table4 as table4_module
from repro.experiments.table2 import run_table2, table2_configurations
from repro.experiments.table4 import PAPER_TABLE4_POLICY, run_table4, table4_configurations
from repro.learning.oracles import CachedMembershipOracle
from repro.policies.registry import make_policy
from repro.polca.algorithm import PolcaMembershipOracle

LEARNERS = ("lstar", "ttt")
TABULATED_KERNELS = ("python", "numpy")
SIZES = ("full", "smoke")
#: Fewest passes per run.
MIN_PASSES = 3
#: Set-ups timed per run, each in a fresh interpreter.
SETUP_SAMPLES = 7

#: Per-learn counts that must repeat exactly across passes and runs.
COUNT_FIELDS = (
    "states",
    "executed_queries",
    "executed_symbols",
    "cache_probes",
    "engine_queries",
    "engine_symbols",
    "cache_hits",
    "subsumed_words",
    "batches",
    "test_words",
    "policy_queries",
    "block_accesses",
    "tests_skipped",
    "finalized",
)


@dataclass
class Learn:
    """What one learning run delivered, plus what the gate compares it with."""

    label: str
    learner: str
    kernel: str
    states: int
    #: Executed membership queries/symbols (the engine's counters).
    executed_queries: int
    executed_symbols: int
    cache_probes: int
    engine_queries: int
    engine_symbols: int
    cache_hits: int
    subsumed_words: int
    batches: int
    test_words: int
    policy_queries: int
    block_accesses: int
    tests_skipped: int
    #: Discriminators the TTT tree finalized (``None`` for other learners).
    finalized: Optional[int] = None
    machine: Optional[MealyMachine] = None
    #: Ground truth as (registry policy name, associativity).
    reference: Optional[Tuple[str, int]] = None
    identified: Optional[str] = None
    expected_identity: Optional[str] = None

    def counts(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in COUNT_FIELDS}


def learn_from_report(label, learner, report, *, reference=None, expected_identity=None):
    """Summarise a :class:`~repro.polca.pipeline.PolicyLearningReport`."""
    result = report.learning_result
    statistics = result.statistics
    polca = report.polca_statistics
    return Learn(
        label=label,
        learner=learner,
        kernel=report.extra["kernel"],
        states=report.num_states,
        executed_queries=statistics.membership_queries,
        executed_symbols=statistics.membership_symbols,
        cache_probes=polca.cache_probes,
        engine_queries=statistics.membership_queries,
        engine_symbols=statistics.membership_symbols,
        cache_hits=statistics.cache_hits,
        subsumed_words=statistics.subsumed_words,
        batches=statistics.batches,
        test_words=statistics.test_words,
        policy_queries=polca.policy_queries,
        block_accesses=polca.block_accesses,
        tests_skipped=statistics.tests_skipped,
        finalized=report.extra.get("ttt_finalized_discriminators"),
        machine=report.machine,
        reference=reference,
        identified=report.identified_policy,
        expected_identity=expected_identity,
    )


class LearnMarks:
    """Timestamps of one pass: each learn's start and end, every batch the
    query engine receives and every word Polca answers on its own (the
    CacheQuery learns execute word by word).

    A pass repeats the same deterministic calls in the same order, so the
    k-th interval between marks is the same work in every pass; the runner
    keeps each interval's fastest pass (see ``run.py``).  Completed learns
    collect in :attr:`learns`, so a pass that raises still shows what it
    delivered.  With a tracer, the pass is also the traced run's root span.
    """

    MARKED = (
        (CachedMembershipOracle, "output_query_batch"),
        (PolcaMembershipOracle, "output_query"),
    )

    def __init__(self, tracer=None) -> None:
        self.events: List[float] = []
        self.learns: List[Learn] = []
        self.tracer = tracer
        self.root = -1
        self._begun = 0
        self._originals: list = []

    def begin(self) -> None:
        if self.tracer is not None:
            self.tracer.begin_learn(self._begun)
        self._begun += 1
        self.events.append(perf_counter())

    def end(self) -> None:
        self.events.append(perf_counter())
        if self.tracer is not None:
            self.tracer.end_learn()

    def __enter__(self) -> "LearnMarks":
        events = self.events
        for owner, attribute in self.MARKED:
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))

            def marked(instance, words, _original=original):
                events.append(perf_counter())
                return _original(instance, words)

            setattr(owner, attribute, marked)
        if self.tracer is not None:
            self.root = self.tracer.open("harness")
        return self

    def __exit__(self, *exc_info) -> None:
        if self.tracer is not None:
            self.tracer.close(self.root)
        while self._originals:
            setattr(*self._originals.pop())


class _Captured:
    """Swap an experiment module's learning entry point for one that marks
    the learn's boundaries and keeps its report."""

    def __init__(self, module, attribute: str, marks: LearnMarks) -> None:
        self.module = module
        self.attribute = attribute
        self.marks = marks
        self.reports: list = []

    def __enter__(self) -> "_Captured":
        original = getattr(self.module, self.attribute)
        self.original = original

        def learn(*args, **kwargs):
            self.marks.begin()
            try:
                report = original(*args, **kwargs)
            finally:
                self.marks.end()
            self.reports.append(report)
            return report

        setattr(self.module, self.attribute, learn)
        return self

    def __exit__(self, *exc_info) -> None:
        setattr(self.module, self.attribute, self.original)


class Workload:
    """A fixed list of learns; ``setup`` builds targets, ``run_pass`` learns them all."""

    name = ""
    #: Span names that must record calls in the traced run (see tracing.py)...
    loads: Tuple[str, ...] = ()
    #: ...and span names that must record none.
    bypasses: Tuple[str, ...] = ()
    #: The span predicted to take the largest self-time share of a pass.
    dominant: Tuple[str, ...] = ()
    #: A typical full-size pass on a 2-vCPU Xeon VM shared with other
    #: tenants, in seconds; it sizes the pass count, never a metric.
    pass_seconds = 1.0

    def __init__(self, size: str, seed: int) -> None:
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
        self.size = size
        self.random = random.Random(seed)

    def passes(self, seconds: int) -> int:
        """Passes per run: a fixed function of ``seconds``, never of measured
        time, so the fastest-interval estimate sees the same number of
        samples on every run and every commit."""
        if self.size == "smoke":
            return MIN_PASSES
        return max(MIN_PASSES, math.ceil(seconds / self.pass_seconds))

    @property
    def planned_learns(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        """Construct the targets (timed as set-up, with the imports)."""

    def run_pass(self, marks: LearnMarks) -> None:
        raise NotImplementedError


_SIMULATED_LOADS = (
    "query_engine",
    "learner",
    "learner.table",
    "learner.hypothesis",
    "wpmethod",
    "equivalence",
    "mealy",
    "polca",
    "simkernel.tabulate",
    "simkernel.step",
)
_CACHEQUERY = ("cachequery.backend", "cachequery.frontend", "mbl.expand")


class Table2Fast(Workload):
    name = "table2-fast"
    loads = _SIMULATED_LOADS + ("polca.identify",)
    bypasses = _CACHEQUERY
    dominant = ("polca.identify",)
    pass_seconds = 4.0

    def __init__(self, size: str, seed: int) -> None:
        super().__init__(size, seed)
        configurations = table2_configurations("fast")
        if size == "smoke":
            configurations = [("LRU", 2), ("PLRU", 4)]
        self.configurations = self.random.sample(configurations, len(configurations))

    @property
    def planned_learns(self) -> int:
        return len(self.configurations) * len(LEARNERS)

    def run_pass(self, marks: LearnMarks) -> None:
        for learner in LEARNERS:
            with _Captured(table2_module, "learn_simulated_policy", marks) as captured:
                rows = run_table2(
                    configurations=self.configurations,
                    learner=learner,
                    workers=0,
                    kernel="auto",
                )
            for row, report in zip(rows, captured.reports):
                learn = learn_from_report(
                    f"{learner} {row.policy}-{row.associativity}",
                    learner,
                    report,
                    reference=(row.policy, row.associativity),
                )
                marks.learns.append(learn)


class Table4Fast(Workload):
    name = "table4-fast"
    loads = (
        "query_engine",
        "learner",
        "learner.table",
        "learner.hypothesis",
        "wpmethod",
        "equivalence",
        "mealy",
        "polca",
        "polca.identify",
    ) + _CACHEQUERY
    bypasses = ("simkernel.tabulate", "simkernel.step")
    dominant = ("cachequery.backend",)
    pass_seconds = 3.3

    def __init__(self, size: str, seed: int) -> None:
        super().__init__(size, seed)
        configurations = table4_configurations("fast")
        if size == "smoke":
            learnable = [c for c in configurations if c.learnable]
            skipped = [c for c in configurations if not c.learnable]
            configurations = learnable[:1] + skipped
        self.configurations = self.random.sample(configurations, len(configurations))
        self.skip_rows = sum(1 for c in configurations if not c.learnable)

    @property
    def planned_learns(self) -> int:
        return len(self.configurations) - self.skip_rows

    def run_pass(self, marks: LearnMarks) -> None:
        with _Captured(table4_module, "learn_policy_from_cache", marks) as captured:
            rows = run_table4(
                configurations=self.configurations,
                workers=0,
                kernel="auto",
                learner="lstar",
            )
        learned = [row for row in rows if row.learned_states is not None]
        skipped = [row for row in rows if row.learned_states is None]
        if len(skipped) != self.skip_rows or any(not row.note for row in skipped):
            raise AssertionError(
                f"expected {self.skip_rows} annotated skip row(s), got "
                f"{[(row.cpu, row.level, row.note) for row in skipped]}"
            )
        for row, report in zip(learned, captured.reports):
            paper_policy = PAPER_TABLE4_POLICY[(row.cpu, row.level)]
            marks.learns.append(
                learn_from_report(
                    f"lstar {row.cpu} {row.level}",
                    "lstar",
                    report,
                    reference=(paper_policy, row.effective_associativity),
                    expected_identity=paper_policy,
                )
            )


WORKLOADS = {cls.name: cls for cls in (Table2Fast, Table4Fast)}


def build(name: str, size: str, seed: int) -> Workload:
    return WORKLOADS[name](size, seed)


# ------------------------------------------------------------------- the gate


def _canonical(machine: MealyMachine) -> tuple:
    machine = machine.relabel()
    return (
        machine.states,
        machine.initial_state,
        machine.inputs,
        machine.transitions,
        machine.outputs,
    )


class Gate:
    """Checks every learn against ground truth, after the clock has stopped."""

    def __init__(self) -> None:
        self._references: Dict[Tuple[str, int], tuple] = {}

    def reference(self, name: str, associativity: int) -> tuple:
        key = (name, associativity)
        if key not in self._references:
            policy = make_policy(name, associativity)
            self._references[key] = _canonical(policy.to_mealy().minimize())
        return self._references[key]

    def misses(self, learn: Learn) -> List[str]:
        """Why ``learn`` is wrong; empty when it matches its ground truth."""
        found = []
        if learn.expected_identity is not None and learn.identified != learn.expected_identity:
            found.append(
                f"identified {learn.identified!r}, expected {learn.expected_identity!r}"
            )
        if learn.reference is not None:
            if learn.machine is None or _canonical(learn.machine) != self.reference(
                *learn.reference
            ):
                found.append(
                    f"machine differs from {learn.reference[0]}-{learn.reference[1]} "
                    "minimized ground truth"
                )
        return found


def check_pass(workload: Workload, learns: List[Learn], gate: Gate) -> Tuple[int, List[str]]:
    """Return (failed learns, why) for one pass: every learn that missed its
    ground truth, plus every planned learn the pass never delivered because
    something raised."""
    misses = []
    passed = 0
    for learn in learns:
        found = gate.misses(learn)
        misses.extend(f"{learn.label}: {miss}" for miss in found)
        passed += not found
    return workload.planned_learns - passed, misses


def counter_violations(workload: Workload, learns: List[Learn]) -> List[str]:
    """The per-learn counter assertions; any entry fails the command."""
    found = []
    simulated = workload.name != Table4Fast.name
    for learn in learns:
        if learn.tests_skipped != 0:
            found.append(f"{learn.label}: tests_skipped={learn.tests_skipped}")
        if simulated and learn.kernel not in TABULATED_KERNELS:
            found.append(f"{learn.label}: kernel {learn.kernel!r} is not tabulated")
        if not simulated and learn.kernel != "scalar":
            found.append(f"{learn.label}: kernel {learn.kernel!r} is not scalar")
        if learn.learner == "ttt" and not learn.finalized:
            found.append(f"{learn.label}: TTT finalized no discriminator")
    return found
