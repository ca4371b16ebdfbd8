"""Table 4: learning policies from (simulated) hardware through CacheQuery.

For every CPU and cache level the experiment targets one cache set (a
leader set for the adaptive L3s), optionally reduces the L3 associativity
with CAT, and runs the full pipeline: CacheQuery backend → MBL → Polca →
learner.  It reports the effective associativity, the learned state count,
the identified policy and the reset sequence used.

The expected outcomes mirror the paper:

* every L1 (and Haswell's L2) learns **PLRU**;
* Skylake's and Kaby Lake's L2 learn **New1**;
* Skylake's and Kaby Lake's L3 leader sets learn **New2** (with CAT);
* Haswell's L3 cannot be learned (no CAT support, associativity 16).

Because the simulated-hardware path is orders of magnitude slower than the
software-simulated one (exactly as on real hardware, Section 7.2), the
``fast`` mode shrinks associativities (the policies and the pipeline stay
identical); ``standard`` uses associativity 4 everywhere CAT or the
geometry allows it; ``full`` is the paper's exact setup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cache.adaptive import AdaptiveSetSelector
from repro.cachequery.backend import BackendConfig
from repro.cachequery.frontend import CacheQuery, CacheQueryConfig, CacheQuerySetInterface
from repro.errors import ReproError
from repro.experiments.reporting import format_seconds, format_table
from repro.hardware.cpu import SimulatedCPU
from repro.hardware.profiles import CPUProfile, cpu_profile
from repro.hardware.timing import NoiseModel
from repro.polca.pipeline import learn_policy_from_cache
from repro.polca.reset import FlushRefillReset

#: Policies the paper reports per (CPU, level) — used to annotate the output.
PAPER_TABLE4_POLICY = {
    ("i7-4790", "L1"): "PLRU",
    ("i7-4790", "L2"): "PLRU",
    ("i7-4790", "L3"): None,
    ("i5-6500", "L1"): "PLRU",
    ("i5-6500", "L2"): "NEW1",
    ("i5-6500", "L3"): "NEW2",
    ("i7-8550U", "L1"): "PLRU",
    ("i7-8550U", "L2"): "NEW1",
    ("i7-8550U", "L3"): "NEW2",
}

#: Learned state counts the paper reports per (CPU, level).
PAPER_TABLE4_STATES = {
    ("i7-4790", "L1"): 128,
    ("i7-4790", "L2"): 128,
    ("i5-6500", "L1"): 128,
    ("i5-6500", "L2"): 160,
    ("i5-6500", "L3"): 175,
    ("i7-8550U", "L1"): 128,
    ("i7-8550U", "L2"): 160,
    ("i7-8550U", "L3"): 175,
}


@dataclass
class Table4Configuration:
    """One (CPU, level) learning target."""

    cpu: str
    level: str
    set_index: int
    slice_index: int = 0
    cat_ways: Optional[int] = None
    reduce_associativity: Optional[int] = None
    learnable: bool = True
    skip_reason: str = ""


@dataclass
class Table4Row:
    """One row of the reproduced Table 4."""

    cpu: str
    level: str
    effective_associativity: Optional[int]
    set_index: Optional[int]
    learned_states: Optional[int]
    identified_policy: Optional[str]
    paper_policy: Optional[str]
    paper_states: Optional[int]
    reset: str
    seconds: float
    note: str = ""
    cache_hits: int = 0
    tests_skipped: int = 0
    #: Executed membership queries of the shared query engine (like Table 2's
    #: column; worker-count-invariant since worker deltas merge on collect).
    membership_queries: int = 0
    #: Which student produced the row (``"lstar"`` / ``"ttt"``).
    learner: str = "lstar"
    #: Executed membership queries per equivalence round, in round order.
    per_round_queries: tuple = ()
    #: Executed queries attributed to the learner's own probes (engine total
    #: minus conformance-suite executions).
    learner_queries: int = 0
    #: Executed symbols attributed to the learner (same attribution) — the
    #: column that exposes a shorter-discriminator win queries cannot show.
    learner_symbols: int = 0

    @property
    def matches_paper_policy(self) -> Optional[bool]:
        if self.paper_policy is None or self.identified_policy is None:
            return None
        return self.paper_policy == self.identified_policy


def _leader_set(profile: CPUProfile) -> int:
    """Return the lowest group-A leader set index of the profile's L3."""
    spec = profile.level("L3")
    if spec.adaptive is None:
        return 0
    selector: AdaptiveSetSelector = spec.adaptive.selector()
    for set_index in range(spec.sets_per_slice):
        if selector.role(set_index) == "leader_a":
            return set_index
    raise ReproError("no leader set found for the L3 adaptive policy")


def table4_configurations(mode: str = "fast") -> List[Table4Configuration]:
    """Return the learning targets for the given mode.

    ``fast`` shrinks every level to associativity 2 (CAT for the L3s,
    profile reduction for L1/L2); ``standard`` uses associativity 4;
    ``full`` uses the paper's exact geometries (hours to days of compute).
    """
    mode = mode.lower()
    if mode not in ("fast", "standard", "full"):
        raise ReproError(f"unknown Table 4 mode {mode!r}")
    reduced = {"fast": 2, "standard": 4, "full": None}[mode]
    configurations: List[Table4Configuration] = []
    for cpu_name in ("i7-4790", "i5-6500", "i7-8550U"):
        profile = cpu_profile(cpu_name)
        for level in ("L1", "L2", "L3"):
            spec = profile.level(level)
            if level == "L3":
                if not spec.supports_cat and mode != "fast":
                    # Haswell: no CAT, associativity 16, non-deterministic
                    # leader-B sets — the paper could not learn it either.
                    configurations.append(
                        Table4Configuration(
                            cpu=cpu_name,
                            level=level,
                            set_index=_leader_set(profile),
                            learnable=False,
                            skip_reason="no CAT support; associativity 16 out of reach",
                        )
                    )
                    continue
                cat_ways = reduced if reduced is not None else 4
                if not spec.supports_cat:
                    # In fast mode we still exercise the Haswell L3 pipeline by
                    # reducing the profile rather than using CAT, but flag it.
                    configurations.append(
                        Table4Configuration(
                            cpu=cpu_name,
                            level=level,
                            set_index=_leader_set(profile),
                            reduce_associativity=reduced,
                            learnable=False,
                            skip_reason="no CAT support on this part (paper: not learned)",
                        )
                    )
                    continue
                configurations.append(
                    Table4Configuration(
                        cpu=cpu_name,
                        level=level,
                        set_index=_leader_set(profile),
                        cat_ways=cat_ways,
                    )
                )
            else:
                target_assoc = (
                    None if reduced is None else min(reduced, spec.associativity)
                )
                configurations.append(
                    Table4Configuration(
                        cpu=cpu_name,
                        level=level,
                        set_index=0,
                        reduce_associativity=target_assoc,
                    )
                )
    return configurations


def run_table4_configuration(
    configuration: Table4Configuration,
    *,
    repetitions: int = 1,
    noise_std: float = 0.0,
    depth: int = 1,
    workers: Optional[int] = None,
    resume: bool = False,
    store=None,
    kernel: Optional[str] = "auto",
    learner: str = "lstar",
) -> Table4Row:
    """Run the hardware-learning pipeline for one (CPU, level) target.

    One :class:`~repro.store.PrefixStore` instance backs *both* caching
    stacks of the run — the frontend's response cache and the learning
    engine's trie — in separate namespaces; pass ``store`` (possibly
    path-backed) to share it across configurations or persist it.
    ``resume=True`` (serial only) opens measurement sessions on the
    CacheQuery frontend so only un-cached suffixes execute.
    """
    paper_policy = PAPER_TABLE4_POLICY.get((configuration.cpu, configuration.level))
    paper_states = PAPER_TABLE4_STATES.get((configuration.cpu, configuration.level))
    if not configuration.learnable:
        return Table4Row(
            cpu=configuration.cpu,
            level=configuration.level,
            effective_associativity=None,
            set_index=configuration.set_index,
            learned_states=None,
            identified_policy=None,
            paper_policy=paper_policy,
            paper_states=paper_states,
            reset="-",
            seconds=0.0,
            note=configuration.skip_reason,
        )
    profile = cpu_profile(configuration.cpu)
    note = ""
    if configuration.reduce_associativity is not None:
        spec = profile.level(configuration.level)
        if configuration.reduce_associativity < spec.associativity:
            profile = profile.with_level(
                configuration.level, associativity=configuration.reduce_associativity
            )
            note = (
                f"associativity reduced {spec.associativity} -> "
                f"{configuration.reduce_associativity} for the fast profile"
            )
    cpu = SimulatedCPU(profile, noise=NoiseModel(std=noise_std))
    if configuration.cat_ways is not None:
        spec = profile.level(configuration.level)
        if configuration.cat_ways < spec.associativity:
            cpu.configure_cat(configuration.level, configuration.cat_ways)
            note = f"CAT reduces associativity {spec.associativity} -> {configuration.cat_ways}"
    if store is None:
        from repro.store import PrefixStore

        store = PrefixStore()
    frontend = CacheQuery(
        cpu,
        CacheQueryConfig(
            level=configuration.level,
            set_index=configuration.set_index,
            slice_index=configuration.slice_index,
            backend=BackendConfig(repetitions=repetitions),
        ),
        store=store,
    )
    reset = FlushRefillReset()
    interface = CacheQuerySetInterface(frontend, reset=reset)
    # At reduced associativities several policies coincide (e.g. PLRU and LRU
    # are trace-equivalent for 2 ways), so the paper's policy is checked
    # first; the remaining registry is still consulted when it does not match.
    candidates = None
    if paper_policy is not None:
        from repro.policies.registry import available_policies

        candidates = [paper_policy] + [
            name for name in available_policies() if name != paper_policy
        ]
    start = time.perf_counter()
    # The CacheQuery interface wraps a whole (picklable) simulated CPU, so
    # pool workers receive a snapshot and replay table-fill batches and
    # suite chunks against their own copy — the hardware-path analogue of
    # rebuilding a simulator.
    # The CacheQuery interface has no policy-exact kernel hook, so
    # kernel="auto" degrades to the scalar path here; forcing a kernel is
    # rejected by Polca with a clean error.
    report = learn_policy_from_cache(
        interface,
        depth=depth,
        identification_candidates=candidates,
        workers=workers,
        resume=resume,
        store=store,
        kernel=kernel,
        learner=learner,
    )
    elapsed = time.perf_counter() - start
    store.save()  # no-op for in-memory stores
    return Table4Row(
        cpu=configuration.cpu,
        level=configuration.level,
        effective_associativity=interface.associativity,
        set_index=configuration.set_index,
        learned_states=report.num_states,
        identified_policy=report.identified_policy,
        paper_policy=paper_policy,
        paper_states=paper_states,
        reset=reset.describe(),
        seconds=elapsed,
        note=note,
        cache_hits=report.learning_result.statistics.cache_hits,
        tests_skipped=report.learning_result.statistics.tests_skipped,
        membership_queries=report.learning_result.statistics.membership_queries,
        learner=report.learning_result.learner,
        per_round_queries=tuple(report.learning_result.per_round_queries),
        learner_queries=report.learning_result.learner_queries,
        learner_symbols=report.learning_result.learner_symbols,
    )


def run_table4(
    mode: str = "fast",
    configurations: Optional[Sequence[Table4Configuration]] = None,
    *,
    repetitions: int = 1,
    noise_std: float = 0.0,
    workers: Optional[int] = None,
    resume: bool = False,
    store=None,
    cache_path: Optional[str] = None,
    kernel: Optional[str] = "auto",
    learner: str = "lstar",
) -> List[Table4Row]:
    """Run the hardware-learning experiment for every configured target.

    ``store``/``cache_path`` share one persistent
    :class:`~repro.store.PrefixStore` across every (CPU, level) target —
    frontend response caches and learning tries alike, one namespace per
    target — saved after every configuration.
    """
    if configurations is None:
        configurations = table4_configurations(mode)
    if store is None and cache_path is not None:
        from repro.store import open_store

        store = open_store(cache_path)
    return [
        run_table4_configuration(
            configuration,
            repetitions=repetitions,
            noise_std=noise_std,
            workers=workers,
            resume=resume,
            store=store,
            kernel=kernel,
            learner=learner,
        )
        for configuration in configurations
    ]


def format_table4(rows: Sequence[Table4Row]) -> str:
    """Render the reproduced Table 4."""
    headers = (
        "CPU",
        "Level",
        "Assoc.",
        "Set",
        "Learner",
        "States",
        "Policy",
        "Paper policy",
        "Reset",
        "Time",
        "Memb. queries",
        "Lrn. symbols",
        "Cache hits",
        "Note",
    )
    body = [
        (
            row.cpu,
            row.level,
            row.effective_associativity if row.effective_associativity is not None else "-",
            row.set_index if row.set_index is not None else "-",
            row.learner,
            row.learned_states if row.learned_states is not None else "-",
            row.identified_policy or "-",
            row.paper_policy or "-",
            row.reset,
            format_seconds(row.seconds),
            row.membership_queries,
            row.learner_symbols,
            row.cache_hits,
            row.note,
        )
        for row in rows
    ]
    return format_table(headers, body)
