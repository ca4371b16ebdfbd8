"""Table 2: learning policies from software-simulated caches (Section 6).

For every (policy, associativity) pair the experiment learns the policy with
Polca from a software-simulated cache and reports the number of states of
the learned automaton plus the learning time and query counts.  The state
counts are properties of the policies and must match the paper exactly; the
times only need to show the same growth (roughly exponential in the
associativity, with FIFO as the flat exception).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.reporting import format_seconds, format_table
from repro.policies.registry import TABLE2_POLICIES, make_policy
from repro.polca.pipeline import learn_simulated_policy

#: State counts reported in the paper's Table 2, keyed by (policy, associativity).
PAPER_TABLE2_STATES: Dict[Tuple[str, int], int] = {
    ("FIFO", 2): 2,
    ("FIFO", 16): 16,
    ("LRU", 2): 2,
    ("LRU", 4): 24,
    ("LRU", 6): 720,
    ("PLRU", 2): 2,
    ("PLRU", 4): 8,
    ("PLRU", 8): 128,
    ("PLRU", 16): 32768,
    ("MRU", 2): 2,
    ("MRU", 4): 14,
    ("MRU", 6): 62,
    ("MRU", 8): 254,
    ("MRU", 10): 1022,
    ("MRU", 12): 4094,
    ("LIP", 2): 2,
    ("LIP", 4): 24,
    ("LIP", 6): 720,
    ("SRRIP-HP", 2): 12,
    ("SRRIP-HP", 4): 178,
    ("SRRIP-HP", 6): 2762,
    ("SRRIP-FP", 2): 16,
    ("SRRIP-FP", 4): 256,
    ("SRRIP-FP", 6): 4096,
}

#: The full sweep of the paper (Table 2).
PAPER_SWEEP: Dict[str, Tuple[int, ...]] = {
    "FIFO": (2, 4, 6, 8, 10, 12, 14, 16),
    "LRU": (2, 4, 6),
    "PLRU": (2, 4, 8, 16),
    "MRU": (2, 4, 6, 8, 10, 12),
    "LIP": (2, 4, 6),
    "SRRIP-HP": (2, 4, 6),
    "SRRIP-FP": (2, 4, 6),
}


@dataclass
class Table2Row:
    """One row of the reproduced Table 2."""

    policy: str
    associativity: int
    learned_states: int
    paper_states: Optional[int]
    seconds: float
    #: Executed membership queries of the shared query engine.  Since the
    #: engine sits under *both* the observation table and the conformance
    #: tester, this includes executed Wp-suite words — unlike the seed,
    #: which counted learner-side queries only, and closer to the paper's
    #: accounting of everything the system under learning answers.
    membership_queries: int
    cache_probes: int
    block_accesses: int
    identified: Optional[str]
    cache_hits: int = 0
    tests_skipped: int = 0
    #: Which student produced the row (``"lstar"`` / ``"ttt"``) —
    #: kept per row so mixed-learner sweeps stay honest about who asked how
    #: much.
    learner: str = "lstar"
    #: Executed membership queries per equivalence round, in round order.
    per_round_queries: Tuple[int, ...] = ()
    #: Executed queries attributed to the learner's own probes (engine total
    #: minus conformance-suite executions) — the apples-to-apples cost when
    #: comparing learners, since suite vocabulary overlap differs per learner.
    learner_queries: int = 0
    #: Executed *symbols* attributed to the learner, same attribution as
    #: ``learner_queries``.  Queries alone cannot show a
    #: shorter-discriminator win: two learners can ask the same number of
    #: words while one pays fewer symbols per word.
    learner_symbols: int = 0

    @property
    def matches_paper(self) -> Optional[bool]:
        """True/False when the paper reports a state count, ``None`` otherwise."""
        if self.paper_states is None:
            return None
        return self.paper_states == self.learned_states


def table2_configurations(mode: str = "fast") -> List[Tuple[str, int]]:
    """Return the (policy, associativity) pairs to learn for the given mode.

    * ``fast`` — every policy at associativities 2 and 4 except the two
      SRRIP variants, which are learned at associativity 2 only (178/256
      states take minutes; the growth trend is still visible);
    * ``standard`` — adds associativity 4 for SRRIP and 6/8 for the cheaper
      policies (machines up to a few hundred states);
    * ``full`` — the paper's complete sweep (days of compute; PLRU-16 alone
      has 32768 states).
    """
    mode = mode.lower()
    if mode == "full":
        return [(policy, assoc) for policy, sweep in PAPER_SWEEP.items() for assoc in sweep]
    configurations: List[Tuple[str, int]] = []
    for policy in TABLE2_POLICIES:
        configurations.append((policy, 2))
        if policy in ("SRRIP-HP", "SRRIP-FP"):
            if mode == "standard":
                configurations.append((policy, 4))
            continue
        configurations.append((policy, 4))
        if mode == "standard":
            if policy == "FIFO":
                configurations.extend([(policy, 8), (policy, 16)])
            elif policy == "PLRU":
                configurations.append((policy, 8))
            elif policy == "MRU":
                configurations.extend([(policy, 6), (policy, 8)])
            elif policy in ("LRU", "LIP"):
                configurations.append((policy, 6))
    return configurations


def run_table2(
    mode: str = "fast",
    configurations: Optional[Sequence[Tuple[str, int]]] = None,
    *,
    depth: int = 1,
    workers: Optional[int] = None,
    resume: bool = False,
    store=None,
    cache_path: Optional[str] = None,
    kernel: Optional[str] = "auto",
    learner: str = "lstar",
) -> List[Table2Row]:
    """Learn every configured policy from its software-simulated cache.

    ``workers=N`` (N > 1) runs each configuration's whole learning run —
    observation-table fill *and* conformance testing — on one shared
    process pool; the learned machines are bit-identical to serial runs
    (see :mod:`repro.learning.parallel`).  ``resume=True`` (serial only)
    answers each query by executing only its un-cached suffix through
    measurement sessions.  ``store``/``cache_path`` place every
    configuration's query engine in one shared
    :class:`~repro.store.PrefixStore` (one namespace per policy target);
    with a path the store is saved after every row, so an interrupted sweep
    resumes from what it already measured.  ``kernel`` selects the simulator
    execution strategy (``auto``/``python``/``scalar``); answers, machines
    and probe columns are identical across kernels.  ``learner`` selects the
    student (``"lstar"`` or ``"ttt"``); both learn identical minimal
    machines, so state and match columns are learner-invariant.
    """
    if configurations is None:
        configurations = table2_configurations(mode)
    if store is None and cache_path is not None:
        from repro.store import open_store

        store = open_store(cache_path)
    rows: List[Table2Row] = []
    for policy_name, associativity in configurations:
        policy = make_policy(policy_name, associativity)
        start = time.perf_counter()
        report = learn_simulated_policy(
            policy,
            depth=depth,
            workers=workers,
            resume=resume,
            store=store,
            kernel=kernel,
            learner=learner,
        )
        elapsed = time.perf_counter() - start
        if store is not None:
            store.save()
        rows.append(
            Table2Row(
                policy=policy_name,
                associativity=associativity,
                learned_states=report.num_states,
                paper_states=PAPER_TABLE2_STATES.get((policy_name, associativity)),
                seconds=elapsed,
                membership_queries=report.learning_result.statistics.membership_queries,
                cache_probes=report.polca_statistics.cache_probes,
                block_accesses=report.polca_statistics.block_accesses,
                identified=report.identified_policy,
                cache_hits=report.learning_result.statistics.cache_hits,
                tests_skipped=report.learning_result.statistics.tests_skipped,
                learner=report.learning_result.learner,
                per_round_queries=tuple(report.learning_result.per_round_queries),
                learner_queries=report.learning_result.learner_queries,
                learner_symbols=report.learning_result.learner_symbols,
            )
        )
    return rows


def format_table2(rows: Sequence[Table2Row]) -> str:
    """Render the reproduced Table 2."""
    headers = (
        "Policy",
        "Assoc.",
        "Learner",
        "# States",
        "Paper",
        "Match",
        "Time",
        "Memb. queries",
        "Lrn. symbols",
        "Cache probes",
        "Cache hits",
        "Skipped",
    )
    body = [
        (
            row.policy,
            row.associativity,
            row.learner,
            row.learned_states,
            row.paper_states if row.paper_states is not None else "-",
            {True: "yes", False: "NO", None: "-"}[row.matches_paper],
            format_seconds(row.seconds),
            row.membership_queries,
            row.learner_symbols,
            row.cache_probes,
            row.cache_hits,
            row.tests_skipped,
        )
        for row in rows
    ]
    return format_table(headers, body)
