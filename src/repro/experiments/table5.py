"""Table 5: synthesizing explanations for policies of associativity 4.

For each of the nine policies the experiment asks the synthesizer for an
explanation program that is trace-equivalent to the policy's canonical Mealy
machine (the same machine the learner recovers), first with the Simple
template and then with the Extended one — the same search order as the
paper.  PLRU is expected to fail: its control state is a global tree, not a
per-line age vector, so the template cannot express it.

The paper's absolute synthesis times (up to 4.5 days with Sketch) are not
expected to be reproduced; what must hold is the qualitative outcome
(which template explains which policy, PLRU unexplained) and the rough
ordering (Simple policies in seconds, SRRIP/New policies the slowest).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import SynthesisError
from repro.experiments.reporting import check_mode, format_seconds, format_table
from repro.policies.registry import TABLE5_POLICIES, make_policy
from repro.synthesis.synthesizer import SynthesisConfig, explain_policy
from repro.synthesis.template import ExplanationProgram

#: Template the paper reports per policy (None = synthesis fails).
PAPER_TABLE5_TEMPLATE = {
    "FIFO": "Simple",
    "LRU": "Simple",
    "PLRU": None,
    "LIP": "Simple",
    "MRU": "Extended",
    "SRRIP-HP": "Extended",
    "SRRIP-FP": "Extended",
    "NEW1": "Extended",
    "NEW2": "Extended",
}

#: Policies whose synthesis takes noticeably longer (skipped in fast mode).
SLOW_POLICIES = ("SRRIP-HP", "SRRIP-FP", "NEW2")


@dataclass
class Table5Row:
    """One row of the reproduced Table 5."""

    policy: str
    states: int
    template: Optional[str]
    paper_template: Optional[str]
    seconds: float
    explanation: Optional[ExplanationProgram]
    note: str = ""

    @property
    def matches_paper(self) -> bool:
        """True when the synthesized template class agrees with the paper."""
        return self.template == self.paper_template


def table5_policies(mode: str = "fast") -> List[str]:
    """Return the policies synthesized in the given mode.

    ``fast`` skips the three slowest searches (SRRIP-HP, SRRIP-FP and New2,
    roughly a minute each); ``standard`` and ``full`` run all nine.
    """
    if check_mode(mode) == "fast":
        return [name for name in TABLE5_POLICIES if name not in SLOW_POLICIES]
    return list(TABLE5_POLICIES)


def run_table5(
    mode: str = "fast",
    policies: Optional[Sequence[str]] = None,
    *,
    associativity: int = 4,
    max_seconds_per_policy: Optional[float] = 900.0,
) -> List[Table5Row]:
    """Synthesize explanations for the configured policies."""
    if policies is None:
        policies = table5_policies(mode)
    rows: List[Table5Row] = []
    for name in policies:
        policy = make_policy(name, associativity)
        states = policy.to_mealy().minimize().size
        start = time.perf_counter()
        try:
            result = explain_policy(
                policy, config=SynthesisConfig(max_seconds=max_seconds_per_policy)
            )
            rows.append(
                Table5Row(
                    policy=name,
                    states=states,
                    template=result.template,
                    paper_template=PAPER_TABLE5_TEMPLATE.get(name),
                    seconds=result.seconds,
                    explanation=result.program,
                )
            )
        except SynthesisError as error:
            rows.append(
                Table5Row(
                    policy=name,
                    states=states,
                    template=None,
                    paper_template=PAPER_TABLE5_TEMPLATE.get(name),
                    seconds=time.perf_counter() - start,
                    explanation=None,
                    note=str(error),
                )
            )
    return rows


def format_table5(rows: Sequence[Table5Row]) -> str:
    """Render the reproduced Table 5."""
    headers = ("Policy", "States", "Template", "Paper", "Match", "Time", "Note")
    body = [
        (
            row.policy,
            row.states,
            row.template or "-",
            row.paper_template or "-",
            "yes" if row.matches_paper else "NO",
            format_seconds(row.seconds),
            row.note[:60],
        )
        for row in rows
    ]
    return format_table(headers, body)
