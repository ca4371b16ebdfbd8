"""Enumerative, CEGIS-style synthesis of policy explanations.

The synthesizer searches a :class:`~repro.synthesis.grammar.GrammarConfig`
for a template instantiation whose induced policy is trace-equivalent to a
given (learned) Mealy machine.  The search is organised to stay fast despite
the naive enumeration:

1. **Miss-path search** — the behaviour of a policy on eviction-only input
   words (``Evct^k``) depends only on the initial state, the eviction rule,
   the insertion rule and the normalizations.  Those components are
   enumerated first and pruned against the learned machine's eviction
   sequence, which eliminates the vast majority of combinations after one or
   two comparisons.
2. **Promotion search with counterexamples** — for every surviving miss-path
   configuration the promotion rules are enumerated.  Each candidate is
   first replayed on a growing set of counterexample words (CEGIS style);
   only candidates that survive every recorded counterexample are subjected
   to the full trace-equivalence check, and a failed full check contributes
   a new counterexample.

A returned program is *guaranteed* equivalent to the input machine (the
final check is exact), which is the soundness property of Section 5.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.alphabet import EVICT, Line, policy_input_alphabet
from repro.core.mealy import MealyMachine, shortest_counterexample
from repro.errors import SynthesisError
from repro.learning.wpmethod import characterization_set, state_cover
from repro.policies.base import ReplacementPolicy
from repro.synthesis.grammar import GrammarConfig, extended_grammar, simple_grammar
from repro.synthesis.rules import EvictionRule, NormalizationRule, UpdateRule
from repro.synthesis.template import ExplanationProgram

Word = Tuple


@dataclass
class SynthesisConfig:
    """Budget and behaviour switches for one synthesis run."""

    max_age: int = 3
    max_seconds: Optional[float] = None
    max_full_checks: int = 50_000
    eviction_probe_length: Optional[int] = None
    extra_test_words: Tuple[Word, ...] = ()


@dataclass
class SynthesisResult:
    """Outcome of a successful synthesis run."""

    program: ExplanationProgram
    template: str
    seconds: float
    miss_candidates: int
    promotion_candidates: int
    full_checks: int
    machine_states: int

    def pretty(self) -> str:
        """Render the synthesized explanation plus search statistics."""
        return (
            f"{self.program.pretty()}\n"
            f"  [template={self.template}, time={self.seconds:.2f}s, "
            f"candidates={self.miss_candidates + self.promotion_candidates}, "
            f"machine states={self.machine_states}]"
        )


class _Deadline:
    def __init__(self, seconds: Optional[float]) -> None:
        self._limit = None if seconds is None else time.perf_counter() + seconds

    def check(self) -> None:
        if self._limit is not None and time.perf_counter() > self._limit:
            raise SynthesisError("synthesis budget exhausted")


def _eviction_trace(machine: MealyMachine, length: int) -> Tuple:
    """Victim sequence the learned machine produces for ``Evct^length``."""
    return machine.run((EVICT,) * length)


def _initial_test_words(machine: MealyMachine, associativity: int) -> List[Word]:
    """A small, discriminating set of words used to reject candidates early."""
    alphabet = policy_input_alphabet(associativity)
    words: List[Word] = []
    # All words of length 1 and 2: cheap and catch most wrong promotions.
    for symbol in alphabet:
        words.append((symbol,))
    for first in alphabet:
        for second in alphabet:
            words.append((first, second))
    # Access words of the learned machine combined with its distinguishing
    # suffixes: these reach and separate every state of the machine.
    cover = list(state_cover(machine).values())
    suffixes = characterization_set(machine)
    for access in cover[:64]:
        for suffix in suffixes[:16]:
            words.append(tuple(access) + tuple(suffix))
    # Longer mixed words exercise the normalization rules.
    line0 = Line(0)
    words.append((EVICT, line0, EVICT, line0, EVICT, EVICT, line0, EVICT))
    words.sort(key=len)
    return words


def _candidate_matches_word(
    program: ExplanationProgram, machine: MealyMachine, word: Word
) -> bool:
    """Replay ``word`` on the candidate and the machine; early-exit on mismatch."""
    ages = tuple(program.initial_ages)
    state = machine.initial_state
    for symbol in word:
        state, expected = machine.step(state, symbol)
        if isinstance(symbol, Line):
            ages = program.hit(ages, symbol.index)
            produced = "-"
        else:
            ages, produced = program.miss(ages)
        if produced != expected:
            return False
    return True


def _full_equivalence_counterexample(
    program: ExplanationProgram, machine: MealyMachine
) -> Optional[Word]:
    """Exact trace-equivalence check; returns a counterexample word or ``None``."""
    policy = program.as_policy()
    bound = (program.max_age + 1) ** program.associativity * 4 + 16
    return shortest_counterexample(
        machine, policy.initial_state(), policy.step, max_pairs=bound
    )


def synthesize_explanation(
    machine: MealyMachine,
    associativity: int,
    *,
    template: str = "auto",
    config: Optional[SynthesisConfig] = None,
    name: str = "synthesized",
) -> SynthesisResult:
    """Synthesize an explanation program equivalent to ``machine``.

    ``template`` is ``"simple"``, ``"extended"`` or ``"auto"`` (try the Simple
    template first and fall back to the Extended one, as the paper does).
    Raises :class:`~repro.errors.SynthesisError` when the grammar contains no
    equivalent program or the budget is exhausted.
    """
    config = config or SynthesisConfig()
    template = template.lower()
    if template not in ("simple", "extended", "auto"):
        raise SynthesisError(f"unknown template {template!r}")
    attempts = {
        "simple": [simple_grammar(associativity, config.max_age)],
        "extended": [extended_grammar(associativity, config.max_age)],
        "auto": [
            simple_grammar(associativity, config.max_age),
            extended_grammar(associativity, config.max_age),
        ],
    }[template]
    last_error: Optional[SynthesisError] = None
    for grammar in attempts:
        try:
            return _synthesize_with_grammar(machine, grammar, config, name)
        except SynthesisError as error:
            last_error = error
    raise last_error if last_error is not None else SynthesisError("synthesis failed")


def _synthesize_with_grammar(
    machine: MealyMachine,
    grammar: GrammarConfig,
    config: SynthesisConfig,
    name: str,
) -> SynthesisResult:
    start = time.perf_counter()
    deadline = _Deadline(config.max_seconds)
    associativity = grammar.associativity
    probe_length = config.eviction_probe_length or (4 * associativity + 17)
    eviction_expected = _eviction_trace(machine, probe_length)

    # ----------------------------------------------------- stage 1: miss path
    identity_promotion = UpdateRule()
    miss_candidates = 0
    survivors: List[Tuple] = []
    for initial, eviction, insertion, pre_norm, post_norm in itertools.product(
        grammar.initial_ages,
        grammar.eviction_rules,
        grammar.insertion_rules,
        grammar.pre_miss_normalizations,
        grammar.post_normalizations,
    ):
        miss_candidates += 1
        if miss_candidates % 4096 == 0:
            deadline.check()
        program = ExplanationProgram(
            associativity=associativity,
            initial_ages=initial,
            promotion=identity_promotion,
            insertion=insertion,
            eviction=eviction,
            pre_miss_normalization=pre_norm,
            post_normalization=post_norm,
            max_age=grammar.max_age,
            name=name,
        )
        ages = tuple(initial)
        consistent = True
        for expected in eviction_expected:
            ages, victim = program.miss(ages)
            if victim != expected:
                consistent = False
                break
        if consistent:
            survivors.append((initial, eviction, insertion, pre_norm, post_norm))

    if not survivors:
        raise SynthesisError(
            f"no miss-path configuration in the {grammar.name} template matches the machine"
        )

    # ------------------------------------------- stage 2: promotion + CEGIS
    tests: List[Word] = _initial_test_words(machine, associativity)
    tests.extend(config.extra_test_words)
    promotion_candidates = 0
    full_checks = 0
    for survivor in survivors:
        initial, eviction, insertion, pre_norm, post_norm = survivor
        for promotion in grammar.promotion_rules:
            promotion_candidates += 1
            if promotion_candidates % 1024 == 0:
                deadline.check()
            program = ExplanationProgram(
                associativity=associativity,
                initial_ages=initial,
                promotion=promotion,
                insertion=insertion,
                eviction=eviction,
                pre_miss_normalization=pre_norm,
                post_normalization=post_norm,
                max_age=grammar.max_age,
                name=name,
            )
            if not all(_candidate_matches_word(program, machine, word) for word in tests):
                continue
            full_checks += 1
            if full_checks > config.max_full_checks:
                raise SynthesisError("synthesis exceeded the full-equivalence check budget")
            counterexample = _full_equivalence_counterexample(program, machine)
            if counterexample is None:
                return SynthesisResult(
                    program=program,
                    template=grammar.name,
                    seconds=time.perf_counter() - start,
                    miss_candidates=miss_candidates,
                    promotion_candidates=promotion_candidates,
                    full_checks=full_checks,
                    machine_states=machine.size,
                )
            tests.append(tuple(counterexample))
    raise SynthesisError(
        f"the {grammar.name} template cannot explain the given machine "
        f"({machine.size} states)"
    )


def explain_policy(
    policy: ReplacementPolicy,
    *,
    template: str = "auto",
    config: Optional[SynthesisConfig] = None,
) -> SynthesisResult:
    """Synthesize an explanation for a known policy implementation.

    The policy is first enumerated and minimised into its canonical Mealy
    machine (the same machine the learner recovers, by Theorem 3.1 /
    Proposition 3.2) and the explanation is synthesized against it.
    """
    machine = policy.to_mealy().minimize()
    return synthesize_explanation(
        machine,
        policy.associativity,
        template=template,
        config=config,
        name=policy.name,
    )
