"""Counterexample processing strategies.

When the equivalence oracle returns an input word on which the hypothesis
and the system under learning disagree, the observation table must be
refined so the next hypothesis fixes the disagreement.  Two classic
strategies are provided:

* :func:`process_counterexample_prefixes` — Angluin's original treatment:
  add every prefix of the counterexample as a short row.  Simple, but adds
  up to ``|cex|`` rows per counterexample.

* :func:`process_counterexample_rivest_schapire` — the Rivest–Schapire
  refinement: binary-search the counterexample for the position where the
  hypothesis "loses track" of the system and add a single distinguishing
  suffix instead.  This keeps the table small and is the default used by the
  learner (LearnLib's ``RivestSchapire`` handler plays the same role).

The binary search itself, :func:`rivest_schapire_split`, is shared with the
TTT tree (:meth:`~repro.learning.ttt.TTTTree.refine`).
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, Tuple

from repro.core.mealy import MealyMachine
from repro.errors import LearningError
from repro.learning.observation_table import ObservationTable
from repro.learning.oracles import MembershipOracle

Input = Hashable
Word = Tuple[Input, ...]


def process_counterexample_prefixes(
    table: ObservationTable,
    counterexample: Sequence[Input],
) -> None:
    """Add every proper prefix of ``counterexample`` as a short row."""
    counterexample = tuple(counterexample)
    if not counterexample:
        raise LearningError("a counterexample must contain at least one input symbol")
    for length in range(1, len(counterexample) + 1):
        table.add_short_prefix(counterexample[:length])
    table.make_closed_and_consistent()


def rivest_schapire_split(
    word: Word,
    hypothesis: MealyMachine,
    access_words: Sequence[Word],
    oracle: MembershipOracle,
) -> Optional[int]:
    """Binary-search a counterexample for the index where agreement flips.

    For every split position ``i`` define ``alpha_i = access(state(w[:i])) +
    w[i:]`` — the counterexample with its prefix replaced by the access word
    (``access_words[state]``) of the hypothesis state that prefix reaches.
    ``alpha_0`` *is* the counterexample, so it disagrees with the
    hypothesis; when ``alpha_|w|`` agrees, there is an index ``i`` with
    ``alpha_i`` disagreeing and ``alpha_{i+1}`` agreeing, and the suffix
    ``w[i+1:]`` distinguishes two states the hypothesis merges.  Returns
    that ``i``, or ``None`` when ``alpha_|w|`` still disagrees (the access
    map is broken: each caller handles that its own way).  Raises
    :class:`~repro.errors.LearningError` when ``alpha_0`` agrees — a
    spurious counterexample.
    """

    def disagrees(split: int) -> bool:
        patched = access_words[hypothesis.state_after(word[:split])] + word[split:]
        if not patched:
            return False
        return tuple(oracle.output_query(patched)) != hypothesis.run(patched)

    if not disagrees(0):
        raise LearningError(
            f"spurious counterexample {list(word)}: hypothesis already agrees "
            "with the target"
        )
    low, high = 0, len(word)
    # Invariant: disagrees(low) is True, disagrees(high) is False.
    if disagrees(high):
        return None
    while high - low > 1:
        middle = (low + high) // 2
        if disagrees(middle):
            low = middle
        else:
            high = middle
    return low


def process_counterexample_rivest_schapire(
    table: ObservationTable,
    hypothesis: MealyMachine,
    oracle: MembershipOracle,
    counterexample: Sequence[Input],
) -> None:
    """Extract one distinguishing suffix from ``counterexample`` (Rivest–Schapire).

    ``hypothesis`` must be the table's last :meth:`~repro.learning.\
observation_table.ObservationTable.hypothesis`, whose access words the
    search (:func:`rivest_schapire_split`) patches in; any other hypothesis
    raises :class:`~repro.errors.LearningError` (the learner then falls
    back to the prefix strategy).  The suffix after the flip distinguishes
    two states the hypothesis currently merges and is added as a new column.
    """
    word = tuple(counterexample)
    if not word:
        raise LearningError("a counterexample must contain at least one input symbol")
    access_words = table.access_words
    if len(access_words) != hypothesis.size or any(
        hypothesis.state_after(access) != state
        for state, access in enumerate(access_words)
    ):
        raise LearningError(
            "the table's access words do not match this hypothesis: pass the "
            "table's last hypothesis()"
        )
    split = rivest_schapire_split(word, hypothesis, access_words, oracle)
    if split is None:
        # The hypothesis disagrees with itself only if the access-word map is
        # broken; fall back to the prefix strategy which is always sound.
        process_counterexample_prefixes(table, word)
        return

    suffix = word[split + 1 :]
    if suffix:
        added = table.add_suffix(suffix)
    else:
        added = False
    if not added:
        # The suffix is already present: refine with prefixes to guarantee progress.
        process_counterexample_prefixes(table, word)
        return
    table.make_closed_and_consistent()
