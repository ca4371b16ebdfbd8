"""The :class:`BatchSimulator`: a tabulated policy that answers chunks of words.

:class:`~repro.polca.algorithm.PolcaMembershipOracle` binds one for a
simulated target and hands it every batch of words it executes.
:meth:`BatchSimulator.answer_words` steps each word through the flat
``next_state`` / ``outputs`` tuples of its
:class:`~repro.simkernel.tables.TabulatedPolicy` in a tight per-word loop —
several times faster than the scalar policy objects (no isinstance
dispatch, no per-step object churn).  Answering is a pure function of the
table: splitting a chunk in two can never change an answer, the property
``tests/test_simkernel.py`` and ``tests/test_property_fuzz.py`` pin down.

Symbols are converted by lookup, not per-symbol calls: a per-simulator dict
maps each policy input to its column index, filled by the validating
:meth:`~repro.simkernel.tables.TabulatedPolicy.encode_symbol` the first
time the simulator meets that symbol (so it holds at most the alphabet),
and output codes index one ``associativity + 1`` tuple of decoded outputs.

Outputs are always plain Python values (``"-"`` or ``int``): answers must
be bit-identical to the scalar path — including through pickling, the
prefix store codec and machine equality.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.alphabet import MISS_OUTPUT, PolicyInput, PolicyOutput
from repro.simkernel.tables import TabulatedPolicy, tabulate_policy

Word = Sequence[PolicyInput]
OutputWord = Tuple[PolicyOutput, ...]


class BatchSimulator:
    """Answer chunks of policy words by stepping a tabulated policy."""

    #: The kernel name Polca reports while this simulator answers.
    kernel = "python"

    def __init__(self, policy, *, max_states: Optional[int] = None) -> None:
        """Compile ``policy`` (or adopt a ready :class:`TabulatedPolicy`).

        Raises :class:`~repro.errors.PolicyError` when the policy does not
        tabulate within its state bound — ``kernel="auto"`` consumers catch
        it and fall back to scalar stepping.
        """
        if isinstance(policy, TabulatedPolicy):
            self.table = policy
        else:
            self.table = tabulate_policy(policy, max_states=max_states)
        #: Column index of every input symbol met so far, each validated
        #: by ``encode_symbol`` before it is kept.
        self._codes: Dict[PolicyInput, int] = {}
        # Output code -> output: victim ``i`` at index ``i``, and
        # ``MISS_CODE`` (-1) picks the trailing ``MISS_OUTPUT``.
        self._decoded = tuple(range(self.table.associativity)) + (MISS_OUTPUT,)

    def answer_words(self, words: Sequence[Word]) -> List[OutputWord]:
        """Answer a chunk of policy words from the initial state, in order."""
        try:
            return self._step_words(words)
        except (KeyError, TypeError):
            # A symbol this simulator has not met yet: validate and keep
            # every symbol of the chunk (a non-input raises PolicyError),
            # then step the chunk again.
            self._validate_symbols(words)
            return self._step_words(words)

    def _validate_symbols(self, words: Sequence[Word]) -> None:
        codes = self._codes
        encode_symbol = self.table.encode_symbol
        for word in words:
            for symbol in word:
                codes[symbol] = encode_symbol(symbol)

    def _step_words(self, words: Sequence[Word]) -> List[OutputWord]:
        """Step every word through the table; ``KeyError`` on an unmet symbol."""
        table = self.table
        codes = self._codes
        decoded = self._decoded
        next_state = table.next_state
        outputs = table.outputs
        width = table.num_symbols
        initial = table.initial_state
        answers: List[OutputWord] = []
        for word in words:
            state = initial
            produced = []
            append = produced.append
            for symbol in word:
                base = state * width + codes[symbol]
                append(decoded[outputs[base]])
                state = next_state[base]
            answers.append(tuple(produced))
        return answers
