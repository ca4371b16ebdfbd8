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

Outputs are always plain Python values (``"-"`` or ``int``): answers must
be bit-identical to the scalar path — including through pickling, the
prefix store codec and machine equality.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.alphabet import PolicyInput, PolicyOutput
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

    def answer_words(self, words: Sequence[Word]) -> List[OutputWord]:
        """Answer a chunk of policy words from the initial state, in order."""
        table = self.table
        encode = table.encode_word
        decode = table.decode_outputs
        next_state = table.next_state
        outputs = table.outputs
        width = table.num_symbols
        initial = table.initial_state
        answers: List[OutputWord] = []
        for word in words:
            state = initial
            codes = []
            append = codes.append
            for code in encode(word):
                base = state * width + code
                append(outputs[base])
                state = next_state[base]
            answers.append(decode(codes))
        return answers
