"""The tabulated execution kernel over a :class:`TabulatedPolicy`.

A kernel answers *chunks* of policy words: given a list of encoded words
(and optionally one start state per word), it returns every word's encoded
output word plus the control state each word ends in.
:class:`PythonKernel` does that with a tight per-word loop over the flat
tuples — several times faster than the scalar policy objects (no
isinstance dispatch, no per-step object churn).

The kernel is a pure function of the table: interleaving chunk calls or
splitting a chunk in two can never change an answer — the property the
differential tests (``tests/test_simkernel.py``,
``tests/test_property_fuzz.py``) pin down.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.simkernel.tables import TabulatedPolicy

CodeWord = Tuple[int, ...]


class PythonKernel:
    """The dependency-free tabulated stepper: flat-tuple lookups per symbol."""

    name = "python"

    def __init__(self, table: TabulatedPolicy) -> None:
        self.table = table
        self._next = table.next_state
        self._outputs = table.outputs
        self._width = table.num_symbols

    def run_chunk(
        self,
        code_words: Sequence[CodeWord],
        start_states: Optional[Sequence[int]] = None,
    ) -> Tuple[List[CodeWord], List[int]]:
        """Step every word of a chunk; return (output code words, end states)."""
        next_state = self._next
        outputs = self._outputs
        width = self._width
        answered: List[CodeWord] = []
        end_states: List[int] = []
        for row, codes in enumerate(code_words):
            state = 0 if start_states is None else start_states[row]
            word_out = []
            append = word_out.append
            for code in codes:
                base = state * width + code
                append(outputs[base])
                state = next_state[base]
            answered.append(tuple(word_out))
            end_states.append(state)
        return answered, end_states
