"""The :class:`BatchSimulator` facade: a policy-word oracle over a kernel.

This is the execution core the rest of the stack plugs into: it owns one
compiled :class:`~repro.simkernel.tables.TabulatedPolicy` and the
tabulated stepper (:class:`~repro.simkernel.steppers.PythonKernel`) and
answers whole chunks of policy words at once.  On top of the chunk primitive it
implements the learning stack's full batched-oracle protocol
(:mod:`repro.learning.query_engine`):

* ``output_query(word)`` / ``output_query_batch(words)`` — answer words
  from the initial state;
* ``output_query_resume(prefix, suffix)`` with ``supports_resume`` —
  answer ``prefix + suffix`` while *stepping* only ``suffix``, resuming
  from the table state ``prefix`` reaches (computed by a table walk, never
  by re-answering the prefix).

That means a ``BatchSimulator`` can sit directly behind a
:class:`~repro.learning.oracles.CachedMembershipOracle` as a white-box
system under learning, or inside
:class:`~repro.polca.algorithm.PolcaMembershipOracle` as the fast path that
replaces per-symbol cache probing for simulated targets (where the
interface guarantees policy-exact semantics).

Outputs are always plain Python values (``"-"`` or ``int``): answers must
be bit-identical to the scalar path — including through pickling, the
prefix store codec and machine equality.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.alphabet import PolicyInput, PolicyOutput
from repro.learning.oracles import QueryStatistics
from repro.simkernel.steppers import PythonKernel
from repro.simkernel.tables import TabulatedPolicy, tabulate_policy

Word = Sequence[PolicyInput]
OutputWord = Tuple[PolicyOutput, ...]


class BatchSimulator:
    """Answer chunks of policy words through a tabulated execution kernel."""

    supports_resume = True

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
        self._stepper = PythonKernel(self.table)
        #: The kernel bound (always "python").
        self.kernel = self._stepper.name
        self.associativity = self.table.associativity
        self.statistics = QueryStatistics()

    # -------------------------------------------------------------- chunk API

    def answer_words(self, words: Sequence[Word]) -> List[OutputWord]:
        """Answer a chunk of policy words from the initial state, in order."""
        outputs, _ = self._run([self.table.encode_word(word) for word in words], None)
        return outputs

    def answer_words_from_states(
        self, words: Sequence[Word], states: Sequence[int]
    ) -> Tuple[List[OutputWord], List[int]]:
        """Answer a chunk resuming each word from its own table state."""
        return self._run([self.table.encode_word(word) for word in words], list(states))

    def state_after(self, word: Word, state: int = 0) -> int:
        """Return the table state reached after reading ``word`` from ``state``."""
        current = state
        table = self.table
        for code in table.encode_word(word):
            current, _ = table.step(current, code)
        return current

    def _run(
        self, code_words: List[Tuple[int, ...]], states: Optional[List[int]]
    ) -> Tuple[List[OutputWord], List[int]]:
        answered, end_states = self._stepper.run_chunk(code_words, states)
        decode = self.table.decode_outputs
        for word in code_words:
            self.statistics.record_query(len(word))
        return [decode(codes) for codes in answered], end_states

    # ----------------------------------------------------- oracle protocol

    def output_query(self, word: Word) -> OutputWord:
        """Answer one policy word (the membership-oracle entry point)."""
        return self.answer_words([tuple(word)])[0]

    def output_query_batch(self, words: Sequence[Word]) -> List[OutputWord]:
        """Answer a batch of policy words, one output word per input word."""
        return self.answer_words([tuple(word) for word in words])

    def output_query_resume(
        self,
        prefix: Word,
        suffix: Word,
        prefix_outputs: Optional[Sequence[Hashable]] = None,
    ) -> OutputWord:
        """Answer ``prefix + suffix`` stepping only ``suffix``.

        ``prefix_outputs`` is accepted for protocol compatibility and
        ignored: like a machine-backed oracle, the simulator re-derives the
        resume state directly from the table (an O(|prefix|) walk that
        executes nothing).
        """
        state = self.state_after(tuple(prefix))
        outputs, _ = self.answer_words_from_states([tuple(suffix)], [state])
        self.statistics.resumed_symbols += len(tuple(prefix))
        return outputs[0]
