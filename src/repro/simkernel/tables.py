"""Compiling bounded replacement policies into flat transition arrays.

A deterministic replacement policy of associativity ``n`` is a Mealy machine
over the alphabet ``Ln(0), ..., Ln(n-1), Evct`` (Definition 2.1).  The
policies in :mod:`repro.policies` expose that machine through pure step
functions over opaque control states — ideal for clarity, hopeless for
throughput: every simulated access pays attribute lookups, isinstance
dispatch and a fresh Python object per state.

:func:`tabulate_policy` trades memory for speed once per policy instance: it
enumerates the reachable control states via the existing
:meth:`~repro.policies.base.ReplacementPolicy.to_mealy` machinery and lays
the machine out as two dense row-major arrays

* ``next_state[state * num_symbols + symbol] -> state`` and
* ``outputs[state * num_symbols + symbol] -> encoded output``,

with states numbered ``0 .. num_states - 1`` in BFS discovery order (the
initial state is always ``0``), input symbols numbered ``Ln(i) -> i`` and
``Evct -> associativity``, and outputs encoded as ``-1`` for the paper's
``⊥`` (:data:`~repro.core.alphabet.MISS_OUTPUT`) or the victim line index.
:class:`~repro.simkernel.batch.BatchSimulator` indexes the flat tuples
directly.

Tables are immutable, hashable-free plain data and therefore picklable: a
:class:`~repro.learning.parallel.WorkerPool` ships them to its workers
inside the Polca oracle they are bound to, so no worker tabulates a policy
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.alphabet import (
    MISS_OUTPUT,
    Evict,
    Line,
    PolicyInput,
    PolicyOutput,
)
from repro.core.mealy import MealyDefinitionError
from repro.errors import PolicyError

#: Reachable-state budget used when neither the caller nor the policy
#: declares one.  Generous enough for every Table 2 configuration (PLRU-16
#: tops out at 32768 control states) while still catching runaway state
#: spaces quickly.
DEFAULT_STATE_BOUND = 1 << 17


@dataclass(frozen=True)
class TabulatedPolicy:
    """A replacement policy compiled to flat transition/output arrays.

    ``next_state`` and ``outputs`` are row-major flat tuples of length
    ``num_states * num_symbols``; see the module docstring for the symbol
    and output encodings.  Instances are produced by
    :func:`tabulate_policy` (or the
    :meth:`~repro.policies.base.ReplacementPolicy.tabulate` hook) and
    stepped by :class:`~repro.simkernel.batch.BatchSimulator`.
    """

    name: str
    associativity: int
    num_states: int
    next_state: Tuple[int, ...]
    outputs: Tuple[int, ...]

    #: Encoded output standing for the paper's ``⊥`` (a hit: no eviction).
    MISS_CODE = -1

    @property
    def num_symbols(self) -> int:
        """Size of the input alphabet: ``Ln(0..n-1)`` plus ``Evct``."""
        return self.associativity + 1

    @property
    def initial_state(self) -> int:
        """The compiled id of the policy's initial control state."""
        return 0

    # ------------------------------------------------------------- encodings

    def encode_symbol(self, symbol: PolicyInput) -> int:
        """Map a policy input to its column index (``Ln(i) -> i``, ``Evct -> n``)."""
        if isinstance(symbol, Line):
            if not 0 <= symbol.index < self.associativity:
                raise PolicyError(
                    f"{self.name}: line {symbol.index} out of range for "
                    f"associativity {self.associativity}"
                )
            return symbol.index
        if isinstance(symbol, Evict):
            return self.associativity
        raise PolicyError(f"{self.name}: unknown policy input {symbol!r}")

    def encode_word(self, word: Sequence[PolicyInput]) -> Tuple[int, ...]:
        """Encode a whole policy word into symbol indices."""
        return tuple(self.encode_symbol(symbol) for symbol in word)

    def decode_output(self, code: int) -> PolicyOutput:
        """Map an encoded output back to ``⊥`` or a victim line index."""
        return MISS_OUTPUT if code == self.MISS_CODE else code

    def decode_outputs(self, codes: Sequence[int]) -> Tuple[PolicyOutput, ...]:
        """Decode a whole output word (always plain Python ints/str)."""
        miss = self.MISS_CODE
        return tuple(MISS_OUTPUT if code == miss else code for code in codes)

    # -------------------------------------------------------------- stepping

    def step(self, state: int, code: int) -> Tuple[int, int]:
        """Scalar reference step: ``(state, symbol code) -> (state', output code)``."""
        base = state * self.num_symbols + code
        return self.next_state[base], self.outputs[base]


def _encode_output(output: PolicyOutput, associativity: int, name: str) -> int:
    if output == MISS_OUTPUT:
        return TabulatedPolicy.MISS_CODE
    if isinstance(output, int) and not isinstance(output, bool):
        if 0 <= output < associativity:
            return output
    raise PolicyError(
        f"{name}: output {output!r} is not a policy output "
        f"(expected {MISS_OUTPUT!r} or a line index below {associativity})"
    )


def tabulate_policy(policy, *, max_states: int = None) -> TabulatedPolicy:
    """Compile ``policy`` into a :class:`TabulatedPolicy`.

    The state bound is, in order of precedence: the ``max_states`` argument,
    the policy's declared ``tabulation_state_bound``, then
    :data:`DEFAULT_STATE_BOUND`.  Exceeding it — or a policy that opts out
    with ``supports_tabulation = False`` — raises a clean
    :class:`~repro.errors.PolicyError`, which ``kernel="auto"`` consumers
    (:class:`~repro.polca.algorithm.PolcaMembershipOracle`) treat as "fall
    back to the scalar stepper".
    """
    if not getattr(policy, "supports_tabulation", True):
        raise PolicyError(
            f"{getattr(policy, 'name', policy)!r} declares "
            "supports_tabulation=False and cannot be compiled to a "
            "transition table"
        )
    bound = max_states
    if bound is None:
        bound = getattr(policy, "tabulation_state_bound", None)
    if bound is None:
        bound = DEFAULT_STATE_BOUND
    if bound < 1:
        raise PolicyError(f"tabulation state bound must be >= 1, got {bound}")
    try:
        machine = policy.to_mealy(max_states=bound)
    except MealyDefinitionError as exc:
        raise PolicyError(
            f"{policy.name}: policy does not tabulate within the "
            f"{bound}-state bound ({exc}); raise tabulation_state_bound or "
            "use the scalar stepper"
        ) from exc
    associativity = policy.associativity
    symbols = policy.input_alphabet()
    index = {state: i for i, state in enumerate(machine.states)}
    if index[machine.initial_state] != 0:  # pragma: no cover - BFS invariant
        raise PolicyError(f"{policy.name}: initial state was not enumerated first")
    next_state = []
    outputs = []
    for state in machine.states:
        for symbol in symbols:
            key = (state, symbol)
            next_state.append(index[machine.transitions[key]])
            outputs.append(_encode_output(machine.outputs[key], associativity, policy.name))
    return TabulatedPolicy(
        name=f"{policy.name}-{associativity}",
        associativity=associativity,
        num_states=len(machine.states),
        next_state=tuple(next_state),
        outputs=tuple(outputs),
    )
