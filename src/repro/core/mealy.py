"""Deterministic Mealy machines.

This module provides the automaton model used everywhere in the library:

* replacement policies are Mealy machines (Definition 2.1 in the paper);
* the learner (our LearnLib substitute) produces hypotheses as Mealy machines;
* the synthesizer checks candidate programs by Mealy trace-equivalence.

The implementation favours explicit data structures over cleverness: a
machine is a set of states with a transition map ``(state, input) -> state``
and an output map ``(state, input) -> output``.  States can be arbitrary
hashable objects (policy control states, observation-table rows, age
vectors), which keeps the rest of the code free of encoding concerns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.trace import Trace
from repro.errors import ReproError

State = Hashable
Input = Hashable
Output = Hashable

StateT = TypeVar("StateT", bound=Hashable)


class MealyDefinitionError(ReproError):
    """The machine definition is incomplete or inconsistent."""


@dataclass
class MealyMachine:
    """A deterministic, complete Mealy machine.

    Parameters
    ----------
    states:
        Collection of states.  Order is preserved and used for display.
    initial_state:
        The initial state; must be a member of ``states``.
    inputs:
        The input alphabet.
    transitions:
        Mapping ``(state, input) -> successor state``.
    outputs:
        Mapping ``(state, input) -> output symbol``.
    """

    states: List[State]
    initial_state: State
    inputs: List[Input]
    transitions: Dict[Tuple[State, Input], State]
    outputs: Dict[Tuple[State, Input], Output]
    name: str = ""
    _state_set: set = field(init=False, repr=False, default_factory=set)

    def __post_init__(self) -> None:
        self.states = list(self.states)
        self.inputs = list(self.inputs)
        self._state_set = set(self.states)
        if len(self._state_set) != len(self.states):
            raise MealyDefinitionError("duplicate states in machine definition")
        if self.initial_state not in self._state_set:
            raise MealyDefinitionError(f"initial state {self.initial_state!r} not in states")
        for state in self.states:
            for symbol in self.inputs:
                key = (state, symbol)
                if key not in self.transitions:
                    raise MealyDefinitionError(f"missing transition for {key!r}")
                if key not in self.outputs:
                    raise MealyDefinitionError(f"missing output for {key!r}")
                if self.transitions[key] not in self._state_set:
                    raise MealyDefinitionError(
                        f"transition {key!r} leads to unknown state {self.transitions[key]!r}"
                    )

    # ------------------------------------------------------------------ basic

    @property
    def size(self) -> int:
        """Number of states."""
        return len(self.states)

    def step(self, state: State, symbol: Input) -> Tuple[State, Output]:
        """Return ``(successor, output)`` for one input symbol."""
        key = (state, symbol)
        try:
            return self.transitions[key], self.outputs[key]
        except KeyError as exc:
            raise MealyDefinitionError(f"no transition for {key!r}") from exc

    def run(self, word: Sequence[Input], state: Optional[State] = None) -> Tuple[Output, ...]:
        """Return the output word produced when reading ``word``.

        This is the "output query" used by the learner: the machine is reset
        to ``state`` (the initial state by default) and the outputs of every
        input symbol are collected.
        """
        current = self.initial_state if state is None else state
        transitions = self.transitions
        outputs = self.outputs
        produced: List[Output] = []
        append = produced.append
        key = None
        try:
            for symbol in word:
                key = (current, symbol)
                append(outputs[key])
                current = transitions[key]
        except KeyError as exc:
            raise MealyDefinitionError(f"no transition for {key!r}") from exc
        return tuple(produced)

    def state_after(self, word: Sequence[Input], state: Optional[State] = None) -> State:
        """Return the state reached after reading ``word``."""
        current = self.initial_state if state is None else state
        transitions = self.transitions
        key = None
        try:
            for symbol in word:
                key = (current, symbol)
                current = transitions[key]
        except KeyError as exc:
            raise MealyDefinitionError(f"no transition for {key!r}") from exc
        return current

    def trace(self, word: Sequence[Input]) -> Trace:
        """Return the full input/output trace for ``word`` from the initial state."""
        return Trace.from_pairs(tuple(word), self.run(word))

    def accepts_trace(self, trace: Trace) -> bool:
        """Return ``True`` iff ``trace`` belongs to the machine's trace semantics."""
        return self.run(trace.inputs) == trace.outputs

    # ------------------------------------------------------- transformations

    def reachable(self) -> "MealyMachine":
        """Return the sub-machine restricted to states reachable from the initial state."""
        seen = {self.initial_state}
        order = [self.initial_state]
        queue = deque(order)
        while queue:
            state = queue.popleft()
            for symbol in self.inputs:
                successor = self.transitions[(state, symbol)]
                if successor not in seen:
                    seen.add(successor)
                    order.append(successor)
                    queue.append(successor)
        transitions = {
            (state, symbol): self.transitions[(state, symbol)]
            for state in order
            for symbol in self.inputs
        }
        outputs = {
            (state, symbol): self.outputs[(state, symbol)]
            for state in order
            for symbol in self.inputs
        }
        return MealyMachine(order, self.initial_state, list(self.inputs), transitions, outputs, self.name)

    def equivalence_blocks(self) -> Dict[State, int]:
        """Block index of every state in the coarsest partition of
        :attr:`states` into behaviourally equivalent states.

        Moore-style partition refinement: states start partitioned by their
        output row (the outputs they produce for every input) and the
        partition is refined by successor blocks until the block count
        stops growing.  The coarsest stable partition is unique, so which
        states share a block does not depend on the labels.
        """
        inputs = self.inputs
        index: Dict[Tuple, int] = {}
        block_of: Dict[State, int] = {}
        for state in self.states:
            signature = tuple(self.outputs[(state, symbol)] for symbol in inputs)
            block_of[state] = index.setdefault(signature, len(index))
        while True:
            count = len(index)
            index = {}
            refined: Dict[State, int] = {}
            for state in self.states:
                key = (
                    block_of[state],
                    tuple(block_of[self.transitions[(state, symbol)]] for symbol in inputs),
                )
                refined[state] = index.setdefault(key, len(index))
            block_of = refined
            if len(index) == count:
                return block_of

    def minimize(self) -> "MealyMachine":
        """Return the minimal machine equivalent to this one.

        Partitions the reachable states (:meth:`equivalence_blocks`) and
        returns the quotient over the blocks, relabelled (:meth:`relabel`)
        with consecutive integers in BFS order, the initial state becoming
        the block containing the original initial state.
        """
        machine = self.reachable()
        block_of = machine.equivalence_blocks()
        representative = {block: state for state, block in block_of.items()}
        transitions: Dict[Tuple[State, Input], State] = {}
        outputs: Dict[Tuple[State, Input], Output] = {}
        for block, state in representative.items():
            for symbol in machine.inputs:
                transitions[(block, symbol)] = block_of[machine.transitions[(state, symbol)]]
                outputs[(block, symbol)] = machine.outputs[(state, symbol)]
        quotient = MealyMachine(
            list(representative),
            block_of[machine.initial_state],
            list(machine.inputs),
            transitions,
            outputs,
            machine.name,
        )
        return quotient.relabel()

    def relabel(self) -> "MealyMachine":
        """Return an isomorphic machine whose states are ``0..n-1`` in BFS
        order: :meth:`reachable`'s state order."""
        machine = self.reachable()
        numbering = {state: number for number, state in enumerate(machine.states)}
        transitions = {
            (numbering[state], symbol): numbering[successor]
            for (state, symbol), successor in machine.transitions.items()
        }
        outputs = {
            (numbering[state], symbol): output
            for (state, symbol), output in machine.outputs.items()
        }
        return MealyMachine(
            list(range(len(numbering))), 0, list(machine.inputs), transitions, outputs, machine.name
        )

    # ------------------------------------------------------------ comparison

    def find_counterexample(self, other: "MealyMachine") -> Optional[Tuple[Input, ...]]:
        """Return a shortest input word on which the two machines disagree.

        Returns ``None`` if the machines are trace-equivalent.  Both machines
        must share the same input alphabet (as a set); the output alphabets
        may differ.
        """
        if set(self.inputs) != set(other.inputs):
            raise MealyDefinitionError("machines have different input alphabets")
        return shortest_counterexample(self, other.initial_state, other.step)

    def equivalent(self, other: "MealyMachine") -> bool:
        """Return ``True`` iff the two machines have the same trace semantics."""
        return self.find_counterexample(other) is None

    # --------------------------------------------------------------- exports

    def to_dot(self) -> str:
        """Render the machine in Graphviz DOT format (for inspection/docs)."""
        lines = ["digraph mealy {", "  rankdir=LR;", '  __start [shape=point, label=""];']
        index = {state: i for i, state in enumerate(self.states)}
        for state in self.states:
            lines.append(f'  s{index[state]} [shape=circle, label="{state}"];')
        lines.append(f"  __start -> s{index[self.initial_state]};")
        for state in self.states:
            for symbol in self.inputs:
                succ = self.transitions[(state, symbol)]
                out = self.outputs[(state, symbol)]
                lines.append(
                    f'  s{index[state]} -> s{index[succ]} [label="{symbol}/{out}"];'
                )
        lines.append("}")
        return "\n".join(lines)

    def transition_table(self) -> List[Tuple[State, Input, Output, State]]:
        """Return the machine as a flat list of ``(state, input, output, successor)`` rows."""
        rows = []
        for state in self.states:
            for symbol in self.inputs:
                rows.append(
                    (state, symbol, self.outputs[(state, symbol)], self.transitions[(state, symbol)])
                )
        return rows


def shortest_counterexample(
    machine: MealyMachine,
    initial_state: StateT,
    step: Callable[[StateT, Input], Tuple[StateT, Output]],
    *,
    max_pairs: Optional[int] = None,
) -> Optional[Tuple[Input, ...]]:
    """Return a shortest input word on which ``machine`` and a step function disagree.

    The other side is any deterministic system given as ``initial_state``
    plus ``step(state, input) -> (next_state, output)`` — another machine's
    :meth:`MealyMachine.step` or a policy's control-state step — and is
    never enumerated.  The walk is a breadth-first search over pairs
    ``(machine state, other state)`` from the two initial states, reading
    ``machine.inputs`` in order and stopping at the first differing output,
    so a wrong system costs the pairs up to its shortest counterexample and
    an equivalent one its reachable pairs.  Returns ``None`` when the two
    are trace-equivalent.  The caller ensures ``step`` accepts every symbol
    of ``machine.inputs``.

    Raises :class:`MealyDefinitionError` when more than ``max_pairs`` pairs
    are visited.
    """
    start = (machine.initial_state, initial_state)
    visited = {start}
    queue: deque = deque([(start, ())])
    while queue:
        (state_a, state_b), word = queue.popleft()
        for symbol in machine.inputs:
            next_a, out_a = machine.step(state_a, symbol)
            next_b, out_b = step(state_b, symbol)
            extended = word + (symbol,)
            if out_a != out_b:
                return extended
            pair = (next_a, next_b)
            if pair not in visited:
                if max_pairs is not None and len(visited) >= max_pairs:
                    raise MealyDefinitionError(
                        f"product walk exceeded max_pairs={max_pairs}"
                    )
                visited.add(pair)
                queue.append((pair, extended))
    return None


def mealy_from_step_function(
    initial_state: StateT,
    inputs: Iterable[Input],
    step: Callable[[StateT, Input], Tuple[StateT, Output]],
    *,
    max_states: int = 1_000_000,
    name: str = "",
) -> MealyMachine:
    """Enumerate the Mealy machine induced by a step function.

    ``step(state, input) -> (next_state, output)`` must be deterministic and
    produce hashable states.  The exploration is a breadth-first search from
    ``initial_state``; it raises :class:`MealyDefinitionError` when more than
    ``max_states`` states are discovered, which guards against accidentally
    enumerating an unbounded system.

    This is how concrete replacement-policy implementations (``repro.policies``)
    are converted into explicit automata, e.g. to obtain ground-truth state
    counts for Table 2 or reference machines for conformance checks.
    """
    input_list = list(inputs)
    states: List[StateT] = [initial_state]
    seen = {initial_state}
    transitions: Dict[Tuple[State, Input], State] = {}
    outputs: Dict[Tuple[State, Input], Output] = {}
    queue = deque([initial_state])
    while queue:
        state = queue.popleft()
        for symbol in input_list:
            successor, output = step(state, symbol)
            transitions[(state, symbol)] = successor
            outputs[(state, symbol)] = output
            if successor not in seen:
                if len(seen) >= max_states:
                    raise MealyDefinitionError(
                        f"state enumeration exceeded max_states={max_states}"
                    )
                seen.add(successor)
                states.append(successor)
                queue.append(successor)
    return MealyMachine(states, initial_state, input_list, transitions, outputs, name)
