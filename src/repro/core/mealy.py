"""Deterministic Mealy machines.

This module provides the automaton model used everywhere in the library:

* replacement policies are Mealy machines (Definition 2.1 in the paper);
* the learner (our LearnLib substitute) produces hypotheses as Mealy machines;
* the synthesizer checks candidate programs by Mealy trace-equivalence.

A machine is defined by a set of states, an input alphabet, a transition map
``(state, input) -> state`` and an output map ``(state, input) -> output``.
States can be arbitrary hashable objects (policy control states,
observation-table rows, age vectors), which keeps the rest of the code free
of encoding concerns.

The constructor validates the definition once and stores it as *rows*, one
dict per state: ``rows[state][input] == (successor, output)``.  The rows are
the machine's only stored transition function, and every walk (running a
word, the breadth-first searches, partition refinement) reads one row per
state it visits instead of building a ``(state, input)`` key per symbol.
Nothing writes to the rows after construction.
:attr:`MealyMachine.transitions` and :attr:`MealyMachine.outputs` stay
readable as ``(state, input)``-keyed mappings, but they are read-only views
over the rows: writing to them raises :class:`TypeError`, so they can never
disagree with the rows, and a changed machine is a new machine built
through the constructor.

A definition must be exact: a missing transition or output, a transition to
an unknown state, and a stray key outside ``states x inputs`` each raise
:class:`MealyDefinitionError` naming the key.

Code that already holds rows builds the machine with
:meth:`MealyMachine.from_rows`, which validates them the same way and
keeps the row dicts instead of going through two ``(state, input)``-keyed
maps.  Enumerating a policy (:func:`mealy_from_step_function`), the
transformations (:meth:`~MealyMachine.reachable`,
:meth:`~MealyMachine.minimize`, :meth:`~MealyMachine.relabel`) and the L*
hypothesis all do.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
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
Row = Dict[Input, Tuple[State, Output]]

StateT = TypeVar("StateT", bound=Hashable)


class MealyDefinitionError(ReproError):
    """The machine definition is incomplete or inconsistent."""


class _RowColumn(Mapping):
    """A read-only ``(state, input)``-keyed view of one column of a
    machine's rows: the successors (column 0) or the outputs (column 1).

    It compares equal to any mapping with the same items, plain dicts
    included, and has no item assignment.
    """

    __slots__ = ("_rows", "_column")

    def __init__(self, rows: Dict[State, Row], column: int) -> None:
        self._rows = rows
        self._column = column

    def __getitem__(self, key):
        try:
            state, symbol = key
            return self._rows[state][symbol][self._column]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None

    def __iter__(self):
        return ((state, symbol) for state, row in self._rows.items() for symbol in row)

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _state_set(states: List[State], initial_state: State) -> set:
    """The states as a set, once they hold no duplicate and the initial state."""
    state_set = set(states)
    if len(state_set) != len(states):
        raise MealyDefinitionError("duplicate states in machine definition")
    if initial_state not in state_set:
        raise MealyDefinitionError(f"initial state {initial_state!r} not in states")
    return state_set


def _ordered_row(state: State, row: Mapping, inputs: List[Input]) -> Row:
    """``row`` laid out in ``inputs`` order, once it has exactly their keys."""
    for symbol in inputs:
        if symbol not in row:
            raise MealyDefinitionError(f"missing transition for {(state, symbol)!r}")
    ordered = {symbol: row[symbol] for symbol in inputs}
    if len(ordered) != len(row):
        stray = next(symbol for symbol in row if symbol not in ordered)
        raise MealyDefinitionError(
            f"stray transition for {(state, stray)!r}: not a (state, input) pair of the machine"
        )
    return ordered


def _stray_key(mapping: Mapping, rows: Dict[State, Row]):
    """Return the first key of ``mapping`` that is no ``(state, input)`` pair
    of ``rows``, or ``None``."""
    for key in mapping:
        try:
            state, symbol = key
            if symbol in rows[state]:
                continue
        except (KeyError, TypeError, ValueError):
            pass
        return key
    return None


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
        Mapping ``(state, input) -> successor state``, with exactly one key
        per pair of ``states x inputs``.
    outputs:
        Mapping ``(state, input) -> output symbol``, with the same keys.
    name:
        Optional label, carried through the transformations.

    The constructor stores the validated definition in :attr:`rows`,
    ``rows[state][input] == (successor, output)``, and replaces
    ``transitions`` and ``outputs`` by read-only views over them.  Two
    machines are equal when their states (in order), initial state, inputs
    (in order), name and rows are.
    """

    states: List[State]
    initial_state: State
    inputs: List[Input]
    transitions: Mapping = field(compare=False)
    outputs: Mapping = field(compare=False)
    name: str = ""
    rows: Dict[State, Row] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        states = list(self.states)
        inputs = list(self.inputs)
        transitions = self.transitions
        outputs = self.outputs
        state_set = _state_set(states, self.initial_state)
        rows: Dict[State, Row] = {}
        for state in states:
            row: Row = {}
            for symbol in inputs:
                key = (state, symbol)
                if key not in transitions:
                    raise MealyDefinitionError(f"missing transition for {key!r}")
                if key not in outputs:
                    raise MealyDefinitionError(f"missing output for {key!r}")
                successor = transitions[key]
                if successor not in state_set:
                    raise MealyDefinitionError(
                        f"transition {key!r} leads to unknown state {successor!r}"
                    )
                row[symbol] = (successor, outputs[key])
            rows[state] = row
        # Every pair of states x inputs is a key of both maps, so a longer
        # map holds a key outside them.
        pairs = len(states) * len(rows[self.initial_state])
        for mapping, kind in ((transitions, "transition"), (outputs, "output")):
            if len(mapping) != pairs:
                raise MealyDefinitionError(
                    f"stray {kind} for {_stray_key(mapping, rows)!r}: "
                    "not a (state, input) pair of the machine"
                )
        self._adopt_rows(states, inputs, rows)

    @classmethod
    def from_rows(
        cls,
        states: Iterable[State],
        initial_state: State,
        inputs: Iterable[Input],
        rows: Mapping,
        name: str = "",
    ) -> "MealyMachine":
        """Build a machine straight from rows,
        ``rows[state][input] == (successor, output)``.

        The rows are validated as the constructor validates its two maps: a
        duplicate state, an initial state outside ``states``, a missing
        transition, a stray transition (a row or a row key outside
        ``states x inputs``) and a successor outside ``states`` each raise
        :class:`MealyDefinitionError`.  The machine keeps the row dicts
        themselves, so the caller must not change them afterwards; a row
        whose keys are not in input order is laid out again in input order.
        """
        states = list(states)
        inputs = list(inputs)
        state_set = _state_set(states, initial_state)
        ordered: Dict[State, Row] = {}
        for state in states:
            row = rows.get(state) or {}
            if list(row) != inputs:
                row = _ordered_row(state, row, inputs)
            if not state_set.issuperset([successor for successor, _ in row.values()]):
                for symbol, (successor, _) in row.items():
                    if successor not in state_set:
                        raise MealyDefinitionError(
                            f"transition {(state, symbol)!r} leads to unknown "
                            f"state {successor!r}"
                        )
            ordered[state] = row
        if len(rows) != len(ordered):
            stray = next(state for state in rows if state not in state_set)
            key = (stray, next(iter(rows[stray]), None))
            raise MealyDefinitionError(
                f"stray transition for {key!r}: not a (state, input) pair of the machine"
            )
        machine = cls.__new__(cls)
        machine.initial_state = initial_state
        machine.name = name
        machine._adopt_rows(states, inputs, ordered)
        return machine

    def _adopt_rows(
        self, states: List[State], inputs: List[Input], rows: Dict[State, Row]
    ) -> None:
        """Store validated rows and the read-only views over them."""
        self.states = states
        self.inputs = inputs
        self.rows = rows
        self.transitions = _RowColumn(rows, 0)
        self.outputs = _RowColumn(rows, 1)

    # ------------------------------------------------------------------ basic

    @property
    def size(self) -> int:
        """Number of states."""
        return len(self.states)

    def step(self, state: State, symbol: Input) -> Tuple[State, Output]:
        """Return ``(successor, output)`` for one input symbol."""
        try:
            return self.rows[state][symbol]
        except KeyError as exc:
            raise MealyDefinitionError(f"no transition for {(state, symbol)!r}") from exc

    def run(self, word: Sequence[Input], state: Optional[State] = None) -> Tuple[Output, ...]:
        """Return the output word produced when reading ``word``.

        This is the "output query" used by the learner: the machine is reset
        to ``state`` (the initial state by default) and the outputs of every
        input symbol are collected.
        """
        current = self.initial_state if state is None else state
        rows = self.rows
        produced: List[Output] = []
        append = produced.append
        try:
            for symbol in word:
                current, output = rows[current][symbol]
                append(output)
        except KeyError as exc:
            raise MealyDefinitionError(f"no transition for {(current, symbol)!r}") from exc
        return tuple(produced)

    def state_after(self, word: Sequence[Input], state: Optional[State] = None) -> State:
        """Return the state reached after reading ``word``."""
        current = self.initial_state if state is None else state
        rows = self.rows
        try:
            for symbol in word:
                current = rows[current][symbol][0]
        except KeyError as exc:
            raise MealyDefinitionError(f"no transition for {(current, symbol)!r}") from exc
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
        rows = self.rows
        seen = {self.initial_state}
        order = [self.initial_state]
        queue = deque(order)
        while queue:
            for successor, _ in rows[queue.popleft()].values():
                if successor not in seen:
                    seen.add(successor)
                    order.append(successor)
                    queue.append(successor)
        return MealyMachine.from_rows(
            order,
            self.initial_state,
            self.inputs,
            {state: rows[state] for state in order},
            self.name,
        )

    def equivalence_blocks(self) -> Dict[State, int]:
        """Block index of every state in the coarsest partition of
        :attr:`states` into behaviourally equivalent states.

        Moore-style partition refinement: states start partitioned by their
        output row (the outputs they produce for every input) and the
        partition is refined by successor blocks until the block count
        stops growing.  The coarsest stable partition is unique, so which
        states share a block does not depend on the labels.
        """
        rows = self.rows
        index: Dict[Tuple, int] = {}
        block_of: Dict[State, int] = {}
        for state, row in rows.items():
            signature = tuple([output for _, output in row.values()])
            block_of[state] = index.setdefault(signature, len(index))
        while True:
            count = len(index)
            index = {}
            refined: Dict[State, int] = {}
            for state, row in rows.items():
                key = (
                    block_of[state],
                    tuple([block_of[successor] for successor, _ in row.values()]),
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
        rows = {
            block: {
                symbol: (block_of[successor], output)
                for symbol, (successor, output) in machine.rows[state].items()
            }
            for block, state in representative.items()
        }
        quotient = MealyMachine.from_rows(
            list(representative),
            block_of[machine.initial_state],
            machine.inputs,
            rows,
            machine.name,
        )
        return quotient.relabel()

    def relabel(self) -> "MealyMachine":
        """Return an isomorphic machine whose states are ``0..n-1`` in BFS
        order: :meth:`reachable`'s state order."""
        machine = self.reachable()
        numbering = {state: number for number, state in enumerate(machine.states)}
        rows = {
            numbering[state]: {
                symbol: (numbering[successor], output)
                for symbol, (successor, output) in row.items()
            }
            for state, row in machine.rows.items()
        }
        return MealyMachine.from_rows(
            range(len(numbering)), 0, machine.inputs, rows, machine.name
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
        for state, row in self.rows.items():
            for symbol, (succ, out) in row.items():
                lines.append(
                    f'  s{index[state]} -> s{index[succ]} [label="{symbol}/{out}"];'
                )
        lines.append("}")
        return "\n".join(lines)

    def transition_table(self) -> List[Tuple[State, Input, Output, State]]:
        """Return the machine as a flat list of ``(state, input, output, successor)`` rows."""
        return [
            (state, symbol, output, successor)
            for state, row in self.rows.items()
            for symbol, (successor, output) in row.items()
        ]


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
    rows = machine.rows
    start = (machine.initial_state, initial_state)
    visited = {start}
    queue: deque = deque([(start, ())])
    while queue:
        (state_a, state_b), word = queue.popleft()
        for symbol, (next_a, out_a) in rows[state_a].items():
            next_b, out_b = step(state_b, symbol)
            if out_a != out_b:
                return word + (symbol,)
            pair = (next_a, next_b)
            if pair not in visited:
                if max_pairs is not None and len(visited) >= max_pairs:
                    raise MealyDefinitionError(
                        f"product walk exceeded max_pairs={max_pairs}"
                    )
                visited.add(pair)
                queue.append((pair, word + (symbol,)))
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
    rows: Dict[State, Row] = {}
    queue = deque([initial_state])
    while queue:
        state = queue.popleft()
        row = rows[state] = {}
        for symbol in input_list:
            successor, output = step(state, symbol)
            row[symbol] = (successor, output)
            if successor not in seen:
                if len(seen) >= max_states:
                    raise MealyDefinitionError(
                        f"state enumeration exceeded max_states={max_states}"
                    )
                seen.add(successor)
                states.append(successor)
                queue.append(successor)
    return MealyMachine.from_rows(states, initial_state, input_list, rows, name)
