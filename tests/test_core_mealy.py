"""Unit and property tests for the Mealy machine core."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import EVICT, Line
from repro.core.mealy import (
    MealyDefinitionError,
    MealyMachine,
    mealy_from_step_function,
    shortest_counterexample,
)
from repro.policies.registry import make_policy
from repro.synthesis import reference_explanation
from repro.synthesis.synthesizer import _full_equivalence_counterexample


def _toggle_machine():
    """A two-state machine that outputs the state it leaves."""
    states = ["even", "odd"]
    inputs = ["a", "b"]
    transitions = {
        ("even", "a"): "odd",
        ("even", "b"): "even",
        ("odd", "a"): "even",
        ("odd", "b"): "odd",
    }
    outputs = {
        ("even", "a"): 0,
        ("even", "b"): 0,
        ("odd", "a"): 1,
        ("odd", "b"): 1,
    }
    return MealyMachine(states, "even", inputs, transitions, outputs)


class TestConstruction:
    def test_missing_transition_rejected(self):
        with pytest.raises(MealyDefinitionError):
            MealyMachine(["s"], "s", ["a"], {}, {("s", "a"): 0})

    def test_unknown_initial_state_rejected(self):
        with pytest.raises(MealyDefinitionError):
            MealyMachine(["s"], "t", ["a"], {("s", "a"): "s"}, {("s", "a"): 0})

    def test_duplicate_states_rejected(self):
        with pytest.raises(MealyDefinitionError):
            MealyMachine(
                ["s", "s"], "s", ["a"], {("s", "a"): "s"}, {("s", "a"): 0}
            )

    def test_transition_to_unknown_state_rejected(self):
        with pytest.raises(MealyDefinitionError):
            MealyMachine(["s"], "s", ["a"], {("s", "a"): "t"}, {("s", "a"): 0})

    def test_stray_keys_rejected(self):
        with pytest.raises(MealyDefinitionError, match=r"stray transition for \('s', 'b'\)"):
            MealyMachine(
                ["s"],
                "s",
                ["a"],
                {("s", "a"): "s", ("s", "b"): "t", ("u", "a"): "s"},
                {("s", "a"): 0, ("s", "b"): 1},
            )
        with pytest.raises(MealyDefinitionError, match=r"stray output for \('u', 'a'\)"):
            MealyMachine(
                ["s"], "s", ["a"], {("s", "a"): "s"}, {("s", "a"): 0, ("u", "a"): 1}
            )

    def test_from_rows_builds_the_constructors_machine(self):
        machine = _toggle_machine()
        rows = {state: dict(row) for state, row in machine.rows.items()}
        built = MealyMachine.from_rows(machine.states, "even", machine.inputs, rows)
        assert built == machine
        assert built.transitions == machine.transitions
        assert built.outputs == machine.outputs
        # A row out of input order is laid out again in input order.
        shuffled = {"odd": {"b": ("odd", 1), "a": ("even", 1)}, "even": rows["even"]}
        reordered = MealyMachine.from_rows(["even", "odd"], "even", ["a", "b"], shuffled)
        assert reordered == machine
        assert [list(row) for row in reordered.rows.values()] == [["a", "b"], ["a", "b"]]
        assert list(reordered.rows) == ["even", "odd"]

    @pytest.mark.parametrize(
        "defect",
        [
            "missing transition",
            "missing row",
            "stray transition",
            "stray row",
            "unknown successor",
            "duplicate state",
            "bad initial state",
        ],
    )
    def test_from_rows_rejects_what_the_constructor_rejects(self, defect):
        states = ["s0", "s1"]
        initial = "s0"
        inputs = ["a", "b"]
        rows = {
            "s0": {"a": ("s1", 0), "b": ("s0", 1)},
            "s1": {"a": ("s0", 1), "b": ("s1", 0)},
        }
        if defect == "missing transition":
            del rows["s1"]["b"]
        elif defect == "missing row":
            del rows["s1"]
        elif defect == "stray transition":
            rows["s1"]["z"] = ("s0", 0)
        elif defect == "stray row":
            rows["ghost"] = {"a": ("s0", 0), "b": ("s0", 0)}
        elif defect == "unknown successor":
            rows["s0"]["a"] = ("nowhere", 0)
        elif defect == "duplicate state":
            states.append("s0")
        else:
            initial = "nowhere"
        transitions = {
            (state, symbol): successor
            for state, row in rows.items()
            for symbol, (successor, _) in row.items()
        }
        outputs = {
            (state, symbol): output
            for state, row in rows.items()
            for symbol, (_, output) in row.items()
        }
        with pytest.raises(MealyDefinitionError) as from_maps:
            MealyMachine(states, initial, inputs, transitions, outputs)
        with pytest.raises(MealyDefinitionError) as from_rows:
            MealyMachine.from_rows(states, initial, inputs, rows)
        assert str(from_rows.value) == str(from_maps.value)

    def test_transitions_and_outputs_are_read_only(self):
        machine = _toggle_machine()
        with pytest.raises(TypeError):
            machine.transitions[("even", "a")] = "even"
        with pytest.raises(TypeError):
            machine.outputs[("even", "a")] = 9
        with pytest.raises(TypeError):
            del machine.outputs[("even", "a")]
        assert machine.run(["a"]) == (0,)

    def test_views_compare_equal_to_plain_dicts(self):
        machine = _toggle_machine()
        transitions = {
            ("even", "a"): "odd",
            ("even", "b"): "even",
            ("odd", "a"): "even",
            ("odd", "b"): "odd",
        }
        assert machine.transitions == transitions
        assert transitions == machine.transitions
        assert machine.outputs == _toggle_machine().outputs
        assert ("even", "a") in machine.transitions
        assert ("even", "c") not in machine.transitions
        assert "even" not in machine.transitions
        assert len(machine.outputs) == 4

    def test_pickle_round_trip_gives_an_equal_machine(self):
        machine = make_policy("PLRU", 4).to_mealy().minimize()
        copy = pickle.loads(pickle.dumps(machine))
        assert copy == machine
        assert copy.transitions == machine.transitions
        assert copy.outputs == machine.outputs
        words = [tuple(machine.inputs) * 3, tuple(reversed(machine.inputs)) * 2, ()]
        for word in words:
            assert copy.run(word) == machine.run(word)
            assert copy.state_after(word) == machine.state_after(word)
        with pytest.raises(TypeError):
            copy.outputs[(0, machine.inputs[0])] = "x"


class TestSemantics:
    def test_run_and_state_after(self):
        machine = _toggle_machine()
        assert machine.run(["a", "a", "b"]) == (0, 1, 0)
        assert machine.state_after(["a"]) == "odd"
        assert machine.state_after([]) == "even"

    def test_trace_and_accepts_trace(self):
        machine = _toggle_machine()
        trace = machine.trace(["a", "b"])
        assert trace.outputs == (0, 1)
        assert machine.accepts_trace(trace)
        bad = trace.append("a", 0)
        assert not machine.accepts_trace(bad)

    def test_step_unknown_symbol(self):
        machine = _toggle_machine()
        with pytest.raises(MealyDefinitionError):
            machine.step("even", "c")


class TestTransformations:
    def test_reachable_drops_unreachable_states(self):
        states = ["s", "dead"]
        inputs = ["a"]
        transitions = {("s", "a"): "s", ("dead", "a"): "dead"}
        outputs = {("s", "a"): 0, ("dead", "a"): 1}
        machine = MealyMachine(states, "s", inputs, transitions, outputs)
        assert machine.reachable().size == 1

    def test_minimize_merges_equivalent_states(self):
        # Two states that behave identically must collapse into one.
        states = [0, 1, 2]
        inputs = ["a"]
        transitions = {(0, "a"): 1, (1, "a"): 2, (2, "a"): 1}
        outputs = {(0, "a"): "x", (1, "a"): "x", (2, "a"): "x"}
        machine = MealyMachine(states, 0, inputs, transitions, outputs)
        assert machine.minimize().size == 1

    def test_equivalence_blocks_cover_unreachable_states(self):
        # 1 and 2 are equivalent; 3 is unreachable but equivalent to 0.
        states = [0, 1, 2, 3]
        inputs = ["a"]
        transitions = {(0, "a"): 1, (1, "a"): 2, (2, "a"): 1, (3, "a"): 1}
        outputs = {(0, "a"): "y", (1, "a"): "x", (2, "a"): "x", (3, "a"): "y"}
        machine = MealyMachine(states, 0, inputs, transitions, outputs)
        blocks = machine.equivalence_blocks()
        assert blocks[1] == blocks[2] != blocks[0] == blocks[3]
        assert machine.minimize().size == 2

    def test_minimize_preserves_semantics(self):
        machine = _toggle_machine()
        minimal = machine.minimize()
        for word in (["a"], ["a", "b", "a"], ["b", "b", "a", "a"]):
            assert machine.run(word) == minimal.run(word)

    def test_relabel_is_equivalent(self):
        machine = _toggle_machine()
        relabelled = machine.relabel()
        assert relabelled.states == [0, 1]
        assert machine.equivalent(relabelled)


class TestEquivalence:
    def test_equivalent_machines(self):
        assert _toggle_machine().equivalent(_toggle_machine())

    def test_counterexample_is_shortest(self):
        machine = _toggle_machine()
        # Flip one output: the counterexample must be the single symbol word.
        outputs = dict(machine.outputs)
        outputs[("even", "a")] = 9
        other = MealyMachine(
            machine.states, machine.initial_state, machine.inputs, machine.transitions, outputs
        )
        counterexample = machine.find_counterexample(other)
        assert counterexample == ("a",)

    def test_alphabet_mismatch_rejected(self):
        machine = _toggle_machine()
        other = MealyMachine(["s"], "s", ["z"], {("s", "z"): "s"}, {("s", "z"): 0})
        with pytest.raises(MealyDefinitionError):
            machine.find_counterexample(other)

    def test_to_dot_mentions_all_states(self):
        dot = _toggle_machine().to_dot()
        assert "digraph" in dot and "Evct" not in dot
        assert dot.count("->") >= 4

    def test_transition_table_rows(self):
        rows = _toggle_machine().transition_table()
        assert len(rows) == 4
        assert ("even", "a", 0, "odd") in rows


class TestShortestCounterexample:
    def test_step_function_side_is_never_enumerated(self):
        # An unbounded counter that tracks the toggle's parity until its
        # fourth step: no finite enumeration exists, the walk still ends.
        def step(state, symbol):
            parity, steps = state
            if symbol == "a":
                parity ^= 1
            output = 9 if steps == 3 else state[0]
            return (parity, steps + 1), output

        word = shortest_counterexample(_toggle_machine(), (0, 0), step)
        assert word == ("a", "a", "a", "a")

    def test_max_pairs_bounds_visited_pairs(self):
        machine = _toggle_machine()
        assert shortest_counterexample(machine, "even", machine.step, max_pairs=2) is None
        with pytest.raises(MealyDefinitionError, match="max_pairs=1"):
            shortest_counterexample(machine, "even", machine.step, max_pairs=1)

    def test_synthesis_check_walks_the_candidate_in_enumerated_order(self):
        # A wrong Table 5 candidate: the lazily stepped explanation yields
        # the word a walk over its enumerated machine finds.
        program = reference_explanation("SRRIP-FP", 4)
        machine = make_policy("NEW2", 4).to_mealy().minimize()
        enumerated = machine.find_counterexample(program.as_policy().to_mealy())
        walked = _full_equivalence_counterexample(program, machine)
        assert walked == enumerated == (
            Line(0), Line(0), Line(0), Line(1), Line(2), Line(3), EVICT
        )


class TestStepFunctionEnumeration:
    def test_counter_machine(self):
        machine = mealy_from_step_function(
            0, ["inc"], lambda state, _: ((state + 1) % 5, state)
        )
        assert machine.size == 5
        assert machine.run(["inc"] * 6) == (0, 1, 2, 3, 4, 0)

    def test_max_states_guard(self):
        with pytest.raises(MealyDefinitionError):
            mealy_from_step_function(
                0, ["inc"], lambda state, _: (state + 1, state), max_states=10
            )

    @pytest.mark.slow
    def test_plru16_enumeration_peak_memory_is_bounded(self):
        """Enumerating PLRU-16 (32,768 states) builds its rows once and keeps
        no second ``(state, input)``-keyed copy of them alive beside them.
        Run in a fresh interpreter, so the traced peak is this call's alone."""
        script = (
            "import tracemalloc\n"
            "from repro.policies.registry import make_policy\n"
            "tracemalloc.start()\n"
            "machine = make_policy('PLRU', 16).to_mealy()\n"
            "print(machine.size, tracemalloc.get_traced_memory()[1])\n"
        )
        source = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(source)},
            capture_output=True,
            text=True,
            timeout=600,
            check=True,
        )
        size, peak = map(int, result.stdout.split())
        assert size == 32768
        assert peak <= 190 * 2**20, f"traced peak {peak / 2**20:.0f} MiB"


@settings(max_examples=30, deadline=None)
@given(
    num_states=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_random_machines_equal_their_minimization(num_states, seed):
    """Property: minimization never changes the trace semantics."""
    import random

    rng = random.Random(seed)
    inputs = ["a", "b"]
    states = list(range(num_states))
    transitions = {
        (s, i): rng.choice(states) for s in states for i in inputs
    }
    outputs = {(s, i): rng.randint(0, 1) for s in states for i in inputs}
    machine = MealyMachine(states, 0, inputs, transitions, outputs)
    minimal = machine.minimize()
    assert minimal.size <= machine.reachable().size
    assert machine.find_counterexample(minimal) is None
