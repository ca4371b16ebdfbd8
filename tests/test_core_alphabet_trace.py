"""Unit tests for the policy alphabet and the trace containers."""

import copy
import pickle

import pytest

from repro.core.alphabet import (
    EVICT,
    MISS_OUTPUT,
    Evict,
    Line,
    is_evict_input,
    is_line_input,
    policy_input_alphabet,
    policy_output_alphabet,
    validate_output,
)
from repro.core.trace import Trace, TraceStep


class TestAlphabet:
    def test_input_alphabet_order_and_size(self):
        alphabet = policy_input_alphabet(4)
        assert alphabet == (Line(0), Line(1), Line(2), Line(3), EVICT)

    def test_output_alphabet(self):
        assert policy_output_alphabet(3) == (MISS_OUTPUT, 0, 1, 2)

    @pytest.mark.parametrize("associativity", [0, -1])
    def test_invalid_associativity_rejected(self, associativity):
        with pytest.raises(ValueError):
            policy_input_alphabet(associativity)
        with pytest.raises(ValueError):
            policy_output_alphabet(associativity)

    def test_line_rejects_negative_index(self):
        with pytest.raises(ValueError):
            Line(-1)

    def test_line_ordering_and_hashing(self):
        assert Line(0) < Line(1)
        assert len({Line(2), Line(2), Line(3)}) == 2
        assert Line(5) == Line(5)
        # Every set/dict iteration order, hence every count, rests on these.
        for index in (0, 1, 7, 15, 1023):
            assert hash(Line(index)) == hash((index,))
        # A symbol equals only a symbol of its own kind, under == and !=.
        assert not Line(0) == (0,) and Line(0) != (0,)
        assert not (0,) == Line(0) and (0,) != Line(0)
        assert Line(0) != EVICT and not Line(0) == EVICT
        for other in (EVICT, (1,)):
            for compare in (
                lambda a, b: a < b,
                lambda a, b: a <= b,
                lambda a, b: a > b,
                lambda a, b: a >= b,
            ):
                with pytest.raises(TypeError):
                    compare(Line(0), other)
                with pytest.raises(TypeError):
                    compare(other, Line(0))

    def test_evict_is_singleton_like(self):
        assert Evict() == EVICT
        assert hash(Evict()) == hash(EVICT)
        assert hash(EVICT) == hash(())
        assert not EVICT == () and EVICT != () and () != EVICT
        assert bool(EVICT) is True

    def test_line_index_is_read_only(self):
        with pytest.raises(AttributeError):
            Line(3).index = 4

    @pytest.mark.parametrize("protocol", [pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
    @pytest.mark.parametrize("symbol", [Line(0), Line(6), EVICT], ids=str)
    def test_symbols_survive_pickle_and_copy(self, symbol, protocol):
        for clone in (
            pickle.loads(pickle.dumps(symbol, protocol)),
            copy.copy(symbol),
            copy.deepcopy(symbol),
        ):
            assert clone == symbol and type(clone) is type(symbol)

    def test_predicates(self):
        assert is_line_input(Line(1)) and not is_line_input(EVICT)
        assert is_evict_input(EVICT) and not is_evict_input(Line(1))

    def test_validate_output_accepts_wellformed(self):
        validate_output(Line(2), MISS_OUTPUT, 4)
        validate_output(EVICT, 3, 4)

    @pytest.mark.parametrize(
        "symbol,output",
        [(Line(0), 1), (EVICT, MISS_OUTPUT), (EVICT, 4), (EVICT, -1)],
    )
    def test_validate_output_rejects_malformed(self, symbol, output):
        with pytest.raises(ValueError):
            validate_output(symbol, output, 4)

    def test_str_representations(self):
        assert str(Line(3)) == "Ln(3)"
        assert str(EVICT) == "Evct"


class TestTrace:
    def test_from_pairs_and_projections(self):
        trace = Trace.from_pairs(["A", "B"], ["Miss", "Hit"])
        assert trace.inputs == ("A", "B")
        assert trace.outputs == ("Miss", "Hit")
        assert len(trace) == 2

    def test_from_pairs_length_mismatch(self):
        with pytest.raises(ValueError):
            Trace.from_pairs(["A"], ["Miss", "Hit"])

    def test_append_is_persistent(self):
        trace = Trace([("A", "Miss")])
        extended = trace.append("B", "Hit")
        assert len(trace) == 1
        assert len(extended) == 2
        assert extended.outputs == ("Miss", "Hit")

    def test_prefix_indexing_and_slicing(self):
        trace = Trace([("A", "Miss"), ("B", "Hit"), ("C", "Hit")])
        assert trace.prefix(2).inputs == ("A", "B")
        assert isinstance(trace[0], TraceStep)
        assert trace[0].input == "A"
        assert trace[1:].inputs == ("B", "C")

    def test_equality_and_hash(self):
        first = Trace([("A", "Miss")])
        second = Trace([("A", "Miss")])
        assert first == second
        assert hash(first) == hash(second)
        assert first != Trace([("A", "Hit")])

    def test_step_unpacking(self):
        step = TraceStep("A", "Hit")
        symbol, output = step
        assert (symbol, output) == ("A", "Hit")
