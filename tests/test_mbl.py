"""Tests for the MemBlockLang lexer, parser and expansion semantics."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MBLExpansionError, MBLSyntaxError
from repro.mbl import expand, parse, query_to_text, tokenize
from repro.mbl.ast import AtMacro, BlockAtom, Concat, Extend, Operation, Power, Tagged
from repro.mbl.lexer import TokenType


def texts(queries):
    return [query_to_text(query) for query in queries]


class TestLexer:
    def test_tokenizes_all_token_kinds(self):
        tokens = tokenize("(A B2)3 _? @! {X, Y} [Z]")
        kinds = [token.type for token in tokens]
        assert TokenType.LPAREN in kinds
        assert TokenType.NUMBER in kinds
        assert TokenType.WILDCARD in kinds
        assert TokenType.TAG in kinds
        assert TokenType.LBRACE in kinds
        assert kinds[-1] is TokenType.END

    def test_block_names_with_digits(self):
        tokens = tokenize("A12 B")
        assert tokens[0].value == "A12"
        assert tokens[1].value == "B"

    def test_rejects_unknown_characters(self):
        with pytest.raises(MBLSyntaxError):
            tokenize("A $ B")


class TestParser:
    def test_example_4_1_structure(self):
        tree = parse("@ X _?")
        assert isinstance(tree, Concat)
        assert isinstance(tree.right, Tagged)

    def test_power_and_grouping(self):
        tree = parse("(A B C)3")
        assert isinstance(tree, Power) and tree.count == 3

    def test_extension_binds_to_the_left_sequence(self):
        tree = parse("(A B C D)[E F]")
        assert isinstance(tree, Extend)

    def test_block_level_tags(self):
        tree = parse("A? B!")
        assert isinstance(tree, Concat)
        assert isinstance(tree.left, BlockAtom) and tree.left.tag == "?"

    @pytest.mark.parametrize("text", ["", "(A", "A)", "[A B]", "{A,}", ")("])
    def test_syntax_errors(self, text):
        with pytest.raises(MBLSyntaxError):
            parse(text)

    def test_double_tag_rejected_at_expansion_time(self):
        # ``A ?? B`` parses (a tag postfix on an already tagged block) but the
        # expansion semantics forbid double tagging.
        with pytest.raises(MBLExpansionError):
            expand("A ?? B", 4)

    def test_at_macro_atom(self):
        assert isinstance(parse("@"), AtMacro)


class TestExpansion:
    def test_at_macro(self):
        assert texts(expand("@", 4)) == ["A B C D"]

    def test_wildcard_macro(self):
        assert texts(expand("_", 4)) == ["A", "B", "C", "D"]

    def test_example_4_1(self):
        """The paper's Example 4.1: ``@ X _?`` at associativity 4."""
        assert texts(expand("@ X _?", 4)) == [
            "A B C D X A?",
            "A B C D X B?",
            "A B C D X C?",
            "A B C D X D?",
        ]

    def test_extension_macro(self):
        assert texts(expand("(A B C D)[E F]", 4)) == ["A B C D E", "A B C D F"]

    def test_power_operator(self):
        assert texts(expand("(A B C)3", 4)) == ["A B C A B C A B C"]

    def test_group_tagging(self):
        assert texts(expand("(A B)?", 4)) == ["A? B?"]
        assert texts(expand("(A B)!", 4)) == ["A! B!"]

    def test_query_set(self):
        assert texts(expand("{A B, C}", 4)) == ["A B", "C"]

    def test_double_tagging_rejected(self):
        with pytest.raises(MBLExpansionError):
            expand("(A?)!", 4)

    def test_power_zero_gives_empty_query(self):
        assert expand("(A)0", 4) == [()]

    def test_custom_block_universe(self):
        queries = expand("@", 2, blocks=("X", "Y", "Z"))
        assert texts(queries) == ["X Y"]

    def test_universe_smaller_than_associativity_rejected(self):
        with pytest.raises(MBLExpansionError):
            expand("@", 4, blocks=("A", "B"))

    def test_operation_flags(self):
        (query,) = expand("A? B! C", 4)
        assert query[0].profiled and not query[0].flush
        assert query[1].flush and not query[1].profiled
        assert query[2].tag is None

    def test_operation_rejects_bad_tag(self):
        with pytest.raises(ValueError):
            Operation("A", "#")

    @pytest.mark.parametrize(
        "block, tag, symbol, pickled",
        [
            (
                "A",
                "!",
                "A!",
                b"\x80\x02crepro.mbl.ast\nOperation\nq\x00)\x81q\x01}q\x02(X\x05\x00\x00"
                b"\x00blockq\x03X\x01\x00\x00\x00Aq\x04X\x03\x00\x00\x00tagq\x05X\x01"
                b"\x00\x00\x00!q\x06ub.",
            ),
            (
                "B",
                "?",
                "B",
                b"\x80\x02crepro.mbl.ast\nOperation\nq\x00)\x81q\x01}q\x02(X\x05\x00\x00"
                b"\x00blockq\x03X\x01\x00\x00\x00Bq\x04X\x03\x00\x00\x00tagq\x05X\x01"
                b"\x00\x00\x00?q\x06ub.",
            ),
            (
                "C",
                None,
                "C",
                b"\x80\x02crepro.mbl.ast\nOperation\nq\x00)\x81q\x01}q\x02(X\x05\x00\x00"
                b"\x00blockq\x03X\x01\x00\x00\x00Cq\x04X\x03\x00\x00\x00tagq\x05Nub.",
            ),
        ],
    )
    def test_operation_symbol_leaves_equality_hash_repr_and_pickling_alone(
        self, block, tag, symbol, pickled
    ):
        """``symbol`` is derived, not a field: operations compare, hash, print
        and pickle as ``(block, tag)`` alone.  ``pickled`` is the protocol-2
        pickle of an operation written before operations carried symbols."""
        operation = Operation(block, tag)
        assert operation.symbol == symbol
        assert repr(operation) == f"Operation(block={block!r}, tag={tag!r})"
        assert operation == Operation(block, tag)
        assert hash(operation) == hash((block, tag))
        assert operation != Operation(block, "?" if tag != "?" else None)
        assert pickle.dumps(operation, 2) == pickled
        for clone in [pickle.loads(pickled), copy.copy(operation), copy.deepcopy(operation)] + [
            pickle.loads(pickle.dumps(operation, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]:
            assert clone == operation and hash(clone) == hash(operation)
            assert clone.symbol == symbol

    def test_flush_refill_reset_expression(self):
        """The reset expression used by the hardware experiments expands to one query."""
        queries = expand("A! B! C! D! E! @", 4, blocks=tuple("ABCDE"))
        assert len(queries) == 1
        assert query_to_text(queries[0]) == "A! B! C! D! E! A B C D"


@settings(max_examples=50, deadline=None)
@given(
    associativity=st.integers(min_value=1, max_value=8),
    repeat=st.integers(min_value=1, max_value=4),
)
def test_wildcard_times_at_expands_to_associativity_queries(associativity, repeat):
    """Property: ``_ (@)k`` yields exactly associativity queries of length 1 + k*assoc."""
    queries = expand(f"_ (@){repeat}", associativity)
    assert len(queries) == associativity
    for query in queries:
        assert len(query) == 1 + repeat * associativity


@settings(max_examples=50, deadline=None)
@given(blocks=st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=8))
def test_plain_sequences_round_trip(blocks):
    """Property: a plain block sequence expands to itself."""
    text = " ".join(blocks)
    queries = expand(text, 8)
    assert len(queries) == 1
    assert query_to_text(queries[0]) == text
