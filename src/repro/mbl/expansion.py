"""Expansion semantics of MemBlockLang (Appendix A).

``expand`` turns an MBL expression (or its textual form) into the ordered
list of queries it denotes, given the cache associativity and the ordered
block universe.  The rules follow Appendix A:

* a block denotes the singleton query containing it;
* ``@`` denotes one query with the first *associativity* blocks in order;
* ``_`` denotes associativity-many single-block queries;
* tags distribute over every block of the tagged expression and may not be
  applied to an already tagged block;
* concatenation and powers combine query sets pointwise (Cartesian style);
* ``q1[q2]`` appends, to every query of ``q1``, each block occurring in
  ``q2``'s queries (one extended copy per block).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.errors import MBLExpansionError
from repro.mbl.ast import (
    AtMacro,
    BlockAtom,
    Concat,
    Expression,
    Extend,
    Operation,
    Power,
    Query,
    QuerySet,
    Tagged,
    Wildcard,
)
from repro.mbl.parser import parse
from repro.polca.interfaces import default_block_names


def _dedupe(queries: List[Query]) -> List[Query]:
    seen = set()
    unique: List[Query] = []
    for query in queries:
        if query not in seen:
            seen.add(query)
            unique.append(query)
    return unique


def _apply_tag(queries: List[Query], tag: str) -> List[Query]:
    tagged: List[Query] = []
    for query in queries:
        operations = []
        for operation in query:
            if operation.tag is not None:
                raise MBLExpansionError(
                    f"cannot tag block {operation.block!r} with {tag!r}: it already "
                    f"carries tag {operation.tag!r}"
                )
            operations.append(Operation(operation.block, tag))
        tagged.append(tuple(operations))
    return tagged


def _blocks_of(queries: List[Query]) -> List[str]:
    """Return the distinct blocks occurring in ``queries``, in appearance order."""
    blocks: List[str] = []
    for query in queries:
        for operation in query:
            if operation.block not in blocks:
                blocks.append(operation.block)
    return blocks


def expand_expression(
    expression: Expression,
    associativity: int,
    blocks: Sequence[str],
) -> List[Query]:
    """Expand an AST into its ordered list of queries."""
    if associativity < 1:
        raise MBLExpansionError(f"associativity must be >= 1, got {associativity}")
    if len(blocks) < associativity:
        raise MBLExpansionError(
            f"the block universe has {len(blocks)} blocks but the associativity is "
            f"{associativity}"
        )

    def recurse(node: Expression) -> List[Query]:
        if isinstance(node, BlockAtom):
            return [(Operation(node.name, node.tag),)]
        if isinstance(node, AtMacro):
            return [tuple(Operation(block) for block in blocks[:associativity])]
        if isinstance(node, Wildcard):
            return [(Operation(block),) for block in blocks[:associativity]]
        if isinstance(node, Tagged):
            return _apply_tag(recurse(node.inner), node.tag)
        if isinstance(node, Concat):
            left, right = recurse(node.left), recurse(node.right)
            return _dedupe([a + b for a in left for b in right])
        if isinstance(node, Extend):
            base = recurse(node.base)
            extension_blocks = _blocks_of(recurse(node.extension))
            if not extension_blocks:
                raise MBLExpansionError("the extension macro needs at least one block")
            return _dedupe(
                [query + (Operation(block),) for query in base for block in extension_blocks]
            )
        if isinstance(node, Power):
            if node.count < 0:
                raise MBLExpansionError(f"negative power {node.count}")
            result: List[Query] = [()]
            inner = recurse(node.inner)
            for _ in range(node.count):
                result = [a + b for a in result for b in inner]
            return _dedupe(result)
        if isinstance(node, QuerySet):
            queries: List[Query] = []
            for item in node.items:
                queries.extend(recurse(item))
            return _dedupe(queries)
        raise MBLExpansionError(f"unknown MBL expression node {node!r}")

    return recurse(expression)


def expand(
    expression: Union[str, Expression],
    associativity: int,
    blocks: Optional[Sequence[str]] = None,
) -> List[Query]:
    """Expand an MBL expression (text or AST) into its list of queries.

    When ``blocks`` is not given, the default ordered universe ``A, B, C, ...``
    with ``associativity + 8`` members is used, which is enough for every
    query the learning pipeline generates.
    """
    if isinstance(expression, str):
        expression = parse(expression)
    if blocks is None:
        blocks = default_block_names(associativity + 8)
    return expand_expression(expression, associativity, blocks)


def query_to_text(query: Query) -> str:
    """Render a query back to MBL text (for logs and reports; the response
    cache keys a query by its operation path instead)."""
    return " ".join(str(operation) for operation in query)
