"""AST nodes and query values for MemBlockLang.

Expressions (the syntax of Figure 4) are represented as a small class
hierarchy; queries (the semantic domain) are tuples of
:class:`Operation` values — a block name plus an optional tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

PROFILE_TAG = "?"
FLUSH_TAG = "!"
VALID_TAGS = (PROFILE_TAG, FLUSH_TAG)


@dataclass(frozen=True)
class Operation:
    """One memory operation: access (or flush) a block, optionally profiled.

    ``symbol`` is the operation's response-cache symbol (see
    :func:`~repro.cachequery.querycache.operation_path`): the block, plus
    ``!`` for a flush.  It is computed once, is not a field, and so takes
    no part in equality, hashing, ``repr`` or the pickled state.
    """

    block: str
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.tag is not None and self.tag not in VALID_TAGS:
            raise ValueError(f"invalid tag {self.tag!r}; expected one of {VALID_TAGS}")
        symbol = self.block + FLUSH_TAG if self.tag == FLUSH_TAG else self.block
        object.__setattr__(self, "symbol", symbol)

    def __getstate__(self) -> dict:
        return {"block": self.block, "tag": self.tag}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "block", state["block"])
        object.__setattr__(self, "tag", state["tag"])
        self.__post_init__()

    @property
    def profiled(self) -> bool:
        """True when the access must be timed (``?`` tag)."""
        return self.tag == PROFILE_TAG

    @property
    def flush(self) -> bool:
        """True when the block must be invalidated instead of accessed (``!`` tag)."""
        return self.tag == FLUSH_TAG

    def __str__(self) -> str:
        return f"{self.block}{self.tag or ''}"


#: A query is a finite sequence of operations.
Query = Tuple[Operation, ...]


# --------------------------------------------------------------------- AST ---


class Expression:
    """Base class for MBL expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class BlockAtom(Expression):
    """A literal block, e.g. ``A`` (optionally with a tag attached by the parser)."""

    name: str
    tag: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.name}{self.tag or ''}"


@dataclass(frozen=True)
class AtMacro(Expression):
    """The ``@`` expansion macro: associativity-many blocks in increasing order."""

    def __str__(self) -> str:
        return "@"


@dataclass(frozen=True)
class Wildcard(Expression):
    """The ``_`` wildcard macro: associativity-many single-block queries."""

    def __str__(self) -> str:
        return "_"


@dataclass(frozen=True)
class Tagged(Expression):
    """A tag applied to a whole sub-expression, e.g. ``(A B)?``."""

    inner: Expression
    tag: str

    def __str__(self) -> str:
        return f"({self.inner}){self.tag}"


@dataclass(frozen=True)
class Concat(Expression):
    """Concatenation ``q1 ◦ q2`` (written by juxtaposition)."""

    left: Expression
    right: Expression

    def __str__(self) -> str:
        return f"{self.left} {self.right}"


@dataclass(frozen=True)
class Extend(Expression):
    """The extension macro ``q1[q2]``: one copy of ``q1`` per block of ``q2``."""

    base: Expression
    extension: Expression

    def __str__(self) -> str:
        return f"{self.base}[{self.extension}]"


@dataclass(frozen=True)
class Power(Expression):
    """The power operator ``(q)^n``."""

    inner: Expression
    count: int

    def __str__(self) -> str:
        return f"({self.inner}){self.count}"


@dataclass(frozen=True)
class QuerySet(Expression):
    """An explicit set of alternatives ``{q1, ..., ql}``."""

    items: Tuple[Expression, ...]

    def __str__(self) -> str:
        return "{" + ", ".join(str(item) for item in self.items) + "}"


ExpressionLike = Union[Expression, str]
