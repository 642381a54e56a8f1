"""AST of the object query language.

The query model of the view-object papers supports "ad-hoc, declarative
queries on view objects"; our concrete language covers the needs of the
paper's examples — Figure 4's request is::

    level = 'graduate' and count(STUDENT) < 5

Operands are pivot attributes (unqualified), component attributes
(``NODE.attr``, existential semantics), component counts
(``count(NODE)``), and literals.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.relational.expressions import like_regex

__all__ = [
    "QueryNode",
    "QueryStatement",
    "OrderTerm",
    "QAttr",
    "QCount",
    "QAggregate",
    "QLiteral",
    "QCompare",
    "QIsNull",
    "QIn",
    "QLike",
    "QAnd",
    "QOr",
    "QNot",
]


class QueryNode:
    """Base class of all query AST nodes."""

    def children(self) -> Tuple["QueryNode", ...]:
        return ()


class OrderTerm:
    """One ``order by`` term: an operand plus a direction."""

    __slots__ = ("operand", "descending")

    def __init__(self, operand: "QueryNode", descending: bool = False) -> None:
        self.operand = operand
        self.descending = descending

    def __repr__(self) -> str:
        direction = " desc" if self.descending else ""
        return f"OrderTerm({self.operand!r}{direction})"


class QueryStatement:
    """A full statement: condition plus optional ordering and limit."""

    __slots__ = ("condition", "order_by", "limit")

    def __init__(
        self,
        condition: "QueryNode",
        order_by: List[OrderTerm] = None,
        limit: Optional[int] = None,
    ) -> None:
        self.condition = condition
        self.order_by = list(order_by or [])
        self.limit = limit

    def __repr__(self) -> str:
        return (
            f"QueryStatement({self.condition!r}, order_by={self.order_by!r}, "
            f"limit={self.limit!r})"
        )


class QAttr(QueryNode):
    """An attribute reference; ``node`` is None for pivot attributes."""

    __slots__ = ("node", "name")

    def __init__(self, node: Optional[str], name: str) -> None:
        self.node = node
        self.name = name

    def __repr__(self) -> str:
        prefix = f"{self.node}." if self.node else ""
        return f"QAttr({prefix}{self.name})"


class QCount(QueryNode):
    """``count(NODE)`` — number of component tuples bound at NODE."""

    __slots__ = ("node",)

    def __init__(self, node: str) -> None:
        self.node = node

    def __repr__(self) -> str:
        return f"QCount({self.node})"


class QLiteral(QueryNode):
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"QLiteral({self.value!r})"


class QAggregate(QueryNode):
    """``min/max/sum/avg(NODE.attr)`` over the bound component tuples.

    Follows SQL semantics: nulls are ignored; an empty (or all-null)
    component yields null, which every comparison treats as false.
    """

    __slots__ = ("func", "node", "name")

    def __init__(self, func: str, node: str, name: str) -> None:
        self.func = func
        self.node = node
        self.name = name

    def __repr__(self) -> str:
        return f"QAggregate({self.func}({self.node}.{self.name}))"


class QIn(QueryNode):
    """``operand in (v1, v2, ...)`` / ``operand not in (...)``."""

    __slots__ = ("operand", "values", "negated")

    def __init__(self, operand: QueryNode, values, negated: bool) -> None:
        self.operand = operand
        self.values = tuple(values)
        self.negated = negated

    def children(self) -> Tuple[QueryNode, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        word = "not in" if self.negated else "in"
        return f"QIn({self.operand!r} {word} {self.values!r})"


class QLike(QueryNode):
    """``operand like 'pattern'`` with SQL ``%``/``_`` wildcards."""

    __slots__ = ("operand", "pattern", "negated", "regex")

    def __init__(self, operand: QueryNode, pattern: str, negated: bool) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self.regex = like_regex(pattern)

    def children(self) -> Tuple[QueryNode, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        word = "not like" if self.negated else "like"
        return f"QLike({self.operand!r} {word} {self.pattern!r})"


class QCompare(QueryNode):
    """Binary comparison; component operands are existential."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: QueryNode, right: QueryNode) -> None:
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Tuple[QueryNode, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"QCompare({self.op!r}, {self.left!r}, {self.right!r})"


class QIsNull(QueryNode):
    """``operand is null`` / ``operand is not null``."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: QueryNode, negated: bool) -> None:
        self.operand = operand
        self.negated = negated

    def children(self) -> Tuple[QueryNode, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"QIsNull({self.operand!r}, negated={self.negated})"


class QAnd(QueryNode):
    __slots__ = ("parts",)

    def __init__(self, parts: List[QueryNode]) -> None:
        self.parts = list(parts)

    def children(self) -> Tuple[QueryNode, ...]:
        return tuple(self.parts)

    def __repr__(self) -> str:
        return f"QAnd({self.parts!r})"


class QOr(QueryNode):
    __slots__ = ("parts",)

    def __init__(self, parts: List[QueryNode]) -> None:
        self.parts = list(parts)

    def children(self) -> Tuple[QueryNode, ...]:
        return tuple(self.parts)

    def __repr__(self) -> str:
        return f"QOr({self.parts!r})"


class QNot(QueryNode):
    __slots__ = ("part",)

    def __init__(self, part: QueryNode) -> None:
        self.part = part

    def children(self) -> Tuple[QueryNode, ...]:
        return (self.part,)

    def __repr__(self) -> str:
        return f"QNot({self.part!r})"
