"""Query planning: pushing pivot-only conditions into the engine.

"A query on a view object is composed dynamically with the object's
structure to obtain a relational query that can be executed against the
database." The planner decomposes the query's top-level conjunction and
pushes every conjunct that touches only pivot attributes and literals
down to the storage engine as a relational predicate; the residual
(component references, counts) is evaluated on assembled instances.

Pushing a comparison down hands it to whichever engine is underneath,
and the engines order values of different types differently (Python
refuses, sqlite ranks storage classes). So a literal is typed here,
once, against the pivot attribute it meets (:func:`_literal`), and an
ordering between two pivot attributes of different domains is refused
(:func:`_check_orderable`).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import QueryError
from repro.core.query.ast import (
    QAggregate,
    QAnd,
    QAttr,
    QCompare,
    QCount,
    QIn,
    QIsNull,
    QLike,
    QLiteral,
    QNot,
    QOr,
    QueryNode,
)
from repro.relational import expressions as rel
from repro.relational.domains import DATE, INTEGER, REAL
from repro.relational.schema import RelationSchema

__all__ = ["plan_query"]


class QueryPlan:
    """A pushed-down relational predicate plus a residual condition."""

    __slots__ = ("pushed", "residual")

    def __init__(
        self, pushed: rel.Expression, residual: Optional[QueryNode]
    ) -> None:
        self.pushed = pushed
        self.residual = residual

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryPlan(pushed={self.pushed!r}, residual={self.residual!r})"


def _is_pivot_only(node: QueryNode) -> bool:
    if isinstance(node, QAttr):
        return node.node is None
    if isinstance(node, (QCount, QAggregate)):
        return False
    if isinstance(node, QLiteral):
        return True
    return all(_is_pivot_only(child) for child in node.children())


_ORDERINGS = ("<", "<=", ">", ">=")


def _comparable(domain):
    """What ``domain``'s values order against: numbers order alike in
    Python and sqlite, whichever kind is stored."""
    return REAL if domain == INTEGER else domain


def _check_orderable(pivot: RelationSchema, left: str, right: str) -> None:
    """An ordering between two pivot attributes needs one domain (up to
    the numbers): across domains, Python refuses and sqlite ranks
    storage classes, so it is refused before any engine is asked."""
    left_domain = pivot.attribute(left).domain
    right_domain = pivot.attribute(right).domain
    if _comparable(left_domain) != _comparable(right_domain):
        raise QueryError(
            f"cannot compare {left_domain.name.upper()} attribute {left!r} "
            f"with {right_domain.name.upper()} attribute {right!r}"
        )


def _literal(pivot: RelationSchema, name: str, value: Any, ordered: bool) -> Any:
    """The literal a pushed-down test of pivot attribute ``name`` uses.

    The language has no date literal, so a string meeting a DATE
    attribute is read as one. An ordering against a literal outside the
    attribute's domain has no answer the engines agree on and is
    refused; equality with one simply matches nothing, on both.
    """
    domain = pivot.attribute(name).domain

    def refusal() -> QueryError:
        return QueryError(
            f"cannot compare {domain.name.upper()} attribute {name!r} "
            f"with {value!r}"
        )

    if domain == DATE and isinstance(value, str):
        try:
            return DATE.parse(value)
        except ValueError:
            raise refusal() from None
    if ordered and value is not None and not _comparable(domain).contains(value):
        raise refusal()
    return value


def _to_relational(node: QueryNode, pivot: RelationSchema) -> rel.Expression:
    if isinstance(node, QAttr):
        return rel.Attr(node.name)
    if isinstance(node, QLiteral):
        return rel.Const(node.value)
    if isinstance(node, QCompare):
        left = _to_relational(node.left, pivot)
        right = _to_relational(node.right, pivot)
        ordered = node.op in _ORDERINGS
        if isinstance(left, rel.Attr) and isinstance(right, rel.Const):
            right = rel.Const(_literal(pivot, left.name, right.value, ordered))
        elif isinstance(left, rel.Const) and isinstance(right, rel.Attr):
            left = rel.Const(_literal(pivot, right.name, left.value, ordered))
        elif ordered and isinstance(left, rel.Attr) and isinstance(right, rel.Attr):
            _check_orderable(pivot, left.name, right.name)
        return rel.Comparison(node.op, left, right)
    if isinstance(node, QIsNull):
        test = rel.IsNull(_to_relational(node.operand, pivot))
        return rel.Not(test) if node.negated else test
    if isinstance(node, QIn):
        values = node.values
        if isinstance(node.operand, QAttr):
            values = [
                _literal(pivot, node.operand.name, value, ordered=False)
                for value in values
            ]
        test = rel.In(_to_relational(node.operand, pivot), values)
        return rel.Not(test) if node.negated else test
    if isinstance(node, QLike):
        test = rel.Like(_to_relational(node.operand, pivot), node.pattern)
        return rel.Not(test) if node.negated else test
    if isinstance(node, QAnd):
        return rel.And(*[_to_relational(part, pivot) for part in node.parts])
    if isinstance(node, QOr):
        return rel.Or(*[_to_relational(part, pivot) for part in node.parts])
    if isinstance(node, QNot):
        return rel.Not(_to_relational(node.part, pivot))
    raise QueryError(f"cannot push down query node {node!r}")


def plan_query(node: QueryNode, pivot: RelationSchema) -> QueryPlan:
    """Split a query on an object whose pivot relation is ``pivot``
    into pushed-down and residual parts."""
    conjuncts = node.parts if isinstance(node, QAnd) else [node]
    pushed: List[rel.Expression] = []
    residual: List[QueryNode] = []
    for conjunct in conjuncts:
        if _is_pivot_only(conjunct):
            pushed.append(_to_relational(conjunct, pivot))
        else:
            residual.append(conjunct)
    pushed_expression = rel.And(*pushed) if pushed else rel.TRUE
    if not residual:
        residual_node: Optional[QueryNode] = None
    elif len(residual) == 1:
        residual_node = residual[0]
    else:
        residual_node = QAnd(residual)
    return QueryPlan(pushed_expression, residual_node)
