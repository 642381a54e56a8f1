"""Evaluation of object queries against assembled instances.

Semantics:

* pivot attributes evaluate to the root tuple's value;
* component attributes (``NODE.attr``) are **existential**: a comparison
  involving one holds when *some* tuple bound at NODE satisfies it (for
  two component operands, some pair);
* ``count(NODE)`` is the number of tuples bound at NODE, flattened
  across parents;
* comparisons follow SQL null semantics (null compares false); the
  explicit ``is null`` / ``is not null`` tests are also existential for
  component operands.
"""

from __future__ import annotations

import operator
from typing import Any, List

from repro.errors import QueryError
from repro.core.instance import Instance
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

__all__ = ["evaluate"]

_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _aggregate(node: QAggregate, instance: Instance) -> Any:
    values = []
    for component in instance.tuples_at(node.node):
        if node.name not in component.values:
            raise QueryError(
                f"node {node.node!r} projection has no attribute "
                f"{node.name!r}"
            )
        value = component.values[node.name]
        if value is not None:
            values.append(value)
    if not values:
        return None  # SQL: aggregates over nothing are null
    if node.func == "min":
        return min(values)
    if node.func == "max":
        return max(values)
    if node.func == "sum":
        return sum(values)
    if node.func == "avg":
        return sum(values) / len(values)
    raise QueryError(f"unknown aggregate {node.func!r}")  # pragma: no cover


def _operand_values(node: QueryNode, instance: Instance) -> List[Any]:
    """All candidate values of an operand for one instance."""
    if isinstance(node, QLiteral):
        return [node.value]
    if isinstance(node, QCount):
        return [instance.count_at(node.node)]
    if isinstance(node, QAggregate):
        return [_aggregate(node, instance)]
    if isinstance(node, QAttr):
        if node.node is None:
            values = instance.root.values
            if node.name not in values:
                raise QueryError(
                    f"pivot projection has no attribute {node.name!r}"
                )
            return [values[node.name]]
        components = instance.tuples_at(node.node)
        result = []
        for component in components:
            if node.name not in component.values:
                raise QueryError(
                    f"node {node.node!r} projection has no attribute "
                    f"{node.name!r}"
                )
            result.append(component.values[node.name])
        return result
    raise QueryError(f"not an operand: {node!r}")


def evaluate(node: QueryNode, instance: Instance) -> bool:
    """Does ``instance`` satisfy the query condition?"""
    if isinstance(node, QAnd):
        return all(evaluate(part, instance) for part in node.parts)
    if isinstance(node, QOr):
        return any(evaluate(part, instance) for part in node.parts)
    if isinstance(node, QNot):
        return not evaluate(node.part, instance)
    if isinstance(node, QCompare):
        compare = _OPERATORS[node.op]
        lefts = _operand_values(node.left, instance)
        rights = _operand_values(node.right, instance)
        for lhs in lefts:
            for rhs in rights:
                if lhs is None or rhs is None:
                    continue
                try:
                    if compare(lhs, rhs):
                        return True
                except TypeError:
                    raise QueryError(
                        f"cannot compare {lhs!r} with {rhs!r}"
                    ) from None
        return False
    if isinstance(node, QIsNull):
        values = _operand_values(node.operand, instance)
        if node.negated:
            return any(v is not None for v in values)
        return any(v is None for v in values)
    if isinstance(node, QIn):
        values = _operand_values(node.operand, instance)
        if node.negated:
            return any(v is not None and v not in node.values for v in values)
        return any(v is not None and v in node.values for v in values)
    if isinstance(node, QLike):
        regex = node.regex
        values = _operand_values(node.operand, instance)
        if node.negated:
            return any(
                isinstance(v, str) and regex.match(v) is None for v in values
            )
        return any(
            isinstance(v, str) and regex.match(v) is not None for v in values
        )
    raise QueryError(f"cannot evaluate query node {node!r}")


def validate_against(node: QueryNode, view_object) -> None:
    """Static check: every reference names a real node and attribute."""
    if isinstance(node, QAttr):
        if node.node is None:
            projection = view_object.projection(view_object.pivot_node_id)
            if node.name not in projection.attributes:
                raise QueryError(
                    f"pivot projection of {view_object.name!r} has no "
                    f"attribute {node.name!r}"
                )
        else:
            projection = view_object.projection(node.node)  # raises if unknown
            if node.name not in projection.attributes:
                raise QueryError(
                    f"node {node.node!r} has no projected attribute "
                    f"{node.name!r}"
                )
    elif isinstance(node, QCount):
        view_object.node(node.node)
    elif isinstance(node, QAggregate):
        projection = view_object.projection(node.node)
        if node.name not in projection.attributes:
            raise QueryError(
                f"node {node.node!r} has no projected attribute "
                f"{node.name!r}"
            )
    for child in node.children():
        validate_against(child, view_object)
