"""The interpreted predicate walk, kept as the oracle for the compiled one.

``src/`` compiles a predicate once per selection:
:meth:`repro.relational.expressions.Expression.compile` turns each node
into a closure over a row, ``bind`` hands it tuple positions and
``evaluate`` attribute names. This module keeps the nine ``evaluate``
bodies that the closures replaced, verbatim: each walks the tree again
for every row and reads every attribute out of a name → value mapping.
Slow, and obviously the null semantics the module's docstring states —
which is what an oracle is for
(``tests/property/test_expression_parity.py``).
"""

from __future__ import annotations

import operator
from typing import Any, Mapping

from repro.errors import QueryError
from repro.relational.expressions import (
    And,
    Attr,
    Comparison,
    Const,
    Expression,
    In,
    IsNull,
    Like,
    Not,
    Or,
)

_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _attr(self: Attr, row: Mapping[str, Any]) -> Any:
    try:
        return row[self.name]
    except KeyError:
        raise QueryError(f"row has no attribute {self.name!r}") from None


def _const(self: Const, row: Mapping[str, Any]) -> Any:
    return self.value


def _comparison(self: Comparison, row: Mapping[str, Any]) -> bool:
    lhs = reference_evaluate(self.left, row)
    rhs = reference_evaluate(self.right, row)
    if lhs is None or rhs is None:
        return False
    return _OPERATORS[self.op](lhs, rhs)


def _and(self: And, row: Mapping[str, Any]) -> bool:
    return all(reference_evaluate(part, row) for part in self.parts)


def _or(self: Or, row: Mapping[str, Any]) -> bool:
    return any(reference_evaluate(part, row) for part in self.parts)


def _not(self: Not, row: Mapping[str, Any]) -> bool:
    return not reference_evaluate(self.part, row)


def _is_null(self: IsNull, row: Mapping[str, Any]) -> bool:
    return reference_evaluate(self.part, row) is None


def _like(self: Like, row: Mapping[str, Any]) -> bool:
    value = reference_evaluate(self.operand, row)
    if value is None or not isinstance(value, str):
        return False
    return self._regex.match(value) is not None


def _in(self: In, row: Mapping[str, Any]) -> bool:
    value = reference_evaluate(self.operand, row)
    if value is None:
        return False
    return value in self.values


_EVALUATE = {
    Attr: _attr,
    Const: _const,
    Comparison: _comparison,
    And: _and,
    Or: _or,
    Not: _not,
    IsNull: _is_null,
    Like: _like,
    In: _in,
}


def reference_evaluate(node: Expression, row: Mapping[str, Any]) -> Any:
    """``node.evaluate(row)`` as ``src/`` spelled it before compiling."""
    return _EVALUATE[type(node)](node, row)
