"""The declarative object query language.

``execute_query(view_object, engine, text)`` is the one-call entry
point: parse, validate, push pivot conditions into the engine, assemble
instances, and filter by the residual condition.
"""

from typing import List, Tuple

from repro.errors import QueryError

from repro.core.instance import Instance
from repro.core.query.ast import (
    QAnd,
    QAttr,
    QCompare,
    QCount,
    QIsNull,
    QLiteral,
    QNot,
    QOr,
    QueryNode,
    QueryStatement,
)
from repro.core.query.evaluator import evaluate, validate_against
from repro.core.query.lexer import Token, tokenize
from repro.core.query.parser import parse_query, parse_statement
from repro.core.query.planner import QueryPlan, plan_query
from repro.core.view_object import ViewObjectDefinition
from repro.relational.engine import Engine

__all__ = [
    "parse_query",
    "plan_query",
    "evaluate",
    "execute_query",
    "explain_query",
    "QueryNode",
    "QAttr",
    "QCount",
    "QLiteral",
    "QCompare",
    "QIsNull",
    "QAnd",
    "QOr",
    "QNot",
    "Token",
    "tokenize",
]


def _planned(
    view_object: ViewObjectDefinition, text: str
) -> Tuple[QueryStatement, QueryPlan]:
    """Everything about a query that is settled before an engine is
    asked: parsed, its references checked against the object, its pushed
    literals typed against the pivot relation."""
    statement = parse_statement(text)
    validate_against(statement.condition, view_object)
    pivot = view_object.graph.relation(view_object.pivot_relation)
    return statement, plan_query(statement.condition, pivot)


def execute_query(
    view_object: ViewObjectDefinition,
    engine: Engine,
    text: str,
    instantiator=None,
) -> List[Instance]:
    """Run an object query and return the matching instances.

    Statements support ``order by`` (pivot attributes, ``count(NODE)``,
    or aggregates — ascending by default, nulls last ascending) and
    ``limit N``.

    ``instantiator`` overrides how matching pivot tuples become
    instances: any object with ``Instantiator``'s ``where(engine,
    predicate)`` signature works — in particular a
    :class:`~repro.materialize.MaterializedView`, which serves assembly
    from its cache.
    """
    statement, plan = _planned(view_object, text)
    if instantiator is None:
        instantiator = view_object.instantiator
    instances = instantiator.where(engine, plan.pushed)
    if plan.residual is not None:
        instances = [i for i in instances if evaluate(plan.residual, i)]
    return order_and_limit(view_object, statement, instances)


def order_and_limit(
    view_object: ViewObjectDefinition,
    statement: QueryStatement,
    instances: List[Instance],
) -> List[Instance]:
    """A statement's ``order by`` (a stable sort) and ``limit`` over the
    instances its condition selected. A sharded query runs it on every
    shard and once more on the merged union: each shard's first ``N``
    hold that shard's share of the union's first ``N``, up to how ties
    at a shard's cut were broken."""
    if statement.order_by:
        for term in statement.order_by:
            validate_against(term.operand, view_object)
            if isinstance(term.operand, QAttr) and term.operand.node is not None:
                raise QueryError(
                    "order by a component attribute is ambiguous (set-"
                    "valued); order by an aggregate of it instead"
                )
        from repro.core.query.evaluator import _operand_values

        for term in reversed(statement.order_by):
            def sort_key(instance, operand=term.operand):
                value = _operand_values(operand, instance)[0]
                return (value is None, value)

            try:
                instances.sort(key=sort_key, reverse=term.descending)
            except TypeError:
                raise QueryError(
                    "order by values are not mutually comparable"
                ) from None
    if statement.limit is not None:
        instances = instances[: statement.limit]
    return instances


def explain_query(view_object: ViewObjectDefinition, text: str) -> str:
    """A readable account of how a query would execute.

    Shows the pivot predicate pushed into the storage engine (with its
    SQL form) and the residual condition evaluated on assembled
    instances — the "composition" of the query with the object's
    structure that the paper's query model describes.
    """
    statement, plan = _planned(view_object, text)
    sql, params = plan.pushed.to_sql()
    lines = [
        f"object query on {view_object.name!r} "
        f"(pivot {view_object.pivot_relation}):",
        f"  pushed to engine : {sql}  params={params!r}",
    ]
    if plan.residual is None:
        lines.append("  residual         : none (fully pushed down)")
    else:
        lines.append(f"  residual         : {plan.residual!r}")
        lines.append(
            "  evaluated on     : assembled instances "
            "(existential component semantics)"
        )
    if statement.order_by:
        rendered = ", ".join(repr(term) for term in statement.order_by)
        lines.append(f"  order by         : {rendered}")
    if statement.limit is not None:
        lines.append(f"  limit            : {statement.limit}")
    return "\n".join(lines)
