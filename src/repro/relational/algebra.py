"""Relational algebra over derived relations.

The instantiation engine and the Keller baseline both manipulate
intermediate results that are not stored tables: selections of a base
relation, projections, and joins across connections. A
:class:`DerivedRelation` is such an intermediate — a schema plus a list
of value tuples — and this module provides the classical operators over
them.

Projection deduplicates (set semantics), matching the paper's relational
setting; joins are hash joins on explicit attribute pairs, which is what
a structural-model connection specifies (``<X1, X2>`` of Definition 2.1).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.expressions import Expression
from repro.relational.schema import Attribute, RelationSchema

__all__ = [
    "DerivedRelation",
    "from_engine",
    "select",
    "project",
    "join",
    "rename",
]


class DerivedRelation:
    """An intermediate query result: a schema and its value tuples."""

    __slots__ = ("schema", "tuples")

    def __init__(
        self, schema: RelationSchema, tuples: Iterable[Tuple[Any, ...]]
    ) -> None:
        self.schema = schema
        self.tuples = [tuple(t) for t in tuples]

    def mappings(self) -> List[Dict[str, Any]]:
        """All tuples rendered as attribute-name dictionaries."""
        names = self.schema.attribute_names
        return [dict(zip(names, t)) for t in self.tuples]

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DerivedRelation({self.schema.name!r}, {len(self.tuples)} tuples)"


def from_engine(engine, name: str) -> DerivedRelation:
    """Materialize a stored relation as a derived relation."""
    return DerivedRelation(engine.schema(name), engine.scan(name))


def select(relation: DerivedRelation, predicate: Expression) -> DerivedRelation:
    """Tuples of ``relation`` satisfying ``predicate``."""
    test = predicate.bind(relation.schema)
    return DerivedRelation(
        relation.schema, [t for t in relation.tuples if test(t)]
    )


def project(
    relation: DerivedRelation,
    names: Sequence[str],
    new_name: Optional[str] = None,
) -> DerivedRelation:
    """Projection onto ``names``, duplicates dropped (set semantics)."""
    schema = relation.schema.restricted_to(names, new_name=new_name)
    positions = relation.schema.positions(names)
    projected = (tuple(t[i] for i in positions) for t in relation.tuples)
    return DerivedRelation(schema, list(dict.fromkeys(projected)))


def rename(
    relation: DerivedRelation,
    mapping: Dict[str, str],
    new_name: Optional[str] = None,
) -> DerivedRelation:
    """Rename attributes; unmentioned names stay unchanged."""
    attributes = []
    for attr in relation.schema.attributes:
        attributes.append(
            Attribute(mapping.get(attr.name, attr.name), attr.domain, attr.nullable)
        )
    key = tuple(mapping.get(k, k) for k in relation.schema.key)
    schema = RelationSchema(
        new_name or relation.schema.name, attributes, key=key
    )
    return DerivedRelation(schema, relation.tuples)


def _joined_schema(
    left: RelationSchema,
    right: RelationSchema,
    new_name: str,
    prefix_right: str,
) -> Tuple[RelationSchema, Dict[str, str]]:
    """Schema of a join result; right-side name clashes get prefixed."""
    attributes = list(left.attributes)
    taken = {a.name for a in attributes}
    right_names: Dict[str, str] = {}
    for attr in right.attributes:
        name = attr.name
        if name in taken:
            name = f"{prefix_right}.{attr.name}"
        if name in taken:
            raise SchemaError(f"join would duplicate attribute {name!r}")
        taken.add(name)
        right_names[attr.name] = name
        attributes.append(Attribute(name, attr.domain, attr.nullable))
    key = tuple(left.key) + tuple(right_names[k] for k in right.key)
    # Deduplicate key attribute names while preserving order.
    seen = set()
    unique_key = tuple(k for k in key if not (k in seen or seen.add(k)))
    schema = RelationSchema(new_name, attributes, key=unique_key)
    return schema, right_names


def join(
    left: DerivedRelation,
    right: DerivedRelation,
    on: Sequence[Tuple[str, str]],
    new_name: Optional[str] = None,
) -> DerivedRelation:
    """Equi-join on explicit attribute pairs ``(left_attr, right_attr)``.

    Null join values never match, per the structural model: a tuple with
    null connecting attributes is connected to nothing.
    """
    name = new_name or f"{left.schema.name}*{right.schema.name}"
    schema, __ = _joined_schema(left.schema, right.schema, name, right.schema.name)
    left_positions = left.schema.positions([pair[0] for pair in on])
    right_positions = right.schema.positions([pair[1] for pair in on])

    buckets: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
    for t in right.tuples:
        entry = tuple(t[i] for i in right_positions)
        if any(v is None for v in entry):
            continue
        buckets.setdefault(entry, []).append(t)

    result: List[Tuple[Any, ...]] = []
    for lt in left.tuples:
        entry = tuple(lt[i] for i in left_positions)
        if any(v is None for v in entry):
            continue
        for rt in buckets.get(entry, ()):
            result.append(lt + rt)
    return DerivedRelation(schema, result)
