"""Referential-integrity checking for structural schemas.

Each connection kind carries an *existence* rule (the first criterion of
Definitions 2.2-2.4):

* ownership ``R1 --* R2``: every tuple of R2 is connected to an owner in R1;
* reference ``R1 --> R2``: every tuple of R1 either connects to a
  referenced tuple in R2 or holds nulls in X1;
* subset ``R1 ==>o R2``: every tuple of R2 connects to a tuple in R1.

All three have one shape, a :class:`Rule`: every row of a *child*
relation names a row of a *parent* relation by the parent's key (the
parent side of a connection is always its key, see
:mod:`~repro.structural.connections`):

=============  =====  ======  =========================================
kind           child  parent  nulls in the child attributes
=============  =====  ======  =========================================
ownership      R2     R1      refused
reference      R1     R2      all-null allowed, part-null refused
subset         R2     R1      refused
=============  =====  ======  =========================================

:class:`IntegrityChecker` builds that table once from the schema and
reads it two ways: :meth:`~IntegrityChecker.check` scans the whole
database, :meth:`~IntegrityChecker.check_plan` checks only what one
translated plan wrote and removed.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.relational.domains import DATE
from repro.relational.engine import Engine
from repro.relational.schema import RelationSchema
from repro.structural.connections import Connection, ConnectionKind
from repro.structural.schema_graph import StructuralSchema

__all__ = ["Violation", "IntegrityChecker"]

Known = Dict[str, Dict[Tuple[Any, ...], Any]]  # relation -> key -> row
_UNSEEN = object()  # a key not read yet


def _dated(schema: RelationSchema) -> bool:
    """Whether a key of ``schema`` needs ``Engine._coerce_key``."""
    return any(schema.attribute(a).domain == DATE for a in schema.key)


def _getter(positions: Sequence[int]) -> Callable[[Sequence[Any]], Tuple[Any, ...]]:
    """A projection onto ``positions`` that always answers a tuple."""
    if len(positions) == 1:
        (position,) = positions
        return lambda values: (values[position],)
    return itemgetter(*positions)


class Violation:
    """One integrity violation found by the checker."""

    __slots__ = ("connection", "rule", "relation", "key", "message")

    def __init__(
        self,
        connection: Connection,
        rule: str,
        relation: str,
        key: Tuple[Any, ...],
        message: str,
    ) -> None:
        self.connection = connection
        self.rule = rule
        self.relation = relation
        self.key = key
        self.message = message

    def __repr__(self) -> str:
        return f"Violation({self.rule}: {self.message})"


class Rule:
    """One connection's existence rule, with its projections baked in."""

    __slots__ = (
        "connection", "name", "child", "parent", "child_attributes",
        "nullable", "in_key", "dated", "entry", "parent_key", "child_entry",
        "child_key", "nulls", "missing",
    )

    def __init__(self, connection: Connection, graph: StructuralSchema) -> None:
        kind = connection.kind
        self.connection = connection
        self.name = f"{kind.value}-1"
        self.nullable = kind is ConnectionKind.REFERENCE
        if self.nullable:
            self.child, self.parent = connection.source, connection.target
            child_attrs = connection.source_attributes
            parent_attrs = connection.target_attributes
        else:
            self.child, self.parent = connection.target, connection.source
            child_attrs = connection.target_attributes
            parent_attrs = connection.source_attributes
        child = graph.relation(self.child)
        parent = graph.relation(self.parent)
        self.child_attributes = child_attrs
        self.in_key = set(child_attrs) <= set(child.key)
        self.dated = _dated(parent)
        # child row -> entry (connection order); child row -> parent
        # key; parent key -> entry
        self.entry = _getter(child.positions(child_attrs))
        self.parent_key = _getter([
            child.position(child_attrs[parent_attrs.index(a)])
            for a in parent.key
        ])
        self.child_entry = _getter([parent.key.index(a) for a in parent_attrs])
        self.child_key = child.key_of
        self.nulls = (None,) * len(child_attrs)
        self.missing = (
            f"has no owning tuple in {self.parent}"
            if kind is ConnectionKind.OWNERSHIP
            else f"has no general tuple in {self.parent}"
        )

    def judge(
        self, values: Sequence[Any], known: Known, engine: Engine
    ) -> Optional[Violation]:
        """The violation child row ``values`` makes, or None. ``known``
        maps relation -> key -> row (None: no row); a parent key it
        lacks is read from ``engine`` and remembered."""
        key = self.parent_key(values)
        if None in key:
            if self.nullable and key == self.nulls:
                return None
        else:
            if self.dated:
                key = engine._coerce_key(self.parent, key)
            rows = known[self.parent]
            row = rows.get(key, _UNSEEN)
            if row is _UNSEEN:
                row = rows[key] = engine.get(self.parent, key)
            if row is not None:
                return None
        return self.violation(values)

    def violation(self, values: Sequence[Any]) -> Violation:
        entry = self.entry(values)
        key = self.child_key(values)
        if not self.nullable:
            detail = self.missing
        elif None in entry:
            detail = f"has partially null reference {entry!r}"
        else:
            detail = f"references missing {self.parent} tuple {entry!r}"
        name = self.connection.name
        return Violation(
            self.connection, self.name, self.child, key,
            f"{self.child} tuple {key!r} {detail} (connection {name!r})",
        )


class IntegrityChecker:
    """Checks data against every connection's existence rule."""

    def __init__(self, graph: StructuralSchema) -> None:
        self.graph = graph
        self.rules = tuple(Rule(c, graph) for c in graph.connections)
        self._as_child: Dict[str, List[Rule]] = {}
        self._as_parent: Dict[str, List[Rule]] = {}
        self._key_of = {}
        self._dated = set()
        for name in graph.relation_names:
            schema = graph.relation(name)
            self._as_child[name] = [r for r in self.rules if r.child == name]
            self._as_parent[name] = [r for r in self.rules if r.parent == name]
            self._key_of[name] = _getter(schema.positions(schema.key))
            if _dated(schema):
                self._dated.add(name)

    def check(self, engine: Engine) -> List[Violation]:
        """All violations in the database, across every connection."""
        known: Known = {name: {} for name in self._key_of}
        violations = []
        for rule in self.rules:
            for values in engine.scan(rule.child):
                violation = rule.judge(values, known, engine)
                if violation is not None:
                    violations.append(violation)
        return violations

    def is_consistent(self, engine: Engine) -> bool:
        return not self.check(engine)

    def check_plan(
        self, engine: Engine, operations: Iterable[Any]
    ) -> List[Violation]:
        """The violations ``operations`` cause; ``engine`` already holds
        their effects.

        A plan can break a rule only by writing a row (that row's child
        rules) or by removing a parent key (the rows still pointing at
        it). So the operations are folded, in order, into a net state per
        (relation, key) cell; every row still written is judged, reading
        only parents the plan does not decide (memoised), and every key
        still removed is looked up once per rule naming it as parent. A
        row whose key was there before the plan keeps the child
        attributes its key holds, so those rules are not judged again.
        Violations the plan did not cause are :meth:`check`'s to find.
        """
        dated = self._dated
        key_of = self._key_of
        known: Known = {name: {} for name in key_of}
        kept = set()  # (relation, key) whose first operation found a row
        for op in operations:
            relation = op.relation
            rows = known[relation]
            if op.kind != "insert":
                key = op.key
                if relation in dated:
                    key = engine._coerce_key(relation, key)
                if key not in rows:
                    kept.add((relation, key))
                rows[key] = None
                if op.kind == "delete":
                    continue
            key = key_of[relation](op.values)
            if relation in dated:
                key = engine._coerce_key(relation, key)
            rows[key] = op.values

        # The plan's keys, taken before judging adds the parents it reads.
        decided = [(name, rows, list(rows)) for name, rows in known.items() if rows]
        found: Dict[Tuple[Rule, Tuple[Any, ...]], Violation] = {}
        for relation, rows, keys in decided:
            for key in keys:
                values = rows[key]
                if values is None:
                    for rule in self._as_parent[relation]:
                        for child in engine.find_by(
                            rule.child, rule.child_attributes,
                            rule.child_entry(key),
                        ):
                            found.setdefault(
                                (rule, rule.child_key(child)),
                                rule.violation(child),
                            )
                    continue
                old_key = bool(kept) and (relation, key) in kept
                for rule in self._as_child[relation]:
                    if old_key and rule.in_key:
                        continue
                    violation = rule.judge(values, known, engine)
                    if violation is not None:
                        found.setdefault((rule, violation.key), violation)
        return list(found.values())
