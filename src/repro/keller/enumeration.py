"""Enumerating candidate translations of flat view updates.

"Conceptually, we specify an enumeration of all possible valid
translations into sequences of database updates of each view update ...
We do not actually instantiate this enumeration, we merely use it to
define the space of alternatives." For the baseline we *do* instantiate
it on small views, so the benches can show the ambiguity the dialog
resolves:

* **deletion** of a view tuple — delete the contributing tuple of any
  one underlying relation (each such choice kills the join);
* **insertion** of a view tuple — insert the missing contributing
  tuples (relations whose tuple already exists contribute nothing);
* **replacement** — rewrite the contributing tuples of the relations
  owning the changed attributes; when a *join* attribute changes, the
  change can land on either side of the join (or both), which is the
  classic source of ambiguity.

Candidates are then filtered through the five validity criteria.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.errors import UpdateError
from repro.keller import criteria
from repro.keller.views import RelationalView
from repro.relational.engine import Engine
from repro.relational.operations import (
    DatabaseOperation,
    Delete,
    Insert,
    Replace,
)

__all__ = [
    "contributing_rows",
    "enumerate_deletions",
    "valid_translations",
]


def _full_rows(view: RelationalView, engine: Engine) -> List[Dict[str, Any]]:
    """Unprojected view rows as qualified-attribute mappings."""
    body = RelationalView(
        view.name,
        view.relations,
        view.joins,
        view.selection,
        projection=None,
    )
    return body.materialize(engine).mappings()


def contributing_rows(
    view: RelationalView,
    engine: Engine,
    view_tuple: Mapping[str, Any],
) -> List[Dict[str, Any]]:
    """Full (unprojected) rows matching a projected view tuple."""
    rows = []
    for mapping in _full_rows(view, engine):
        if all(mapping.get(k) == v for k, v in view_tuple.items()):
            rows.append(mapping)
    return rows


def _base_key(
    engine: Engine, relation: str, qualified_row: Mapping[str, Any]
) -> Tuple[Any, ...]:
    schema = engine.schema(relation)
    return tuple(qualified_row[f"{relation}.{k}"] for k in schema.key)


def enumerate_deletions(
    view: RelationalView,
    engine: Engine,
    view_tuple: Mapping[str, Any],
) -> List[List[DatabaseOperation]]:
    """One candidate per underlying relation choice."""
    rows = contributing_rows(view, engine, view_tuple)
    if not rows:
        raise UpdateError(
            f"view {view.name!r}: no tuple matches {dict(view_tuple)!r}"
        )
    candidates: List[List[DatabaseOperation]] = []
    seen = set()
    for relation in view.relations:
        plan: List[DatabaseOperation] = []
        keys = set()
        for row in rows:
            key = _base_key(engine, relation, row)
            if key not in keys:
                keys.add(key)
                plan.append(Delete(relation, key))
        signature = (relation, tuple(sorted(keys)))
        if signature not in seen:
            seen.add(signature)
            candidates.append(plan)
    return candidates


def enumerate_insertions(
    view: RelationalView,
    engine: Engine,
    base_tuples: Mapping[str, Sequence[Any]],
) -> List[List[DatabaseOperation]]:
    """Insert whichever contributing tuples are missing.

    ``base_tuples`` maps each view relation to the full base tuple the
    new view tuple decomposes into (the caller resolves projected-out
    attributes, as in the paper's view-object treatment).
    """
    plan: List[DatabaseOperation] = []
    for relation in view.relations:
        if relation not in base_tuples:
            raise UpdateError(
                f"insertion into view {view.name!r} must specify a tuple "
                f"for relation {relation!r}"
            )
        values = tuple(base_tuples[relation])
        schema = engine.schema(relation)
        key = schema.key_of(values)
        if engine.get(relation, key) is None:
            plan.append(Insert(relation, values))
    return [plan]


def enumerate_replacements(
    view: RelationalView,
    engine: Engine,
    old_view_tuple: Mapping[str, Any],
    changes: Mapping[str, Any],
) -> List[List[DatabaseOperation]]:
    """Candidates for changing qualified attributes of one view tuple.

    Non-join attributes must change in their owning relation; a changed
    join attribute may change on the left side, the right side, or both
    — each combination is one candidate.
    """
    rows = contributing_rows(view, engine, old_view_tuple)
    if not rows:
        raise UpdateError(
            f"view {view.name!r}: no tuple matches {dict(old_view_tuple)!r}"
        )
    join_partners: Dict[str, List[str]] = {}
    for edge in view.joins:
        for a, b in edge.pairs:
            left_q = f"{edge.left}.{a}"
            right_q = f"{edge.right}.{b}"
            join_partners.setdefault(left_q, []).append(right_q)
            join_partners.setdefault(right_q, []).append(left_q)

    # Each changed attribute has a set of placement options: every
    # nonempty subset of {itself} ∪ {its join partners}.
    options: List[List[Tuple[Tuple[str, Any], ...]]] = []
    for qualified, new_value in changes.items():
        spots = [qualified] + join_partners.get(qualified, [])
        subsets: List[Tuple[Tuple[str, Any], ...]] = []
        for size in range(1, len(spots) + 1):
            for subset in itertools.combinations(spots, size):
                subsets.append(tuple((spot, new_value) for spot in subset))
        options.append(subsets)

    candidates: List[List[DatabaseOperation]] = []
    seen = set()
    for combo in itertools.product(*options):
        per_relation: Dict[str, Dict[str, Any]] = {}
        for placement in combo:
            for qualified, new_value in placement:
                relation, attribute = qualified.split(".", 1)
                per_relation.setdefault(relation, {})[attribute] = new_value
        plan: List[DatabaseOperation] = []
        handled = set()
        for row in rows:
            for relation, updates in per_relation.items():
                key = _base_key(engine, relation, row)
                if (relation, key) in handled:
                    continue
                handled.add((relation, key))
                existing = engine.get(relation, key)
                if existing is None:
                    continue
                schema = engine.schema(relation)
                mapping = schema.as_mapping(existing)
                mapping.update(updates)
                plan.append(
                    Replace(relation, key, schema.row_from_mapping(mapping))
                )
        signature = tuple(sorted(repr(op) for op in plan))
        if signature not in seen:
            seen.add(signature)
            candidates.append(plan)
    return candidates


def valid_translations(
    view: RelationalView,
    engine: Engine,
    candidates: Sequence[Sequence[DatabaseOperation]],
    expected_view: List[Tuple],
) -> List[List[DatabaseOperation]]:
    """Filter candidates through the five validity criteria."""
    return [
        list(plan)
        for plan in candidates
        if criteria.satisfies_all(view, engine, plan, expected_view)
    ]
