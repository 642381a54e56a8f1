"""Keller's five validity criteria for view-update translations.

"Conceptually, we specify an enumeration of all possible valid
translations ... This enumeration is based on five validity criteria
that must all be satisfied. These criteria are syntactically based and
they characterize the nature of the ambiguity in view-update
translation."

From Keller's PODS'85 paper, a candidate translation must have:

1. **No database side effects** — the view after the translation equals
   the view after the requested update and nothing else changed in it;
2. **Only one-step changes** — each database tuple is affected by at
   most one operation of the translation;
3. **No unnecessary changes** — no proper subset of the translation
   achieves the same view update (minimality);
4. **Simplest replacements** — a requested view replacement maps to
   database replacements, never to delete-insert pairs on the same key;
5. **No delete-insert pairs** — the translation never deletes a
   database tuple and re-inserts one with the same key.

Criteria 2, 4, and 5 are purely syntactic over the operation list;
criteria 1 and 3 need the database (we check them by applying candidate
plans inside a transaction and rolling back).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.keller.views import RelationalView
from repro.relational.engine import Engine
from repro.relational.operations import (
    DatabaseOperation,
    Delete,
    Insert,
    Replace,
)

__all__ = ["satisfies_all"]


def touched_keys(plan: Sequence[DatabaseOperation]) -> List[Tuple[str, Tuple]]:
    """(relation, key) pairs each operation touches, in order."""
    touched = []
    for operation in plan:
        if isinstance(operation, Insert):
            # The inserted tuple's key is not recoverable without the
            # schema; approximate with the full tuple (safe for
            # uniqueness checks — stricter, never laxer).
            touched.append((operation.relation, operation.values))
        elif isinstance(operation, Delete):
            touched.append((operation.relation, operation.key))
        elif isinstance(operation, Replace):
            touched.append((operation.relation, operation.key))
    return touched


def one_step_changes(plan: Sequence[DatabaseOperation]) -> bool:
    """Criterion 2: each database tuple changed at most once."""
    seen: Set[Tuple[str, Tuple]] = set()
    for entry in touched_keys(plan):
        if entry in seen:
            return False
        seen.add(entry)
    return True


def no_delete_insert_pairs(
    plan: Sequence[DatabaseOperation], engine: Engine
) -> bool:
    """Criterion 5: no deletion later re-inserted with the same key."""
    deleted: Set[Tuple[str, Tuple]] = set()
    for operation in plan:
        if isinstance(operation, Delete):
            deleted.add((operation.relation, operation.key))
        elif isinstance(operation, Insert):
            schema = engine.schema(operation.relation)
            key = schema.key_of(operation.values)
            if (operation.relation, key) in deleted:
                return False
    return True


def simplest_replacements(
    plan: Sequence[DatabaseOperation], engine: Engine
) -> bool:
    """Criterion 4: alias of criterion 5 at the plan level — a view
    replacement must not decompose into delete+insert of one tuple."""
    return no_delete_insert_pairs(plan, engine)


def no_side_effects(
    view: RelationalView,
    engine: Engine,
    plan: Sequence[DatabaseOperation],
    expected_view: List[Tuple],
) -> bool:
    """Criterion 1: after the plan, the view equals the expected state."""
    engine.begin()
    try:
        for operation in plan:
            operation.apply(engine)
        actual = sorted(view.tuples(engine))
    except Exception:
        engine.rollback()
        return False
    engine.rollback()
    return actual == sorted(expected_view)


def no_unnecessary_changes(
    view: RelationalView,
    engine: Engine,
    plan: Sequence[DatabaseOperation],
    expected_view: List[Tuple],
) -> bool:
    """Criterion 3: no proper subset of the plan also works."""
    if len(plan) <= 1:
        return True
    for skip in range(len(plan)):
        subset = [op for index, op in enumerate(plan) if index != skip]
        if no_side_effects(view, engine, subset, expected_view):
            return False
    return True


def satisfies_all(
    view: RelationalView,
    engine: Engine,
    plan: Sequence[DatabaseOperation],
    expected_view: List[Tuple],
) -> bool:
    """All five criteria."""
    return (
        one_step_changes(plan)
        and no_delete_insert_pairs(plan, engine)
        and simplest_replacements(plan, engine)
        and no_side_effects(view, engine, plan, expected_view)
        and no_unnecessary_changes(view, engine, plan, expected_view)
    )
