"""The chosen translator for a flat relational view.

"We use semantics of the application to choose among the alternative
translations of view updates ... obtained by a dialog during view
definition time." A :class:`KellerTranslator` records those choices —
which relation absorbs deletions, which relations accept insertions,
which side of a join absorbs join-attribute changes — and applies them
to subsequent updates without further interaction.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence

from repro.errors import UpdateError, UpdateRejectedError
from repro.keller.enumeration import contributing_rows
from repro.keller.views import RelationalView
from repro.relational.engine import Engine
from repro.relational.operations import (
    Delete,
    Insert,
    Replace,
    UpdatePlan,
)

__all__ = ["KellerTranslator"]


class KellerTranslator:
    """Applies the definition-time choices to flat-view updates.

    The choices are attributes, set to Keller's defaults:

    * ``delete_target`` — the relation whose contributing tuple a view
      deletion removes: the query-graph root (the view's anchor);
    * ``insertable`` — the relations allowed to receive insertions
      during view insertions: all of them;
    * ``join_change_side`` — for changed join attributes, which side of
      the join absorbs the change: ``"left"`` (``"right"`` and
      ``"both"`` are the other answers).
    """

    def __init__(self, view: RelationalView) -> None:
        self.view = view
        self.delete_target = view.anchor
        self.insertable = set(view.relations)
        self.join_change_side = "left"

    # -- operations -----------------------------------------------------------

    def delete(
        self, engine: Engine, view_tuple: Mapping[str, Any]
    ) -> UpdatePlan:
        """Delete the matching view tuple(s) via the chosen relation."""
        rows = contributing_rows(self.view, engine, view_tuple)
        if not rows:
            raise UpdateError(
                f"view {self.view.name!r}: no tuple matches "
                f"{dict(view_tuple)!r}"
            )
        plan = UpdatePlan()
        schema = engine.schema(self.delete_target)
        seen = set()
        engine.begin()
        try:
            for row in rows:
                key = tuple(
                    row[f"{self.delete_target}.{k}"] for k in schema.key
                )
                if key in seen:
                    continue
                seen.add(key)
                engine.delete(self.delete_target, key)
                plan.add(
                    Delete(self.delete_target, key),
                    reason=f"flat-view deletion via {self.delete_target}",
                )
        except Exception:
            engine.rollback()
            raise
        engine.commit()
        return plan

    def insert(
        self, engine: Engine, base_tuples: Mapping[str, Sequence[Any]]
    ) -> UpdatePlan:
        """Insert the missing contributing tuples of a new view tuple."""
        plan = UpdatePlan()
        engine.begin()
        try:
            for relation in self.view.relations:
                values = tuple(base_tuples[relation])
                schema = engine.schema(relation)
                key = schema.key_of(values)
                existing = engine.get(relation, key)
                if existing is not None:
                    if existing != values:
                        raise UpdateRejectedError(
                            f"flat-view insertion conflicts with existing "
                            f"{relation!r} tuple {key!r}",
                            relation=relation,
                        )
                    continue
                if relation not in self.insertable:
                    raise UpdateRejectedError(
                        f"flat-view insertion needs a new {relation!r} tuple "
                        f"but the translator does not allow insertions there",
                        relation=relation,
                    )
                engine.insert(relation, values)
                plan.add(
                    Insert(relation, values),
                    reason=f"flat-view insertion into {relation}",
                )
        except Exception:
            engine.rollback()
            raise
        engine.commit()
        return plan

    def replace(
        self,
        engine: Engine,
        old_view_tuple: Mapping[str, Any],
        changes: Mapping[str, Any],
    ) -> UpdatePlan:
        """Change qualified attributes of one view tuple."""
        rows = contributing_rows(self.view, engine, old_view_tuple)
        if not rows:
            raise UpdateError(
                f"view {self.view.name!r}: no tuple matches "
                f"{dict(old_view_tuple)!r}"
            )
        placements = self._place_changes(changes)
        plan = UpdatePlan()
        handled = set()
        engine.begin()
        try:
            for row in rows:
                for relation, updates in placements.items():
                    schema = engine.schema(relation)
                    key = tuple(row[f"{relation}.{k}"] for k in schema.key)
                    if (relation, key) in handled:
                        continue
                    handled.add((relation, key))
                    existing = engine.get(relation, key)
                    if existing is None:
                        continue
                    mapping = schema.as_mapping(existing)
                    mapping.update(updates)
                    new_values = schema.row_from_mapping(mapping)
                    engine.replace(relation, key, new_values)
                    plan.add(
                        Replace(relation, key, new_values),
                        reason=f"flat-view replacement in {relation}",
                    )
        except Exception:
            engine.rollback()
            raise
        engine.commit()
        return plan

    # -- helpers -----------------------------------------------------------------

    def _place_changes(
        self, changes: Mapping[str, Any]
    ) -> Dict[str, Dict[str, Any]]:
        """Distribute qualified changes over relations per the chosen
        join-change side."""
        join_partner: Dict[str, str] = {}
        for edge in self.view.joins:
            for a, b in edge.pairs:
                join_partner[f"{edge.left}.{a}"] = f"{edge.right}.{b}"
        per_relation: Dict[str, Dict[str, Any]] = {}

        def place(qualified: str, value: Any) -> None:
            relation, attribute = qualified.split(".", 1)
            per_relation.setdefault(relation, {})[attribute] = value

        for qualified, value in changes.items():
            partner = join_partner.get(qualified)
            if partner is None:
                # Right-side attrs keyed by their left partner too.
                reverse = {v: k for k, v in join_partner.items()}
                partner = reverse.get(qualified)
                if partner is not None and self.join_change_side in (
                    "left",
                    "both",
                ):
                    place(partner, value)
                if partner is None or self.join_change_side in (
                    "right",
                    "both",
                ):
                    place(qualified, value)
                continue
            # ``qualified`` is a left-side join attribute.
            if self.join_change_side in ("left", "both"):
                place(qualified, value)
            if self.join_change_side in ("right", "both"):
                place(partner, value)
        return per_relation
