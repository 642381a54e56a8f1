"""Partial update operations on a single component (node) of an object.

The paper defines complete operations and notes that "the description of
partial update operations for manipulating only a component of the view
object (that is, a node in the object's tree of relations) can be found
in [the thesis]". We implement the three node-local variants as special
cases of the complete machinery:

* **partial insertion** — add one component tuple under an existing
  instance (e.g. record a new GRADE for a course): island nodes insert
  with inherited key attributes propagated from the parent; outside
  nodes follow the VO-CI cases;
* **partial deletion** — remove one component tuple: island tuples are
  deleted (with cascades and reference repair); peninsula tuples are
  repaired per the deletion policy; other outside tuples only lose
  their linkage, which for a direct reference edge means nullifying or
  rejecting, since the base tuple itself must survive;
* **partial update** — modify nonkey attributes of one component tuple
  in place.

Each function takes the translator's
:class:`~repro.core.updates.compiled.CompiledProgram` — its node records
supply keys, projections and row building, its pre-resolved rules the
global-integrity passes — and records into a
:class:`TranslationContext`; the
:class:`~repro.core.updates.translator.Translator` doors (``apply``,
``explain_batch`` then ``apply_plan``) add the transaction boundary.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import LocalValidationError, UpdateRejectedError
from repro.core.instance import Instance
from repro.core.updates.compiled import CompiledProgram
from repro.core.updates.context import TranslationContext

__all__ = [
    "translate_partial_insertion",
    "translate_partial_deletion",
    "translate_partial_update",
]


def _tree_and_compiled_node(
    program: CompiledProgram, ctx: TranslationContext, node_id: str
):
    node = ctx.view_object.node(node_id)
    if node.path is not None and len(node.path) > 1:
        raise LocalValidationError(
            f"partial updates are not defined on node {node_id!r}: its edge "
            f"collapses {len(node.path)} connections; update the "
            f"intermediate relations' object instead"
        )
    return node, program.nodes[node_id]


def _inherit_from_parent(
    ctx: TranslationContext, instance: Instance, node_id: str, values: Dict[str, Any]
) -> Dict[str, Any]:
    """Overlay the connecting attributes from the instance's pivot-side
    parent, so a partial insertion lands under the right owner."""
    node = ctx.view_object.node(node_id)
    if node.path is None:
        return dict(values)
    parent = ctx.view_object.tree.node(node.parent_id)
    if parent.node_id != ctx.view_object.pivot_node_id:
        # Inheritance beyond one level would need the caller to say which
        # parent component tuple the new tuple belongs to; require the
        # connecting attributes explicitly instead.
        return dict(values)
    traversal = node.path.traversals[0]
    pivot_values = instance.root.values
    merged = dict(values)
    merged.update(
        zip(
            traversal.end_attributes,
            (pivot_values.get(a) for a in traversal.start_attributes),
        )
    )
    return merged


def translate_partial_insertion(
    program: CompiledProgram,
    ctx: TranslationContext,
    instance: Instance,
    node_id: str,
    values: Dict[str, Any],
) -> None:
    if not ctx.policy.allow_insertion:
        raise LocalValidationError(
            f"translator for {ctx.view_object.name!r} does not allow "
            f"insertions"
        )
    node, cn = _tree_and_compiled_node(program, ctx, node_id)
    if node.path is None:
        raise LocalValidationError(
            "partial insertion at the pivot is a complete insertion; send "
            "a CompleteInsertion request"
        )
    values = _inherit_from_parent(ctx, instance, node_id, values)
    key = cn.key_from(values)
    existing = ctx.engine.get(node.relation, key)
    relation_policy = ctx.policy.for_relation(node.relation)
    if existing is None:
        if not cn.in_island and not (
            relation_policy.can_modify and relation_policy.can_insert
        ):
            raise UpdateRejectedError(
                f"partial insertion needs a new {node.relation!r} tuple but "
                f"the translator does not allow insertions there",
                relation=node.relation,
            )
        ctx.insert(
            node.relation,
            cn.complete_row(ctx, values),
            reason=f"partial insertion at node {node_id!r}",
        )
    elif cn.projected_match(values, existing):
        if cn.in_island:
            raise UpdateRejectedError(
                f"partial insertion: identical tuple {key!r} already part "
                f"of the entity at {node_id!r}",
                relation=node.relation,
            )
    else:
        if cn.in_island:
            raise UpdateRejectedError(
                f"partial insertion: tuple {key!r} exists at {node_id!r} "
                f"with different values",
                relation=node.relation,
            )
        if not (
            relation_policy.can_modify and relation_policy.can_replace_existing
        ):
            raise UpdateRejectedError(
                f"partial insertion needs to modify {node.relation!r} but "
                f"the translator prohibits it",
                relation=node.relation,
            )
        ctx.replace(
            node.relation,
            key,
            cn.merge_row(values, existing),
            reason=f"partial insertion reconciliation at node {node_id!r}",
            old=existing,
        )
    program.maintain_after_insertions(ctx)


def translate_partial_deletion(
    program: CompiledProgram,
    ctx: TranslationContext,
    instance: Instance,
    node_id: str,
    values: Dict[str, Any],
) -> None:
    if not ctx.policy.allow_deletion:
        raise LocalValidationError(
            f"translator for {ctx.view_object.name!r} does not allow "
            f"deletions"
        )
    node, cn = _tree_and_compiled_node(program, ctx, node_id)
    if node.path is None:
        raise LocalValidationError(
            "partial deletion of the pivot is a complete deletion; send "
            "a CompleteDeletion request"
        )
    key = cn.key_from(values)
    if cn.in_island:
        ctx.delete(
            node.relation, key, reason=f"partial deletion at node {node_id!r}"
        )
        program.maintain_after_deletions(ctx)
        return
    # Outside the island, the base tuple survives; removing the component
    # means severing the linkage. For a forward-reference edge we nullify
    # the parent's connecting attributes; anything else is ambiguous.
    traversal = node.path.traversals[0]
    if traversal.forward and traversal.kind.value == "reference":
        parent = program.nodes[node.parent_id]
        pivot_key = instance.key
        existing = ctx.engine.get(parent.relation, pivot_key)
        if existing is None:
            raise UpdateRejectedError(
                f"partial deletion: parent tuple {pivot_key!r} missing",
                relation=parent.relation,
            )
        for name in traversal.start_attributes:
            if not parent.schema.attribute(name).nullable:
                raise UpdateRejectedError(
                    f"partial deletion of {node_id!r} would nullify "
                    f"non-nullable attribute {parent.relation}.{name}",
                    relation=parent.relation,
                )
        ctx.replace(
            parent.relation,
            pivot_key,
            parent.merge_row(
                dict.fromkeys(traversal.start_attributes), existing
            ),
            reason=f"sever reference to {node_id!r} (partial deletion)",
            old=existing,
        )
        return
    raise UpdateRejectedError(
        f"partial deletion at node {node_id!r} is ambiguous: the component "
        f"is outside the dependency island and not a severable reference",
        relation=node.relation,
    )


def translate_partial_update(
    program: CompiledProgram,
    ctx: TranslationContext,
    instance: Instance,
    node_id: str,
    old_values: Dict[str, Any],
    new_values: Dict[str, Any],
) -> None:
    if not ctx.policy.allow_replacement:
        raise LocalValidationError(
            f"translator for {ctx.view_object.name!r} does not allow "
            f"replacements"
        )
    node, cn = _tree_and_compiled_node(program, ctx, node_id)
    old_key = cn.key_from(old_values)
    new_key = cn.key_from(new_values)
    if old_key != new_key:
        raise LocalValidationError(
            f"partial update may not change keys ({old_key!r} -> "
            f"{new_key!r}); use a replacement request"
        )
    existing = ctx.engine.get(node.relation, old_key)
    if existing is None:
        raise UpdateRejectedError(
            f"partial update: {node.relation!r} tuple {old_key!r} not found",
            relation=node.relation,
        )
    relation_policy = ctx.policy.for_relation(node.relation)
    if not cn.in_island and not (
        relation_policy.can_modify and relation_policy.can_replace_existing
    ):
        raise UpdateRejectedError(
            f"partial update needs to modify {node.relation!r} but the "
            f"translator prohibits it",
            relation=node.relation,
        )
    ctx.replace(
        node.relation,
        old_key,
        cn.merge_row(new_values, existing),
        reason=f"partial update at node {node_id!r}",
        old=existing,
    )
    program.maintain_after_insertions(ctx)
