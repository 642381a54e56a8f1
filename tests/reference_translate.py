"""The interpreted Section 5 walk, kept as the oracle for the compiled one.

``src/`` ships one translator: :class:`repro.core.updates.compiled.
CompiledProgram` is built when a :class:`~repro.core.updates.translator.
Translator` is defined and runs every VO-CI / VO-CD / VO-R request, the
partial operations use its node records and pre-resolved integrity rules.
This module keeps the tree walk it replaced, verbatim: the three complete
algorithms, the three partial operations, the global-integrity passes and
the three ``TranslationContext`` helpers only they used (here functions
taking the context) — and VO-R's step 1 (the key disciplines) and step 2
(propagation within the object) as the full-instance recursions they
were, which the program fuses into one aligned pass; of ``src/``'s
local validation only the request gates are imported. It looks every node, schema, projection and
connection up by name per tuple and builds every reason string on the
spot. Slow, and obviously the paper's procedure — which is what an oracle
is for.

Used two ways. ``tests/core/updates/conftest.py`` patches these functions
over the program's ``run_*`` / ``maintain_*`` methods and the partial
operations (:func:`install`), so every hand-written semantic test in that
directory pins both implementations; ``test_compiled.py`` and
``tests/strategy/test_compiled_parity.py`` compare the two plan by plan
(:func:`installed`). Nothing under ``src/`` imports this module
(``tests/test_layout.py``).
"""

from __future__ import annotations

import contextlib
import datetime
from typing import Any, Dict, List, Optional, Sequence, Tuple

import pytest

import repro.obs as obs
from repro.core.dependency_island import NodeRole
from repro.core.instance import ComponentTuple, Instance
from repro.core.projection_tree import TreeNode
from repro.core.updates.context import TranslationContext
from repro.core.updates.local_validation import (
    validate_deletion,
    validate_insertion,
    validate_replacement_request,
)
from repro.core.updates.policy import ReferenceRepair
from repro.core.view_object import ViewObjectDefinition
from repro.errors import LocalValidationError, UpdateRejectedError
from repro.structural.connections import Connection, ConnectionKind


# ===========================================================================
# Algorithm VO-CI (§5.2)
# ===========================================================================
#
# Algorithm VO-CI: translation of complete-insertion requests (§5.2).
#
# For each tuple in each projection of the view object, three cases:
#
# * CASE 1 — an identical tuple exists in the database: reject if the
#   relation belongs to the dependency island, otherwise do nothing;
# * CASE 2 — the new tuple matches no existing key: insert it;
# * CASE 3 — the key exists but nonkey values differ: reject inside the
#   island, otherwise replace the existing tuple with the view-object
#   tuple.
#
# "Each view-object tuple inserted in the database needs to be extended
# with some values for the attributes that have been projected out" — the
# policy's completer supplies those values.
#
# Afterwards, global integrity inserts any missing tuples along inverse
# ownership, inverse subset, and reference connections, recursively
# (:func:`~repro.core.updates.global_integrity.maintain_after_insertions`).

def translate_complete_insertion(
    ctx: TranslationContext, instance: Instance
) -> None:
    """Run VO-CI for ``instance``; mutations are recorded in ``ctx``."""
    with obs.tracer().span("validate", algorithm="VO-CI"):
        validate_insertion(ctx, instance)
    with obs.tracer().span("propagate", algorithm="VO-CI") as span:
        _propagate_insertion(ctx, instance)
        span.set(ops=len(ctx.plan))


def _propagate_insertion(ctx: TranslationContext, instance: Instance) -> None:
    for node in ctx.view_object.tree.bfs():
        node_id = node.node_id
        in_island = ctx.analysis.is_island(node_id)
        relation_policy = ctx.policy.for_relation(node.relation)
        for component in instance.tuples_at(node_id):
            key = key_from_values(ctx, node_id, component.values)
            existing = ctx.engine.get(node.relation, key)
            if existing is None:
                # CASE 2: the new tuple matches no existing key.
                if not in_island and not (
                    relation_policy.can_modify and relation_policy.can_insert
                ):
                    raise UpdateRejectedError(
                        f"insertion needs a new tuple in {node.relation!r} "
                        f"but the translator does not allow insertions there",
                        relation=node.relation,
                    )
                ctx.insert(
                    node.relation,
                    ctx.complete(node_id, component.values),
                    reason=f"CASE 2 insertion at node {node_id!r} (VO-CI)",
                )
            elif projected_values_match(ctx, node_id, component.values, existing):
                # CASE 1: an identical tuple already exists.
                if in_island:
                    raise UpdateRejectedError(
                        f"complete insertion rejected: identical tuple "
                        f"{key!r} already exists in island relation "
                        f"{node.relation!r} (CASE 1)",
                        relation=node.relation,
                    )
                # Outside the island: do nothing.
            else:
                # CASE 3: key matches, nonkey values conflict.
                if in_island:
                    raise UpdateRejectedError(
                        f"complete insertion rejected: tuple {key!r} exists "
                        f"in island relation {node.relation!r} with "
                        f"different values (CASE 3)",
                        relation=node.relation,
                    )
                if not (
                    relation_policy.can_modify
                    and relation_policy.can_replace_existing
                ):
                    raise UpdateRejectedError(
                        f"insertion needs to modify an existing tuple of "
                        f"{node.relation!r} but the translator prohibits it",
                        relation=node.relation,
                    )
                ctx.replace(
                    node.relation,
                    key,
                    merge_with_existing(ctx, node_id, component.values, existing),
                    reason=f"CASE 3 replacement at node {node_id!r} (VO-CI)",
                )
    maintain_after_insertions(ctx)


# ===========================================================================
# Algorithm VO-CD (§5.1)
# ===========================================================================
#
# Algorithm VO-CD: translation of complete-deletion requests (§5.1).
#
#     o Isolate the dependency island
#     o For each projection in the island, delete all matching tuples
#       from the underlying relation
#     o Identify the referencing peninsulas
#     o For each peninsula, perform a replacement on the foreign key of
#       each matching tuple
#
# "In a case where replacements are not allowed on any of the referencing
# peninsulas, the transaction cannot be completed and has to be rolled
# back." The peninsula repair — and the two global-integrity obligations
# (cascade along outgoing ownership/subset connections; foreign-key
# repairs on any other referencing relation) — are carried out by
# :func:`~repro.core.updates.global_integrity.maintain_after_deletions`,
# driven by the same policy the dialog configured.

def translate_complete_deletion(
    ctx: TranslationContext, instance: Instance
) -> None:
    """Run VO-CD for ``instance``; mutations are recorded in ``ctx``."""
    with obs.tracer().span("validate", algorithm="VO-CD"):
        validate_deletion(ctx, instance)
    with obs.tracer().span("propagate", algorithm="VO-CD") as span:
        _propagate_deletion(ctx, instance)
        span.set(ops=len(ctx.plan))


def _propagate_deletion(ctx: TranslationContext, instance: Instance) -> None:
    # Delete all matching tuples of every island projection, pivot first.
    for node_id in ctx.analysis.island_nodes:
        node = ctx.view_object.node(node_id)
        for component in instance.tuples_at(node_id):
            key = key_from_values(ctx, node_id, component.values)
            if ctx.engine.get(node.relation, key) is None:
                if node_id == ctx.view_object.pivot_node_id:
                    raise UpdateRejectedError(
                        f"complete deletion: pivot tuple {key!r} of "
                        f"{node.relation!r} does not exist",
                        relation=node.relation,
                    )
                # A non-pivot island tuple may already be gone (stale
                # instance); the cascade would have removed it anyway.
                continue
            ctx.delete(
                node.relation,
                key,
                reason=f"island deletion at node {node_id!r} (VO-CD)",
            )
    # Peninsula foreign-key repair, outgoing cascades, and repairs on
    # outside referencing relations: all reference- and
    # ownership/subset-rule maintenance to fixpoint.
    maintain_after_deletions(ctx)


# ===========================================================================
# Algorithm VO-R (§5.3)
# ===========================================================================
#
# Algorithm VO-R: translation of replacement requests (§5.3).
#
# A depth-first walk over the view object's tree of relations, starting in
# state **R** (replacing) at the pivot and switching to state **I**
# (inserting) when moving down to a relation outside the dependency
# island:
#
# * R-1 — projections match exactly: nothing to do;
# * R-2 — projections differ, keys match: database replacement;
# * R-3 — keys differ (dependency island only): the old tuple is always
#   removed; the new tuple is either a key-changing replacement or — when
#   a tuple with the new key already exists — a deletion of the old tuple
#   plus a replacement of the existing one, which the dialog may forbid
#   ("The system might need to delete the old database tuple, and replace
#   it with an existing tuple with matching key. Do you allow this?");
# * I-1 — keys match: handled with the R rules for this pair;
# * I-2 — keys differ, new tuple absent: insert it (the paper's
#   "replacement on the key of a relation referenced by the dependency
#   island leads to an insertion, rather than a replacement" — this is
#   how replacing a course's department with a brand-new one *inserts*
#   the new DEPARTMENT tuple);
# * I-3 — keys differ, identical tuple present: nothing;
# * I-4 — keys differ, tuple present with conflicting values: replacement.
#
# Old/new component tuples at each node are aligned by key first and
# the remainder in key order on both sides, so key-changing pairs (R-3)
# stay aligned — Figure 4's components are *sets*, so sibling order
# carries no meaning, in step 1 as little as in step 3. Steps 2 (in-object
# propagation) and 4 (validation against the structural model) wrap the
# walk, per the paper: "all three steps ... have to be executed
# sequentially". Here each is its own pass over the whole instance; the
# program under test fuses steps 1 and 2 into one pass and hands step 3
# only what they left.

def translate_replacement(
    ctx: TranslationContext, old: Instance, new: Instance
) -> None:
    """Run VO-R; mutations are recorded in ``ctx``."""
    with obs.tracer().span("validate", algorithm="VO-R"):
        validate_replacement_request(ctx, old, new)
        # Step 2: propagation within the view object. It runs ahead of
        # step 1 because the pairs step 1 judges are step 3's — aligned
        # on the keys the tuples will carry — while the key change it
        # judges is the one the user sent.
        sent, new = new, propagate_within_object(ctx.view_object, new)
        # Step 1: local validation (the key disciplines).
        _validate_key_disciplines(
            ctx, ctx.view_object.tree.root, [old.root], [sent.root], [new.root]
        )
    with obs.tracer().span("propagate", algorithm="VO-R") as span:
        # Step 3: translation into database operations (the state machine).
        _walk_node(
            ctx,
            ctx.view_object.tree.root,
            [old.root],
            [new.root],
            in_island=True,
        )
        # Step 4: validation against the structural model. The passes run
        # to a joint fixpoint: a key-change collision may drop stale tuples
        # whose own cascades the deletion pass must then pick up.
        maintain_all(ctx)
        span.set(ops=len(ctx.plan))


# ---------------------------------------------------------------------------
# Step 1 — the key disciplines of Section 5.3
# ---------------------------------------------------------------------------
#
# * keys may change only inside the dependency island (when the policy's
#   island answers allow it);
# * key replacements on referencing peninsulas are prohibited
#   ("inherently ambiguous"), modulo the connecting attributes that the
#   system itself rewrites when the referenced island key changes.


def _validate_key_disciplines(
    ctx: TranslationContext,
    node: TreeNode,
    old_components: List[ComponentTuple],
    sent_components: List[ComponentTuple],
    new_components: List[ComponentTuple],
) -> None:
    """``sent_components`` are the user's tuples, ``new_components`` the
    same tuples after step 2, in the same order."""
    if not new_components and not ctx.analysis.is_island(node.node_id):
        return
    sent_of = {id(new): sent for new, sent in zip(new_components, sent_components)}
    for old, new in _align(ctx, node.node_id, old_components, new_components):
        if old is None or new is None:
            continue
        sent = sent_of[id(new)]
        _validate_pair(ctx, node, old, sent)
        for child in ctx.view_object.tree.children(node.node_id):
            _validate_key_disciplines(
                ctx,
                child,
                old.child_tuples(child.node_id),
                sent.child_tuples(child.node_id),
                new.child_tuples(child.node_id),
            )


def _validate_pair(
    ctx: TranslationContext,
    node: TreeNode,
    old_component: ComponentTuple,
    new_component: ComponentTuple,
) -> None:
    role = ctx.analysis.role(node.node_id)
    schema = ctx.schema(node.relation)
    old_key = _key_or_none(ctx, node.node_id, old_component)
    new_key = _key_or_none(ctx, node.node_id, new_component)
    keys_differ = (
        old_key is not None and new_key is not None and old_key != new_key
    )
    if keys_differ and role is NodeRole.ISLAND:
        relation_policy = ctx.policy.for_relation(node.relation)
        if not relation_policy.allow_key_replacement:
            raise LocalValidationError(
                f"replacement changes the key of island relation "
                f"{node.relation!r} ({old_key!r} -> {new_key!r}) but the "
                f"translator prohibits key modification there"
            )
    if keys_differ and role is NodeRole.PENINSULA:
        # The connecting (foreign-key) attributes are rewritten by the
        # system when the referenced island key changes; a *user* key
        # change is any difference beyond those attributes.
        connecting = set(node.path.traversals[0].start_attributes)
        changed_outside_fk = any(
            old_component.values.get(a) != new_component.values.get(a)
            for a in schema.key
            if a not in connecting
        )
        if changed_outside_fk:
            raise LocalValidationError(
                f"replacement changes the key of referencing peninsula "
                f"{node.relation!r}; such replacements are inherently "
                f"ambiguous and prohibited"
            )


def _key_or_none(
    ctx: TranslationContext, node_id: str, component: ComponentTuple
) -> Optional[Tuple[Any, ...]]:
    node = ctx.view_object.node(node_id)
    schema = ctx.schema(node.relation)
    try:
        return tuple(component.values[k] for k in schema.key)
    except KeyError:
        return None


# ---------------------------------------------------------------------------
# Step 2 — propagation within the view object
# ---------------------------------------------------------------------------
#
# Section 5.3 decomposes each island relation's key into the part
# inherited from its parent and the complement ``A_j``; only the
# complement is accessible at the child's level, and "a change to A_j has
# to be propagated down to R_j's children in the dependency island".
# Uniformly for every single-connection tree edge: each child tuple's
# connecting attributes are rewritten to match its parent tuple's (new)
# connecting values. Composite multi-connection edges (Figure 3) cannot be
# propagated at the instance level and are reconciled in step 4.


def propagate_within_object(
    view_object: ViewObjectDefinition, new_instance: Instance
) -> Instance:
    """Rewrite connecting attributes downward; return a new Instance."""

    def rewrite(component: ComponentTuple) -> ComponentTuple:
        children: Dict[str, List[ComponentTuple]] = {}
        for child_node in view_object.tree.children(component.node_id):
            rebuilt: List[ComponentTuple] = []
            single_hop = len(child_node.path) == 1
            traversal = child_node.path.traversals[0]
            for child in component.child_tuples(child_node.node_id):
                if single_hop:
                    parent_entry = [
                        component.values.get(a)
                        for a in traversal.start_attributes
                    ]
                    values = dict(child.values)
                    values.update(
                        zip(traversal.end_attributes, parent_entry)
                    )
                    child = ComponentTuple(
                        child.node_id, values, child.children
                    )
                rebuilt.append(rewrite(child))
            children[child_node.node_id] = rebuilt
        return ComponentTuple(component.node_id, dict(component.values), children)

    return Instance(view_object, rewrite(new_instance.root))


# ---------------------------------------------------------------------------
# Step 3 — the tree walk
# ---------------------------------------------------------------------------


def _walk_node(
    ctx: TranslationContext,
    node: TreeNode,
    old_components: List[ComponentTuple],
    new_components: List[ComponentTuple],
    in_island: bool,
) -> None:
    if not new_components and not in_island:
        # A list the new instance does not carry, outside the island:
        # "outside tuples survive; only the linkage changed" for every
        # tuple of it, and for everything below.
        return
    pairs = _align(ctx, node.node_id, old_components, new_components)
    for old_component, new_component in pairs:
        if old_component is not None and new_component is not None:
            if in_island:
                _replace_case(ctx, node, old_component, new_component)
            else:
                _insert_case(ctx, node, old_component, new_component)
        elif new_component is None:
            _removed_component(ctx, node, old_component, in_island)
        else:
            _added_component(ctx, node, new_component, in_island)
        # Depth-first: "move to the next relation down, then go to state
        # I if we are outside the dependency island, R otherwise".
        for child in ctx.view_object.tree.children(node.node_id):
            child_in_island = ctx.analysis.is_island(child.node_id)
            old_children = (
                old_component.child_tuples(child.node_id)
                if old_component is not None
                else []
            )
            new_children = (
                new_component.child_tuples(child.node_id)
                if new_component is not None
                else []
            )
            _walk_node(ctx, child, old_children, new_children, child_in_island)


def _align(
    ctx: TranslationContext,
    node_id: str,
    old_components: List[ComponentTuple],
    new_components: List[ComponentTuple],
) -> List[Tuple[Optional[ComponentTuple], Optional[ComponentTuple]]]:
    """Pair old and new tuples: by key first, leftovers in key order on
    both sides; the pairs in key order (the lists are sets)."""
    old_components = _in_key_order(ctx, node_id, old_components)
    new_components = _in_key_order(ctx, node_id, new_components)
    old_by_key: Dict[Tuple[Any, ...], ComponentTuple] = {}
    for component in old_components:
        old_by_key[key_from_values(ctx, node_id, component.values)] = component
    pairs: List[Tuple[Optional[ComponentTuple], Optional[ComponentTuple]]] = []
    unmatched_new: List[ComponentTuple] = []
    for component in new_components:
        key = key_from_values(ctx, node_id, component.values)
        match = old_by_key.pop(key, None)
        if match is not None:
            pairs.append((match, component))
        else:
            unmatched_new.append(component)
    leftovers_old = [
        c for c in old_components
        if key_from_values(ctx, node_id, c.values) in old_by_key
    ]
    for index in range(max(len(leftovers_old), len(unmatched_new))):
        pairs.append(
            (
                leftovers_old[index] if index < len(leftovers_old) else None,
                unmatched_new[index] if index < len(unmatched_new) else None,
            )
        )
    return pairs


def _in_key_order(
    ctx: TranslationContext, node_id: str, components: List[ComponentTuple]
) -> List[ComponentTuple]:
    """Siblings sorted by key. A payload's key may hold a null or a value
    of another domain: then values rank by kind (null, number, text or
    date, anything else) before they compare."""
    keys = [key_from_values(ctx, node_id, c.values) for c in components]

    def ranked(value: Any) -> Tuple[Any, ...]:
        if value is None:
            return (0, "", 0)
        if isinstance(value, (int, float)):
            return (1, "", value)
        if isinstance(value, (str, datetime.date)):
            return (2, type(value).__name__, value)
        return (3, type(value).__name__, repr(value))

    order = range(len(components))
    try:
        order = sorted(order, key=keys.__getitem__)
    except TypeError:
        order = sorted(order, key=lambda i: tuple(map(ranked, keys[i])))
    return [components[i] for i in order]


# ---------------------------------------------------------------------------
# State R — replacing (dependency island)
# ---------------------------------------------------------------------------


def _replace_case(
    ctx: TranslationContext,
    node: TreeNode,
    old_component: ComponentTuple,
    new_component: ComponentTuple,
) -> None:
    node_id = node.node_id
    if old_component.values == new_component.values:
        return  # CASE R-1: the projections match exactly.
    old_key = key_from_values(ctx, node_id, old_component.values)
    new_key = key_from_values(ctx, node_id, new_component.values)
    existing = ctx.engine.get(node.relation, old_key)
    if existing is None:
        raise UpdateRejectedError(
            f"replacement: island tuple {old_key!r} of {node.relation!r} "
            f"no longer exists",
            relation=node.relation,
        )
    if old_key == new_key:
        # CASE R-2: the projections differ but the keys match.
        ctx.replace(
            node.relation,
            old_key,
            merge_with_existing(ctx, node_id, new_component.values, existing),
            reason=f"CASE R-2 replacement at node {node_id!r} (VO-R)",
        )
        return
    # CASE R-3: the projections differ and the keys differ — island only.
    relation_policy = ctx.policy.for_relation(node.relation)
    if not relation_policy.allow_db_key_replacement:
        raise UpdateRejectedError(
            f"replacement changes the database key of {node.relation!r} "
            f"({old_key!r} -> {new_key!r}) but the translator prohibits "
            f"replacing database keys",
            relation=node.relation,
        )
    conflicting = ctx.engine.get(node.relation, new_key)
    if conflicting is not None:
        # Delete the old tuple and replace the existing one with the new
        # view-object tuple — only if the dialog allowed the merge.
        if not relation_policy.allow_merge_on_key_conflict:
            raise UpdateRejectedError(
                f"replacement would delete {node.relation!r} tuple "
                f"{old_key!r} and overwrite existing tuple {new_key!r}; "
                f"the translator prohibits this merge",
                relation=node.relation,
            )
        ctx.delete(
            node.relation,
            old_key,
            reason="CASE R-3 merge: old island tuple removed (VO-R)",
        )
        ctx.replace(
            node.relation,
            new_key,
            merge_with_existing(ctx, node_id, new_component.values, conflicting),
            reason="CASE R-3 merge: existing tuple overwritten (VO-R)",
        )
        return
    # Plain key-changing replacement ("if we have a deletion followed by
    # an insertion, we perform a replacement instead").
    ctx.replace(
        node.relation,
        old_key,
        merge_with_existing(ctx, node_id, new_component.values, existing),
        reason=f"CASE R-3 key-changing replacement at {node_id!r} (VO-R)",
    )


# ---------------------------------------------------------------------------
# State I — inserting (outside the island)
# ---------------------------------------------------------------------------


def _insert_case(
    ctx: TranslationContext,
    node: TreeNode,
    old_component: ComponentTuple,
    new_component: ComponentTuple,
) -> None:
    node_id = node.node_id
    old_key = key_from_values(ctx, node_id, old_component.values)
    new_key = key_from_values(ctx, node_id, new_component.values)
    relation_policy = ctx.policy.for_relation(node.relation)
    if old_key == new_key:
        # CASE I-1: the keys match — treat with the R rules.
        if old_component.values == new_component.values:
            return
        existing = ctx.engine.get(node.relation, old_key)
        if existing is None:
            _added_component(ctx, node, new_component, in_island=False)
            return
        if projected_values_match(ctx, node_id, new_component.values, existing
        ):
            return
        _require_modify_and_replace(ctx, node, relation_policy)
        ctx.replace(
            node.relation,
            old_key,
            merge_with_existing(ctx, node_id, new_component.values, existing),
            reason=f"CASE I-1 nonkey replacement at node {node_id!r} (VO-R)",
        )
        return
    # Keys differ: the old tuple is simply no longer referenced; the new
    # one is brought into existence or reconciled.
    _added_component(ctx, node, new_component, in_island=False)


def _removed_component(
    ctx: TranslationContext,
    node: TreeNode,
    old_component: ComponentTuple,
    in_island: bool,
) -> None:
    """An old component tuple with no counterpart in the new instance."""
    if not in_island:
        return  # outside tuples survive; only the linkage changed
    key = key_from_values(ctx, node.node_id, old_component.values)
    if ctx.engine.get(node.relation, key) is not None:
        ctx.delete(
            node.relation,
            key,
            reason=(
                f"island component removed by replacement at node "
                f"{node.node_id!r} (VO-R)"
            ),
        )


def _added_component(
    ctx: TranslationContext,
    node: TreeNode,
    new_component: ComponentTuple,
    in_island: bool,
) -> None:
    """A new component tuple with no old counterpart (also CASES I-2/3/4)."""
    node_id = node.node_id
    key = key_from_values(ctx, node_id, new_component.values)
    existing = ctx.engine.get(node.relation, key)
    relation_policy = ctx.policy.for_relation(node.relation)
    if existing is None:
        # CASE I-2 (or an island component addition): insert.
        if not in_island and not (
            relation_policy.can_modify and relation_policy.can_insert
        ):
            raise UpdateRejectedError(
                f"replacement needs a new tuple in {node.relation!r} but "
                f"the translator does not allow insertions there",
                relation=node.relation,
            )
        ctx.insert(
            node.relation,
            ctx.complete(node_id, new_component.values),
            reason=f"CASE I-2 insertion at node {node_id!r} (VO-R)",
        )
    elif projected_values_match(ctx, node_id, new_component.values, existing):
        return  # CASE I-3: identical tuple already present.
    else:
        # CASE I-4: present with conflicting values — replacement.
        if not in_island:
            _require_modify_and_replace(ctx, node, relation_policy)
        ctx.replace(
            node.relation,
            key,
            merge_with_existing(ctx, node_id, new_component.values, existing),
            reason=f"CASE I-4 replacement at node {node_id!r} (VO-R)",
        )


def _require_modify_and_replace(
    ctx: TranslationContext, node: TreeNode, relation_policy
) -> None:
    if not (relation_policy.can_modify and relation_policy.can_replace_existing):
        raise UpdateRejectedError(
            f"replacement needs to modify an existing tuple of "
            f"{node.relation!r} but the translator prohibits it",
            relation=node.relation,
        )


# ===========================================================================
# Partial operations on one component
# ===========================================================================
#
# Partial update operations on a single component (node) of an object.
#
# The paper defines complete operations and notes that "the description of
# partial update operations for manipulating only a component of the view
# object (that is, a node in the object's tree of relations) can be found
# in [the thesis]". We implement the three node-local variants as special
# cases of the complete machinery:
#
# * **partial insertion** — add one component tuple under an existing
#   instance (e.g. record a new GRADE for a course): island nodes insert
#   with inherited key attributes propagated from the parent; outside
#   nodes follow the VO-CI cases;
# * **partial deletion** — remove one component tuple: island tuples are
#   deleted (with cascades and reference repair); peninsula tuples are
#   repaired per the deletion policy; other outside tuples only lose
#   their linkage, which for a direct reference edge means nullifying or
#   rejecting, since the base tuple itself must survive;
# * **partial update** — modify nonkey attributes of one component tuple
#   in place.
#
# Each function records into a :class:`TranslationContext`; the
# :class:`~repro.core.updates.translator.Translator` wrappers add the
# transaction boundary.

def _node_and_role(ctx: TranslationContext, node_id: str):
    node = ctx.view_object.node(node_id)
    if node.path is not None and len(node.path) > 1:
        raise LocalValidationError(
            f"partial updates are not defined on node {node_id!r}: its edge "
            f"collapses {len(node.path)} connections; update the "
            f"intermediate relations' object instead"
        )
    return node, ctx.analysis.role(node_id)


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
    node, role = _node_and_role(ctx, node_id)
    if node.path is None:
        raise LocalValidationError(
            "partial insertion at the pivot is a complete insertion; send "
            "a CompleteInsertion request"
        )
    values = _inherit_from_parent(ctx, instance, node_id, values)
    key = key_from_values(ctx, node_id, values)
    existing = ctx.engine.get(node.relation, key)
    relation_policy = ctx.policy.for_relation(node.relation)
    if existing is None:
        if role is not NodeRole.ISLAND and not (
            relation_policy.can_modify and relation_policy.can_insert
        ):
            raise UpdateRejectedError(
                f"partial insertion needs a new {node.relation!r} tuple but "
                f"the translator does not allow insertions there",
                relation=node.relation,
            )
        ctx.insert(
            node.relation,
            ctx.complete(node_id, values),
            reason=f"partial insertion at node {node_id!r}",
        )
    elif projected_values_match(ctx, node_id, values, existing):
        if role is NodeRole.ISLAND:
            raise UpdateRejectedError(
                f"partial insertion: identical tuple {key!r} already part "
                f"of the entity at {node_id!r}",
                relation=node.relation,
            )
    else:
        if role is NodeRole.ISLAND:
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
            merge_with_existing(ctx, node_id, values, existing),
            reason=f"partial insertion reconciliation at node {node_id!r}",
        )
    maintain_after_insertions(ctx)


def translate_partial_deletion(
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
    node, role = _node_and_role(ctx, node_id)
    if node.path is None:
        raise LocalValidationError(
            "partial deletion of the pivot is a complete deletion; send "
            "a CompleteDeletion request"
        )
    key = key_from_values(ctx, node_id, values)
    if role is NodeRole.ISLAND:
        ctx.delete(
            node.relation, key, reason=f"partial deletion at node {node_id!r}"
        )
        maintain_after_deletions(ctx)
        return
    # Outside the island, the base tuple survives; removing the component
    # means severing the linkage. For a forward-reference edge we nullify
    # the parent's connecting attributes; anything else is ambiguous.
    traversal = node.path.traversals[0]
    if traversal.forward and traversal.kind.value == "reference":
        parent = ctx.view_object.tree.node(node.parent_id)
        parent_schema = ctx.schema(parent.relation)
        pivot_key = instance.key
        existing = ctx.engine.get(parent.relation, pivot_key)
        if existing is None:
            raise UpdateRejectedError(
                f"partial deletion: parent tuple {pivot_key!r} missing",
                relation=parent.relation,
            )
        mapping = parent_schema.as_mapping(existing)
        for name in traversal.start_attributes:
            if not parent_schema.attribute(name).nullable:
                raise UpdateRejectedError(
                    f"partial deletion of {node_id!r} would nullify "
                    f"non-nullable attribute {parent.relation}.{name}",
                    relation=parent.relation,
                )
            mapping[name] = None
        ctx.replace(
            parent.relation,
            pivot_key,
            parent_schema.row_from_mapping(mapping),
            reason=f"sever reference to {node_id!r} (partial deletion)",
        )
        return
    raise UpdateRejectedError(
        f"partial deletion at node {node_id!r} is ambiguous: the component "
        f"is outside the dependency island and not a severable reference",
        relation=node.relation,
    )


def translate_partial_update(
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
    node, role = _node_and_role(ctx, node_id)
    old_key = key_from_values(ctx, node_id, old_values)
    new_key = key_from_values(ctx, node_id, new_values)
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
    if role is not NodeRole.ISLAND and not (
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
        merge_with_existing(ctx, node_id, new_values, existing),
        reason=f"partial update at node {node_id!r}",
    )
    maintain_after_insertions(ctx)


# ===========================================================================
# Step 4: global validation against the structural model
# ===========================================================================
#
# Step 4: global validation against the structural model.
#
# After the translation proper, the database must be returned to global
# consistency using the connection rules of Section 2:
#
# * **Deletions** propagate along outgoing ownership and subset
#   connections ("repeatedly, if necessary"), and every relation
#   referencing a deleted tuple is repaired according to the policy —
#   delete the referencing tuples, nullify their connecting attributes,
#   or prohibit (roll back). "Note that no further propagation is needed
#   outside of the referencing relations."
# * **Insertions** must find their owning / general / referenced tuples
#   along inverse ownership, inverse subset, and reference connections;
#   "if no tuple satisfying the suitable dependency is found, one such
#   tuple must be inserted, and the process must be applied recursively".
# * **Key replacements** in the dependency island propagate to owned and
#   subset tuples outside the object and retarget the foreign keys of all
#   referencing tuples.
#
# Everything works off the :class:`TranslationContext` work lists, so one
# pass handles whatever mixture of mutations an algorithm produced.

# ---------------------------------------------------------------------------
# Deletions
# ---------------------------------------------------------------------------


def maintain_after_deletions(ctx: TranslationContext) -> None:
    """Cascade deletions and repair references, to fixpoint.

    Resumable: re-running the pass only processes deletions recorded
    since the previous run (other passes may append more, e.g. a
    key-change collision dropping a stale tuple).
    """
    while ctx.deletion_cursor < len(ctx.deleted):
        relation, old_values = ctx.deleted[ctx.deletion_cursor]
        ctx.deletion_cursor += 1
        _cascade_children(ctx, relation, old_values)
        _repair_incoming_references(ctx, relation, old_values)


def _cascade_children(
    ctx: TranslationContext, relation: str, old_values: Tuple[Any, ...]
) -> None:
    """Delete owned and subset tuples of a deleted tuple."""
    for kind in (ConnectionKind.OWNERSHIP, ConnectionKind.SUBSET):
        for connection in ctx.graph.connections_from(relation, kind):
            schema = ctx.schema(relation)
            entry = schema.project(old_values, connection.source_attributes)
            dependents = ctx.engine.find_by(
                connection.target, connection.target_attributes, entry
            )
            child_schema = ctx.schema(connection.target)
            for values in dependents:
                ctx.delete(
                    connection.target,
                    child_schema.key_of(values),
                    reason=f"cascade {kind.value} via {connection.name}",
                )


def _repair_incoming_references(
    ctx: TranslationContext, relation: str, old_values: Tuple[Any, ...]
) -> None:
    """Fix tuples referencing a deleted tuple, per the policy."""
    for connection in ctx.graph.connections_to(
        relation, ConnectionKind.REFERENCE
    ):
        schema = ctx.schema(relation)
        entry = schema.project(old_values, connection.target_attributes)
        if any(v is None for v in entry):
            continue
        referencing = ctx.engine.find_by(
            connection.source, connection.source_attributes, entry
        )
        if not referencing:
            continue
        action = _resolve_repair(ctx, connection)
        source_schema = ctx.schema(connection.source)
        for values in referencing:
            key = source_schema.key_of(values)
            if action is ReferenceRepair.DELETE:
                ctx.delete(
                    connection.source,
                    key,
                    reason=f"referencing tuple repair via {connection.name}",
                )
            elif action is ReferenceRepair.NULLIFY:
                mapping = source_schema.as_mapping(values)
                for name in connection.source_attributes:
                    mapping[name] = None
                ctx.replace(
                    connection.source,
                    key,
                    source_schema.row_from_mapping(mapping),
                    reason=f"nullify foreign key via {connection.name}",
                )
            else:  # PROHIBIT
                raise UpdateRejectedError(
                    f"deletion of {relation!r} tuple is referenced by "
                    f"{connection.source!r} and the translator prohibits "
                    f"repairing that reference (connection "
                    f"{connection.name!r})",
                    relation=connection.source,
                )


def _resolve_repair(
    ctx: TranslationContext, connection: Connection
) -> ReferenceRepair:
    """Resolve AUTO to NULLIFY when legal, otherwise DELETE."""
    action = ctx.policy.for_relation(connection.source).on_reference_delete
    if action is not ReferenceRepair.AUTO:
        return action
    schema = ctx.schema(connection.source)
    nullable_nonkey = all(
        schema.attribute(name).nullable and not schema.is_key_attribute(name)
        for name in connection.source_attributes
    )
    return ReferenceRepair.NULLIFY if nullable_nonkey else ReferenceRepair.DELETE


# ---------------------------------------------------------------------------
# Insertions
# ---------------------------------------------------------------------------


def maintain_after_insertions(ctx: TranslationContext) -> None:
    """Insert missing owners / generals / referenced tuples, recursively.

    Also checks replaced tuples whose referencing attributes changed, and
    then the skeletons those checks inserted ("the process must be
    applied recursively"). Resumable like the deletion pass.
    """
    _drain_insertions(ctx)
    for relation, old_values, new_values in ctx.replaced:
        if _reference_attributes_changed(ctx, relation, old_values, new_values):
            _ensure_dependencies(ctx, relation, new_values)
    _drain_insertions(ctx)


def _drain_insertions(ctx: TranslationContext) -> None:
    while ctx.insertion_cursor < len(ctx.inserted):
        relation, values = ctx.inserted[ctx.insertion_cursor]
        ctx.insertion_cursor += 1
        _ensure_dependencies(ctx, relation, values)


def _reference_attributes_changed(
    ctx: TranslationContext,
    relation: str,
    old_values: Tuple[Any, ...],
    new_values: Tuple[Any, ...],
) -> bool:
    schema = ctx.schema(relation)
    for connection in ctx.graph.connections_from(
        relation, ConnectionKind.REFERENCE
    ):
        old_entry = schema.project(old_values, connection.source_attributes)
        new_entry = schema.project(new_values, connection.source_attributes)
        if old_entry != new_entry:
            return True
    # Ownership/subset target attributes sit in the key, so a key change
    # is caught by maintain_after_key_changes; references are the only
    # dependency insertions may break.
    return False


def _ensure_dependencies(
    ctx: TranslationContext, relation: str, values: Tuple[Any, ...]
) -> None:
    """Every inserted tuple needs its owner, general, and referenced
    tuples; insert skeletons where permitted."""
    schema = ctx.schema(relation)
    # Inverse ownership and inverse subset: this tuple is owned /
    # specialized, so the source-side tuple must exist.
    for kind in (ConnectionKind.OWNERSHIP, ConnectionKind.SUBSET):
        for connection in ctx.graph.connections_to(relation, kind):
            entry = schema.project(values, connection.target_attributes)
            if any(v is None for v in entry):
                continue
            existing = ctx.engine.find_by(
                connection.source, connection.source_attributes, entry
            )
            if not existing:
                _insert_skeleton(
                    ctx,
                    connection.source,
                    connection.source_attributes,
                    entry,
                    reason=(
                        f"missing {kind.value} parent via {connection.name}"
                    ),
                )
    # Forward references: the referenced tuple must exist.
    for connection in ctx.graph.connections_from(
        relation, ConnectionKind.REFERENCE
    ):
        entry = schema.project(values, connection.source_attributes)
        if any(v is None for v in entry):
            continue
        existing = ctx.engine.find_by(
            connection.target, connection.target_attributes, entry
        )
        if not existing:
            _insert_skeleton(
                ctx,
                connection.target,
                connection.target_attributes,
                entry,
                reason=f"missing referenced tuple via {connection.name}",
            )


def _insert_skeleton(
    ctx: TranslationContext,
    relation: str,
    attribute_names: Sequence[str],
    entry: Tuple[Any, ...],
    reason: str,
) -> None:
    """Insert a minimal tuple carrying ``entry``; recursion happens via
    the work list."""
    relation_policy = ctx.policy.for_relation(relation)
    if not (relation_policy.can_modify and relation_policy.can_insert):
        raise UpdateRejectedError(
            f"global integrity requires inserting into {relation!r} but the "
            f"translator does not allow insertions there",
            relation=relation,
        )
    schema = ctx.schema(relation)
    partial: Dict[str, Any] = dict(zip(attribute_names, entry))
    completed = ctx.policy.completer(relation, schema, partial)
    ctx.insert(
        relation,
        schema.row_from_mapping(completed),
        reason=reason,
    )


# ---------------------------------------------------------------------------
# Key changes
# ---------------------------------------------------------------------------


def maintain_after_key_changes(ctx: TranslationContext) -> None:
    """Propagate island key replacements outside the object.

    For each key change (R, old_key, new_key): retarget the foreign keys
    of all tuples referencing old_key, and rewrite the inherited key
    attributes of owned / subset tuples still carrying old values —
    which may change *their* keys, so the work list is run to fixpoint.
    """
    while ctx.key_change_cursor < len(ctx.key_changes):
        relation, old_key, new_key = ctx.key_changes[ctx.key_change_cursor]
        ctx.key_change_cursor += 1
        _retarget_references(ctx, relation, old_key, new_key)
        _propagate_key_to_dependents(ctx, relation, old_key, new_key)


def _retarget_references(
    ctx: TranslationContext,
    relation: str,
    old_key: Tuple[Any, ...],
    new_key: Tuple[Any, ...],
) -> None:
    schema = ctx.schema(relation)
    key_map = dict(zip(schema.key, old_key))
    new_map = dict(zip(schema.key, new_key))
    for connection in ctx.graph.connections_to(
        relation, ConnectionKind.REFERENCE
    ):
        # X2 = K(relation): build old/new entries in X2 order.
        old_entry = tuple(key_map[a] for a in connection.target_attributes)
        new_entry = tuple(new_map[a] for a in connection.target_attributes)
        referencing = ctx.engine.find_by(
            connection.source, connection.source_attributes, old_entry
        )
        if not referencing:
            continue
        if not ctx.policy.for_relation(connection.source).can_modify:
            raise UpdateRejectedError(
                f"key replacement in {relation!r} requires modifying "
                f"referencing relation {connection.source!r}, which the "
                f"translator prohibits",
                relation=connection.source,
            )
        source_schema = ctx.schema(connection.source)
        for values in referencing:
            key = source_schema.key_of(values)
            mapping = source_schema.as_mapping(values)
            mapping.update(zip(connection.source_attributes, new_entry))
            new_values = source_schema.row_from_mapping(mapping)
            target_key = source_schema.key_of(new_values)
            if target_key != key and ctx.engine.contains(
                connection.source, target_key
            ):
                # The retargeted tuple already exists (e.g. state I
                # inserted it from the new instance): drop the stale one.
                ctx.delete(
                    connection.source,
                    key,
                    reason=(
                        f"retarget via {connection.name} collided with an "
                        f"existing tuple; old reference dropped"
                    ),
                )
            else:
                ctx.replace(
                    connection.source,
                    key,
                    new_values,
                    reason=f"retarget foreign key via {connection.name}",
                )


def _propagate_key_to_dependents(
    ctx: TranslationContext,
    relation: str,
    old_key: Tuple[Any, ...],
    new_key: Tuple[Any, ...],
) -> None:
    schema = ctx.schema(relation)
    key_map = dict(zip(schema.key, old_key))
    new_map = dict(zip(schema.key, new_key))
    for kind in (ConnectionKind.OWNERSHIP, ConnectionKind.SUBSET):
        for connection in ctx.graph.connections_from(relation, kind):
            # X1 = K(relation): entries in X1 order.
            old_entry = tuple(
                key_map[a] for a in connection.source_attributes
            )
            new_entry = tuple(
                new_map[a] for a in connection.source_attributes
            )
            if old_entry == new_entry:
                continue
            dependents = ctx.engine.find_by(
                connection.target, connection.target_attributes, old_entry
            )
            child_schema = ctx.schema(connection.target)
            for values in dependents:
                key = child_schema.key_of(values)
                mapping = child_schema.as_mapping(values)
                mapping.update(
                    zip(connection.target_attributes, new_entry)
                )
                new_values = child_schema.row_from_mapping(mapping)
                target_key = child_schema.key_of(new_values)
                if target_key != key and ctx.engine.contains(
                    connection.target, target_key
                ):
                    ctx.delete(
                        connection.target,
                        key,
                        reason=(
                            f"inherited-key propagation via "
                            f"{connection.name} collided; stale tuple dropped"
                        ),
                    )
                else:
                    ctx.replace(
                        connection.target,
                        key,
                        new_values,
                        reason=(
                            f"propagate inherited key via {connection.name}"
                        ),
                    )


def maintain_all(ctx: TranslationContext) -> None:
    """Run the three maintenance passes to a joint fixpoint.

    Every pass runs at least once (the insertion pass also re-checks
    replaced tuples with changed references, even when the work lists
    are empty); then the loop continues while any pass produced work
    for another.
    """
    while True:
        maintain_after_deletions(ctx)
        maintain_after_key_changes(ctx)
        maintain_after_insertions(ctx)
        if (
            ctx.deletion_cursor >= len(ctx.deleted)
            and ctx.key_change_cursor >= len(ctx.key_changes)
            and ctx.insertion_cursor >= len(ctx.inserted)
        ):
            break


# ===========================================================================
# Context helpers only the interpreted walk uses
# ===========================================================================


def merge_with_existing(
    ctx: TranslationContext,
    node_id: str,
    values: Dict[str, Any],
    existing: Tuple[Any, ...],
) -> Tuple[Any, ...]:
    """Overlay projected attributes onto an existing full tuple."""
    node = ctx.view_object.node(node_id)
    schema = ctx.schema(node.relation)
    mapping = schema.as_mapping(existing)
    mapping.update(values)
    return schema.row_from_mapping(mapping)


def key_from_values(
    ctx: TranslationContext, node_id: str, values: Dict[str, Any]
) -> Tuple[Any, ...]:
    """Primary key from a projected tuple (projections retain keys)."""
    node = ctx.view_object.node(node_id)
    schema = ctx.schema(node.relation)
    try:
        return tuple(values[k] for k in schema.key)
    except KeyError as error:
        raise UpdateRejectedError(
            f"component tuple for {node_id!r} lacks key attribute "
            f"{error.args[0]!r}",
            relation=node.relation,
        ) from None


def projected_values_match(
    ctx: TranslationContext,
    node_id: str,
    values: Dict[str, Any],
    existing: Tuple[Any, ...],
) -> bool:
    """Does the database tuple agree on every projected attribute?"""
    node = ctx.view_object.node(node_id)
    schema = ctx.schema(node.relation)
    projection = ctx.view_object.projection(node_id)
    existing_map = schema.as_mapping(existing)
    return all(
        existing_map[name] == values.get(name)
        for name in projection.attributes
    )


# ===========================================================================
# Running the oracle in place of the compiled program
# ===========================================================================


def install(monkeypatch) -> None:
    """Route every translation through this module until ``monkeypatch``
    is undone: the program's ``run_*`` / ``maintain_*`` methods and the
    partial operations the translator dispatches to."""
    import repro.core.updates.translator as translator_module
    from repro.core.updates.compiled import CompiledProgram

    def drop_program(function):
        return lambda program, *args: function(*args)

    for name, function in (
        ("run_insertion", translate_complete_insertion),
        ("run_deletion", translate_complete_deletion),
        ("run_replacement", translate_replacement),
        ("maintain_after_deletions", maintain_after_deletions),
        ("maintain_after_insertions", maintain_after_insertions),
        ("maintain_after_key_changes", maintain_after_key_changes),
        ("maintain_all", maintain_all),
    ):
        monkeypatch.setattr(CompiledProgram, name, drop_program(function))
    for function in (
        translate_partial_insertion,
        translate_partial_deletion,
        translate_partial_update,
    ):
        monkeypatch.setattr(
            translator_module, function.__name__, drop_program(function)
        )


@contextlib.contextmanager
def installed():
    """:func:`install` for the length of a ``with`` block."""
    with pytest.MonkeyPatch.context() as patch:
        install(patch)
        yield
