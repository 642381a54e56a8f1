"""The update translator, compiled at definition time (§5, §6).

"Once the DBA has chosen the translator, users can specify updates
through the view object" — the translator is *fixed* when the object is
defined, so everything the Section 5 algorithms derive from the view
object, its dependency island and the structural schema is derived once,
here, and a :class:`CompiledProgram` is the only implementation of the
complete operations in ``src/``:

* **VO-CI** (:meth:`CompiledProgram.run_insertion`, §5.2) — per tuple
  of each projection, breadth-first: CASE 1, an identical tuple exists
  (reject inside the island, nothing outside); CASE 2, no tuple has the
  key (insert, extended by the policy's completer); CASE 3, the key
  exists with other values (reject inside the island, replace outside);
* **VO-CD** (:meth:`CompiledProgram.run_deletion`, §5.1) — delete the
  matching tuples of every island projection, pivot first; the deletion
  pass below repairs peninsulas, cascades and other references;
* **VO-R** (:meth:`CompiledProgram.run_replacement`, §5.3) — depth-first,
  state R inside the island (R-1 equal, R-2 same key, R-3 key change —
  or, the dialog permitting, delete-and-overwrite of an existing tuple)
  and state I outside (I-1 same key, I-2 insert, I-3 present, I-4
  conflicting: replace). It is delta-driven: one pass
  (:meth:`CompiledProgram._delta`) pairs the components of ``old`` and
  ``new`` (:func:`~repro.core.instance.align_siblings`: by key,
  leftovers in key order, Figure 4's components being sets) with step
  2 (each child's connecting attributes follow its new parent's)
  applied on the way and step 1 (the key disciplines) checked
  on those same pairs; the state machine then visits only the pairs that
  differ, so an edit costs the instance's size once (a dictionary
  comparison per tuple) plus work proportional to what changed;
* **global integrity** (``maintain_*``, step 4) — deletions cascade
  along ownership/subset and repair incoming references per policy;
  insertions get their missing owner, general and referenced tuples,
  recursively; key changes retarget references and rewrite inherited
  keys — to a joint fixpoint.

What is compiled:

* the projection tree is flattened into a BFS-ordered tuple of
  :class:`CompiledNode` records carrying the relation schema, key
  attribute names, projection ``(name, position)`` pairs, island
  membership, the connecting attribute pairs of a single-connection
  edge, a peninsula's key outside its foreign key, precomputed CASE
  reason strings, and child links;
* component tuples are flattened level-by-level in one O(tree) pass
  (:meth:`CompiledProgram._levels`) instead of per-node root walks;
* the global-integrity rules — cascade targets, incoming reference
  repairs (with the AUTO → NULLIFY/DELETE resolution precomputed from
  the schema), inverse ownership/subset parents, forward references,
  and key-change retarget/propagation — are pre-resolved into
  per-relation adjacency lists with attribute positions baked in;
* the ``null_completer`` + ``row_from_mapping`` tuple-building pair is
  fused into a single positional pass, :meth:`CompiledNode.complete_row`.

Where a row is validated: a row the program builds for an insertion is
checked in ``complete_row`` (where the walk's ``row_from_mapping``
raised, so the error surfaces at the same point) and once more at the
engine boundary, ``Engine._coerce_values``, which every backend runs
before it mutates; a replacement's merged row only there. Storage checks
nothing: ``MemoryEngine``'s ``Table`` takes the row as the boundary
passed it, and an overlay write the program proved (``ctx.insert`` given
the probed key, which takes ``insert_validated``) is checked when the
batch reaches the real engine. Same errors, same
messages (``RelationSchema.validate_row``).

The readable tree walk this replaced lives in
``tests/reference_translate.py`` as the oracle: the program must produce
**byte-identical** plans — identical operations and reason strings in
identical order, identical tracer span structure, identical rejection
messages (``tests/core/updates/test_compiled.py``). Policy questions are
answered through ``policy.for_relation`` at the same points as the walk
(the lazy insertion into ``policy.relations`` feeds the audit log's
policy answers and must not diverge) — with one exception by design: a
subtree VO-R skips is never asked about, where the walk, visiting an
equal pair outside the island, would create a default entry for a
relation the policy does not mention.

The one thing deliberately *not* frozen is the policy object itself:
callers may flip relation switches after construction, and the program
observes the change. What is frozen is the structure — tree, island,
schemas, connections — exactly the part the paper fixes at definition
time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

import repro.obs as obs
from repro.errors import (
    LocalValidationError,
    UnknownAttributeError,
    UpdateRejectedError,
)
from repro.core.dependency_island import IslandAnalysis, NodeRole
from repro.core.instance import (
    ComponentTuple,
    Instance,
    align_siblings,
    in_key_order,
)
from repro.core.updates.context import TranslationContext
from repro.core.updates.local_validation import (
    validate_deletion,
    validate_insertion,
    validate_replacement_request,
)
from repro.core.updates.policy import ReferenceRepair, null_completer
from repro.core.view_object import ViewObjectDefinition
from repro.relational.domains import DATE
from repro.relational.schema import tuple_getter
from repro.structural.connections import ConnectionKind

__all__ = ["CompiledProgram"]

# CASE R-3 merge reasons name no node; they are shared constants.
_R3_MERGE_DELETE = "CASE R-3 merge: old island tuple removed (VO-R)"
_R3_MERGE_REPLACE = "CASE R-3 merge: existing tuple overwritten (VO-R)"

_ABSENT = object()  # a connecting attribute the child tuple does not carry

# One aligned (old, new) pair the R/I walk must visit, with the deltas of
# its child lists; either side is None for a leftover without a partner.
_Delta = List[Tuple[Optional[ComponentTuple], Optional[ComponentTuple], Any]]


def _null_completed(relation: str, attr_plan, values: Dict[str, Any]) -> List[Any]:
    """``null_completer`` over a precomputed ``(name, nullable)`` plan:
    the given values in schema order, nulls for what was projected out."""
    row = []
    for name, nullable in attr_plan:
        if name in values:
            row.append(values[name])
        elif nullable:
            row.append(None)
        else:
            raise UpdateRejectedError(
                f"cannot extend view-object tuple for {relation!r}: "
                f"attribute {name!r} was projected out and is "
                f"not nullable (supply a completer)",
                relation=relation,
            )
    return row


class CompiledNode:
    """One projection-tree node, flattened for the translation hot path."""

    __slots__ = (
        "node_id",
        "relation",
        "schema",
        "key_names",
        "key_getter",
        "is_pivot",
        "in_island",
        "attr_plan",
        "positions",
        "proj_pairs",
        "key_has_dates",
        "children",
        "edge",
        "free_key",
        "reason_ci_insert",
        "reason_ci_replace",
        "reason_cd_delete",
        "reason_r2",
        "reason_r3_key",
        "reason_i1",
        "reason_i2",
        "reason_i4",
        "reason_removed",
    )

    def __init__(self, view_object: ViewObjectDefinition, node, role: NodeRole) -> None:
        node_id = node.node_id
        schema = view_object.graph.relation(node.relation)
        self.node_id = node_id
        self.relation = node.relation
        self.schema = schema
        self.key_names = tuple(schema.key)
        # A component's key from its attribute dict (KeyError if absent).
        self.key_getter = tuple_getter(self.key_names)
        self.is_pivot = node_id == view_object.pivot_node_id
        self.in_island = role is NodeRole.ISLAND
        self.attr_plan = tuple((a.name, a.nullable) for a in schema.attributes)
        self.positions = {a.name: i for i, a in enumerate(schema.attributes)}
        projection = view_object.projection(node_id)
        self.proj_pairs = tuple(
            (name, self.positions[name]) for name in projection.attributes
        )
        # A DATE key may need datetime->date narrowing (the engines do it
        # inside _coerce_key), so a write to it is never proved.
        self.key_has_dates = any(
            schema.attribute(name).domain == DATE for name in schema.key
        )
        self.children: Tuple["CompiledNode", ...] = ()
        # Step 2 follows single-connection edges only: (parent attribute,
        # own attribute) pairs. A composite edge (Figure 3) has none —
        # its intermediate relations are not part of the object, so it
        # is reconciled during global validation instead.
        hop = node.path.traversals[0] if node.path is not None else None
        self.edge: Tuple[Tuple[str, str], ...] = (
            tuple(zip(hop.start_attributes, hop.end_attributes))
            if hop is not None and len(node.path) == 1
            else ()
        )
        # A referencing peninsula's key outside the connecting (foreign
        # key) attributes, which the system itself rewrites when the
        # referenced island key changes; None on every other node.
        self.free_key: Optional[Tuple[str, ...]] = (
            tuple(a for a in schema.key if a not in hop.start_attributes)
            if role is NodeRole.PENINSULA
            else None
        )
        self.reason_ci_insert = f"CASE 2 insertion at node {node_id!r} (VO-CI)"
        self.reason_ci_replace = f"CASE 3 replacement at node {node_id!r} (VO-CI)"
        self.reason_cd_delete = f"island deletion at node {node_id!r} (VO-CD)"
        self.reason_r2 = f"CASE R-2 replacement at node {node_id!r} (VO-R)"
        self.reason_r3_key = (
            f"CASE R-3 key-changing replacement at {node_id!r} (VO-R)"
        )
        self.reason_i1 = f"CASE I-1 nonkey replacement at node {node_id!r} (VO-R)"
        self.reason_i2 = f"CASE I-2 insertion at node {node_id!r} (VO-R)"
        self.reason_i4 = f"CASE I-4 replacement at node {node_id!r} (VO-R)"
        self.reason_removed = (
            f"island component removed by replacement at node "
            f"{node_id!r} (VO-R)"
        )

    # -- fused per-component helpers ---------------------------------------

    def key_from(self, values: Dict[str, Any]) -> Tuple[Any, ...]:
        try:
            return self.key_getter(values)
        except KeyError as error:
            raise UpdateRejectedError(
                f"component tuple for {self.node_id!r} lacks key attribute "
                f"{error.args[0]!r}",
                relation=self.relation,
            ) from None

    def inherit(
        self, component: ComponentTuple, parent_values: Dict[str, Any]
    ) -> ComponentTuple:
        """Step 2 for one tuple: its connecting attributes follow the
        (new) parent's. A tuple that already agrees — the fixpoint — is
        returned as it came; otherwise a rewritten copy sharing its
        children, so the caller's instance is never touched."""
        values = component.values
        for start, end in self.edge:
            if values.get(end, _ABSENT) != parent_values.get(start):
                values = dict(values)
                for start, end in self.edge:
                    values[end] = parent_values.get(start)
                return ComponentTuple(self.node_id, values, component.children)
        return component

    def projected_match(
        self, values: Dict[str, Any], existing: Tuple[Any, ...]
    ) -> bool:
        get = values.get
        for name, position in self.proj_pairs:
            if existing[position] != get(name):
                return False
        return True

    def complete_row(
        self, ctx: TranslationContext, values: Dict[str, Any]
    ) -> Tuple[Any, ...]:
        """Fused ``ctx.complete``: completer fill + row build in one pass.

        Keeps the reference walk's error order exactly: a projected-out
        non-nullable attribute without a completer, then an unknown
        attribute name, then domain validation (``row_from_mapping``
        validates before the engine gets the row, so validating here
        keeps the raise point identical — and lets the fast insertion
        path skip the engine's redundant re-validation). Custom
        completers fall back to the generic path.
        """
        if ctx.policy.completer is not null_completer:
            return ctx.complete(self.node_id, values)
        row = _null_completed(self.relation, self.attr_plan, values)
        if not values.keys() <= self.positions.keys():
            for given in values:
                if given not in self.positions:
                    raise UnknownAttributeError(self.schema.name, given)
        return self.schema.validate_row(row)

    def merge_row(
        self, values: Dict[str, Any], existing: Tuple[Any, ...]
    ) -> Tuple[Any, ...]:
        """Fused ``ctx.merge_with_existing``: positional overlay."""
        row = list(existing)
        positions = self.positions
        for given, value in values.items():
            position = positions.get(given)
            if position is None:
                raise UnknownAttributeError(self.schema.name, given)
            row[position] = value
        return tuple(row)


class _Skeleton:
    """Precomputed skeleton-insertion plan for one relation."""

    __slots__ = ("relation", "schema", "attr_plan", "prohibit_msg")

    def __init__(self, relation: str, schema) -> None:
        self.relation = relation
        self.schema = schema
        self.attr_plan = tuple((a.name, a.nullable) for a in schema.attributes)
        self.prohibit_msg = (
            f"global integrity requires inserting into {relation!r} but the "
            f"translator does not allow insertions there"
        )


class _RelationRules:
    """Pre-resolved global-integrity adjacency of one relation."""

    __slots__ = (
        "cascade",
        "incoming_refs",
        "dependencies",
        "ref_change",
        "retarget",
        "propagate",
    )

    def __init__(self, graph, relation: str, skeletons: Dict[str, _Skeleton]) -> None:
        schema = graph.relation(relation)

        def skeleton(name: str) -> _Skeleton:
            record = skeletons.get(name)
            if record is None:
                record = skeletons[name] = _Skeleton(name, graph.relation(name))
            return record

        # Outgoing ownership/subset: delete cascades (kind order matters).
        cascade = []
        for kind in (ConnectionKind.OWNERSHIP, ConnectionKind.SUBSET):
            for connection in graph.connections_from(relation, kind):
                cascade.append(
                    (
                        connection.target,
                        connection.target_attributes,
                        tuple_getter(schema.positions(connection.source_attributes)),
                        graph.relation(connection.target).key_of,
                        f"cascade {kind.value} via {connection.name}",
                    )
                )
        self.cascade = tuple(cascade)

        # Incoming references: deletion repair per the policy, with the
        # AUTO resolution (nullable nonkey connecting attributes?)
        # precomputed from the referencing schema.
        incoming = []
        for connection in graph.connections_to(relation, ConnectionKind.REFERENCE):
            source_schema = graph.relation(connection.source)
            incoming.append(
                (
                    connection.source,
                    connection.source_attributes,
                    tuple_getter(schema.positions(connection.target_attributes)),
                    source_schema.key_of,
                    source_schema.positions(connection.source_attributes),
                    all(
                        source_schema.attribute(name).nullable
                        and not source_schema.is_key_attribute(name)
                        for name in connection.source_attributes
                    ),
                    f"referencing tuple repair via {connection.name}",
                    f"nullify foreign key via {connection.name}",
                    (
                        f"deletion of {relation!r} tuple is referenced by "
                        f"{connection.source!r} and the translator prohibits "
                        f"repairing that reference (connection "
                        f"{connection.name!r})"
                    ),
                )
            )
        self.incoming_refs = tuple(incoming)

        # What every inserted tuple needs to find (or gets a skeleton
        # of): along inverse ownership/subset its owner or general
        # tuple, then along forward references the referenced tuple.
        # A probe whose attribute list IS the probed relation's primary
        # key (in key order) degenerates from find_by to an existence
        # get: same truth value, but memoized O(1) instead of an overlay
        # scan. Ownership parents always qualify; references usually do.
        def probes_by_key(name: str, attrs) -> bool:
            return tuple(attrs) == tuple(graph.relation(name).key)

        dependencies = []
        for kind in (ConnectionKind.OWNERSHIP, ConnectionKind.SUBSET):
            for connection in graph.connections_to(relation, kind):
                dependencies.append(
                    (
                        connection.source,
                        connection.source_attributes,
                        tuple_getter(schema.positions(connection.target_attributes)),
                        skeleton(connection.source),
                        f"missing {kind.value} parent via {connection.name}",
                        probes_by_key(
                            connection.source, connection.source_attributes
                        ),
                    )
                )
        ref_change = []
        for connection in graph.connections_from(relation, ConnectionKind.REFERENCE):
            entry_of = tuple_getter(schema.positions(connection.source_attributes))
            dependencies.append(
                (
                    connection.target,
                    connection.target_attributes,
                    entry_of,
                    skeleton(connection.target),
                    f"missing referenced tuple via {connection.name}",
                    probes_by_key(
                        connection.target, connection.target_attributes
                    ),
                )
            )
            ref_change.append(entry_of)
        self.dependencies = tuple(dependencies)
        self.ref_change = tuple(ref_change)

        # Key changes: retarget incoming references, propagate inherited
        # keys to owned/subset dependents. Entries are built straight
        # from the old/new key tuples by getters over key-index positions.
        key_index = {name: i for i, name in enumerate(schema.key)}
        retarget = []
        for connection in graph.connections_to(relation, ConnectionKind.REFERENCE):
            source_schema = graph.relation(connection.source)
            retarget.append(
                (
                    connection.source,
                    connection.source_attributes,
                    tuple_getter([key_index[a] for a in connection.target_attributes]),
                    source_schema.key_of,
                    source_schema.positions(connection.source_attributes),
                    (
                        f"key replacement in {relation!r} requires modifying "
                        f"referencing relation {connection.source!r}, which "
                        f"the translator prohibits"
                    ),
                    (
                        f"retarget via {connection.name} collided with an "
                        f"existing tuple; old reference dropped"
                    ),
                    f"retarget foreign key via {connection.name}",
                )
            )
        self.retarget = tuple(retarget)

        propagate = []
        for kind in (ConnectionKind.OWNERSHIP, ConnectionKind.SUBSET):
            for connection in graph.connections_from(relation, kind):
                child_schema = graph.relation(connection.target)
                propagate.append(
                    (
                        connection.target,
                        connection.target_attributes,
                        tuple_getter(
                            [key_index[a] for a in connection.source_attributes]
                        ),
                        child_schema.key_of,
                        child_schema.positions(connection.target_attributes),
                        (
                            f"inherited-key propagation via "
                            f"{connection.name} collided; stale tuple dropped"
                        ),
                        f"propagate inherited key via {connection.name}",
                    )
                )
        self.propagate = tuple(propagate)


class CompiledProgram:
    """The fixed translator of one view object, specialized per node.

    Everything derivable from the view object, the island analysis, and
    the structural schema is computed once here; ``run_*`` then execute
    the paper's algorithms over the precomputed records. Built once by
    :class:`~repro.core.updates.translator.Translator` and shared by
    reference across its ``for_user`` copies; read-only after
    construction, so concurrent translations need no lock.
    """

    def __init__(
        self, view_object: ViewObjectDefinition, analysis: IslandAnalysis
    ) -> None:
        self.view_object = view_object
        self.analysis = analysis
        graph = view_object.graph
        order = list(view_object.tree.bfs())
        nodes: Dict[str, CompiledNode] = {}
        for node in order:
            nodes[node.node_id] = CompiledNode(
                view_object, node, analysis.role(node.node_id)
            )
        for node in order:
            nodes[node.node_id].children = tuple(
                nodes[child_id] for child_id in node.children
            )
        self.nodes = nodes
        self.nodes_bfs: Tuple[CompiledNode, ...] = tuple(
            nodes[node.node_id] for node in order
        )
        self.root = nodes[view_object.tree.root.node_id]
        # (node, parent_id) pairs driving the one-pass level flattening.
        self._level_steps = tuple(
            (nodes[node.node_id], node.parent_id)
            for node in order
            if node.parent_id is not None
        )
        self.island_bfs: Tuple[CompiledNode, ...] = tuple(
            nodes[node_id] for node_id in analysis.island_nodes
        )
        island_ids = {cn.node_id for cn in self.island_bfs}
        self._island_level_steps = tuple(
            (cn, parent_id)
            for cn, parent_id in self._level_steps
            if cn.node_id in island_ids
        )
        skeletons: Dict[str, _Skeleton] = {}
        self.rules: Dict[str, _RelationRules] = {
            name: _RelationRules(graph, name, skeletons)
            for name in graph.relation_names
        }

    # -- instance flattening -----------------------------------------------

    def _levels(
        self, instance: Instance, island_only: bool = False
    ) -> Dict[str, List[ComponentTuple]]:
        """Components per node, flattened top-down in one O(tree) pass.

        Produces exactly ``instance.tuples_at(node_id)`` for every node
        — or every island node (island parents are always island nodes,
        so the prefix is closed) — without re-walking the root path per
        node.
        """
        levels: Dict[str, List[ComponentTuple]] = {
            self.root.node_id: [instance.root]
        }
        steps = self._island_level_steps if island_only else self._level_steps
        for cn, parent_id in steps:
            flat: List[ComponentTuple] = []
            node_id = cn.node_id
            for component in levels[parent_id]:
                children = component.children.get(node_id)
                if children:
                    flat.extend(children)
            levels[node_id] = flat
        return levels

    # -- VO-CI --------------------------------------------------------------

    def run_insertion(self, ctx: TranslationContext, instance: Instance) -> None:
        """Algorithm VO-CI; mutations are recorded in ``ctx``."""
        with obs.tracer().span("validate", algorithm="VO-CI"):
            validate_insertion(ctx, instance)
        with obs.tracer().span("propagate", algorithm="VO-CI") as span:
            self._propagate_insertion(ctx, instance)
            span.set(ops=len(ctx.plan))

    def _propagate_insertion(
        self, ctx: TranslationContext, instance: Instance
    ) -> None:
        engine = ctx.engine
        policy = ctx.policy
        levels = self._levels(instance)
        # A CASE-2 insert is proved: the probe above the branch just
        # found the key absent and complete_row validated the row. Only
        # with the null completer (a custom one may rewrite key
        # attributes) and a key needing no datetime narrowing.
        proves = policy.completer is null_completer
        for cn in self.nodes_bfs:
            relation = cn.relation
            in_island = cn.in_island
            relation_policy = policy.for_relation(relation)
            proved = proves and not cn.key_has_dates
            for component in levels[cn.node_id]:
                values = component.values
                key = cn.key_from(values)
                existing = engine.get(relation, key)
                if existing is None:
                    # CASE 2: the new tuple matches no existing key.
                    if not in_island and not (
                        relation_policy.can_modify and relation_policy.can_insert
                    ):
                        raise UpdateRejectedError(
                            f"insertion needs a new tuple in {relation!r} "
                            f"but the translator does not allow insertions "
                            f"there",
                            relation=relation,
                        )
                    ctx.insert(
                        relation,
                        cn.complete_row(ctx, values),
                        cn.reason_ci_insert,
                        key if proved else None,
                    )
                elif cn.projected_match(values, existing):
                    # CASE 1: an identical tuple already exists.
                    if in_island:
                        raise UpdateRejectedError(
                            f"complete insertion rejected: identical tuple "
                            f"{key!r} already exists in island relation "
                            f"{relation!r} (CASE 1)",
                            relation=relation,
                        )
                else:
                    # CASE 3: key matches, nonkey values conflict.
                    if in_island:
                        raise UpdateRejectedError(
                            f"complete insertion rejected: tuple {key!r} "
                            f"exists in island relation {relation!r} with "
                            f"different values (CASE 3)",
                            relation=relation,
                        )
                    if not (
                        relation_policy.can_modify
                        and relation_policy.can_replace_existing
                    ):
                        raise UpdateRejectedError(
                            f"insertion needs to modify an existing tuple of "
                            f"{relation!r} but the translator prohibits it",
                            relation=relation,
                        )
                    ctx.replace(
                        relation,
                        key,
                        cn.merge_row(values, existing),
                        cn.reason_ci_replace,
                        existing,
                    )
        self.maintain_after_insertions(ctx)

    # -- VO-CD --------------------------------------------------------------

    def run_deletion(self, ctx: TranslationContext, instance: Instance) -> None:
        """Algorithm VO-CD; mutations are recorded in ``ctx``."""
        with obs.tracer().span("validate", algorithm="VO-CD"):
            validate_deletion(ctx, instance)
        with obs.tracer().span("propagate", algorithm="VO-CD") as span:
            self._propagate_deletion(ctx, instance)
            span.set(ops=len(ctx.plan))

    def _propagate_deletion(
        self, ctx: TranslationContext, instance: Instance
    ) -> None:
        engine = ctx.engine
        levels = self._levels(instance, island_only=True)
        for cn in self.island_bfs:
            relation = cn.relation
            # The existence probe just returned the row: a delete is
            # proved where the key needs no datetime narrowing (the probe
            # coerces, the overlay must see the same key).
            proved = not cn.key_has_dates
            for component in levels[cn.node_id]:
                key = cn.key_from(component.values)
                old = engine.get(relation, key)
                if old is None:
                    if cn.is_pivot:
                        raise UpdateRejectedError(
                            f"complete deletion: pivot tuple {key!r} of "
                            f"{relation!r} does not exist",
                            relation=relation,
                        )
                    # A non-pivot island tuple may already be gone (stale
                    # instance); the cascade would have removed it anyway.
                    continue
                ctx.delete(relation, key, cn.reason_cd_delete, old, proved)
        self.maintain_after_deletions(ctx)

    # -- VO-R ---------------------------------------------------------------

    def run_replacement(
        self, ctx: TranslationContext, old: Instance, new: Instance
    ) -> None:
        """Algorithm VO-R; mutations are recorded in ``ctx``."""
        with obs.tracer().span("validate", algorithm="VO-R"):
            delta = self.replacement_delta(ctx, old, new)
        with obs.tracer().span("propagate", algorithm="VO-R") as span:
            self._walk(ctx, self.root, delta)
            self.maintain_all(ctx)
            span.set(ops=len(ctx.plan))

    def replacement_delta(
        self, ctx: TranslationContext, old: Instance, new: Instance
    ) -> _Delta:
        """Steps 1 and 2 of a replacement: what is left for step 3."""
        validate_replacement_request(ctx, old, new)
        return self._delta(ctx, self.root, (old.root,), (new.root,), None)

    def _delta(
        self,
        ctx: TranslationContext,
        cn: CompiledNode,
        olds,
        news,
        parent_values: Optional[Dict[str, Any]],
    ) -> _Delta:
        """Align one sibling list with :func:`align_siblings` — by key
        after step 2 (each new tuple's connecting attributes follow its
        parent), leftovers in key order — check the key disciplines of
        every pair whose key the user may have changed (step 1), and
        return the pairs step 3 has to visit, in key order.

        A pair is dropped, subtree and all, when the new tuple equals its
        partner and every list below it came back empty: R-1 there, and
        I-1 with equal values, emit nothing and probe nothing. Outside
        the island a list the new instance does not carry is dropped
        unread — those tuples survive, only the linkage went.
        """
        if not news and not (olds and cn.in_island):
            return []
        key_from = cn.key_from
        old_keys = [key_from(old.values) for old in olds]
        sent = []  # (new as sent, new after step 2)
        new_keys = []
        for raw in news:
            new = cn.inherit(raw, parent_values) if cn.edge else raw
            sent.append((raw, new))
            new_keys.append(key_from(new.values))
        pairs, matched = align_siblings(olds, old_keys, sent, new_keys)
        delta: _Delta = []
        for index, (old, pair) in enumerate(pairs):
            raw, new = pair or (None, None)
            if old is None:
                delta.append((None, self.propagated(cn, new, parent_values), ()))
            elif new is None:
                if cn.in_island:
                    delta.append((old, None, ()))
            else:
                # A pair matched on the key it was sent with kept its key.
                if index >= matched or new is not raw:
                    self._check_key_discipline(ctx, cn, old.values, raw.values)
                below = []
                for child in cn.children:
                    child_delta = self._delta(
                        ctx,
                        child,
                        old.children.get(child.node_id, ()),
                        new.children.get(child.node_id, ()),
                        new.values,
                    )
                    if child_delta:
                        below.append((child, child_delta))
                if below or old.values != new.values:
                    delta.append((old, new, below))
        return delta

    @staticmethod
    def _check_key_discipline(
        ctx: TranslationContext,
        cn: CompiledNode,
        old_values: Dict[str, Any],
        new_values: Dict[str, Any],
    ) -> None:
        """Section 5.3's key-replacement rules for one pair, on the key
        the user sent (``new_values`` before step 2)."""
        if not cn.in_island and cn.free_key is None:
            return
        try:
            new_key = cn.key_getter(new_values)
        except KeyError:
            return  # step 2 supplies it: not a change the user made
        old_key = cn.key_from(old_values)
        if old_key == new_key:
            return
        if cn.in_island:
            if not ctx.policy.for_relation(cn.relation).allow_key_replacement:
                raise LocalValidationError(
                    f"replacement changes the key of island relation "
                    f"{cn.relation!r} ({old_key!r} -> {new_key!r}) but the "
                    f"translator prohibits key modification there"
                )
        elif any(old_values.get(a) != new_values.get(a) for a in cn.free_key):
            raise LocalValidationError(
                f"replacement changes the key of referencing peninsula "
                f"{cn.relation!r}; such replacements are inherently "
                f"ambiguous and prohibited"
            )

    def propagated(
        self,
        cn: CompiledNode,
        component: ComponentTuple,
        parent_values: Optional[Dict[str, Any]] = None,
    ) -> ComponentTuple:
        """Step 2 for a whole subtree (a component the replacement adds).

        Section 5.3: "a change to A_j has to be propagated down to R_j's
        children in the dependency island". Every single-connection edge
        propagates alike — an island child's inherited key, a
        peninsula's system-maintained foreign key, a referenced
        relation's connecting attributes. A composite multi-connection
        edge (Figure 3) cannot be propagated at instance level; global
        validation reconciles it."""
        component = cn.inherit(component, parent_values)
        return ComponentTuple(
            cn.node_id,
            component.values,
            {
                child.node_id: [
                    self.propagated(child, below, component.values)
                    for below in component.children.get(child.node_id, ())
                ]
                for child in cn.children
            },
        )

    def _walk(self, ctx: TranslationContext, cn: CompiledNode, delta: _Delta) -> None:
        """Step 3, depth-first over the pairs step 1 and 2 left."""
        case = self._replace_case if cn.in_island else self._insert_case
        for old, new, below in delta:
            if new is None:
                self._walk_removed(ctx, cn, (old,))
            elif old is None:
                self._walk_added(ctx, cn, (new,))
            else:
                case(ctx, cn, old, new)
                for child, child_delta in below:
                    self._walk(ctx, child, child_delta)

    def _walk_removed(self, ctx: TranslationContext, cn: CompiledNode, olds) -> None:
        """Island tuples with no counterpart in the new instance go, and
        the island below them; outside tuples survive a lost linkage."""
        relation = cn.relation
        olds, keys = in_key_order(olds, [cn.key_from(old.values) for old in olds])
        for key, old in zip(keys, olds):
            existing = ctx.engine.get(relation, key)
            if existing is not None:
                ctx.delete(relation, key, cn.reason_removed, existing)
            for child in cn.children:
                if child.in_island:
                    self._walk_removed(
                        ctx, child, old.children.get(child.node_id, ())
                    )

    def _walk_added(self, ctx: TranslationContext, cn: CompiledNode, news) -> None:
        """New tuples with no old counterpart, and everything below."""
        # A keyless sibling rejects the list first.
        news, _ = in_key_order(news, [cn.key_from(new.values) for new in news])
        for new in news:
            self._added_component(ctx, cn, new, cn.in_island)
            for child in cn.children:
                self._walk_added(ctx, child, new.children.get(child.node_id, ()))

    def _replace_case(
        self,
        ctx: TranslationContext,
        cn: CompiledNode,
        old_component: ComponentTuple,
        new_component: ComponentTuple,
    ) -> None:
        if old_component.values == new_component.values:
            return  # CASE R-1: the projections match exactly.
        relation = cn.relation
        old_key = cn.key_from(old_component.values)
        new_key = cn.key_from(new_component.values)
        existing = ctx.engine.get(relation, old_key)
        if existing is None:
            raise UpdateRejectedError(
                f"replacement: island tuple {old_key!r} of {relation!r} "
                f"no longer exists",
                relation=relation,
            )
        if old_key == new_key:
            # CASE R-2: the projections differ but the keys match.
            ctx.replace(
                relation,
                old_key,
                cn.merge_row(new_component.values, existing),
                cn.reason_r2,
                existing,
            )
            return
        # CASE R-3: the projections differ and the keys differ.
        relation_policy = ctx.policy.for_relation(relation)
        if not relation_policy.allow_db_key_replacement:
            raise UpdateRejectedError(
                f"replacement changes the database key of {relation!r} "
                f"({old_key!r} -> {new_key!r}) but the translator prohibits "
                f"replacing database keys",
                relation=relation,
            )
        conflicting = ctx.engine.get(relation, new_key)
        if conflicting is not None:
            if not relation_policy.allow_merge_on_key_conflict:
                raise UpdateRejectedError(
                    f"replacement would delete {relation!r} tuple "
                    f"{old_key!r} and overwrite existing tuple {new_key!r}; "
                    f"the translator prohibits this merge",
                    relation=relation,
                )
            ctx.delete(relation, old_key, _R3_MERGE_DELETE, existing)
            ctx.replace(
                relation,
                new_key,
                cn.merge_row(new_component.values, conflicting),
                _R3_MERGE_REPLACE,
                conflicting,
            )
            return
        ctx.replace(
            relation,
            old_key,
            cn.merge_row(new_component.values, existing),
            cn.reason_r3_key,
            existing,
        )

    def _insert_case(
        self,
        ctx: TranslationContext,
        cn: CompiledNode,
        old_component: ComponentTuple,
        new_component: ComponentTuple,
    ) -> None:
        relation = cn.relation
        old_key = cn.key_from(old_component.values)
        new_key = cn.key_from(new_component.values)
        relation_policy = ctx.policy.for_relation(relation)
        if old_key == new_key:
            # CASE I-1: the keys match — treat with the R rules.
            if old_component.values == new_component.values:
                return
            existing = ctx.engine.get(relation, old_key)
            if existing is None:
                self._added_component(ctx, cn, new_component, in_island=False)
                return
            if cn.projected_match(new_component.values, existing):
                return
            self._require_modify_and_replace(cn, relation_policy)
            ctx.replace(
                relation,
                old_key,
                cn.merge_row(new_component.values, existing),
                cn.reason_i1,
                existing,
            )
            return
        self._added_component(ctx, cn, new_component, in_island=False)

    def _added_component(
        self,
        ctx: TranslationContext,
        cn: CompiledNode,
        new_component: ComponentTuple,
        in_island: bool,
    ) -> None:
        relation = cn.relation
        key = cn.key_from(new_component.values)
        existing = ctx.engine.get(relation, key)
        relation_policy = ctx.policy.for_relation(relation)
        if existing is None:
            # CASE I-2 (or an island component addition): insert.
            if not in_island and not (
                relation_policy.can_modify and relation_policy.can_insert
            ):
                raise UpdateRejectedError(
                    f"replacement needs a new tuple in {relation!r} but "
                    f"the translator does not allow insertions there",
                    relation=relation,
                )
            ctx.insert(
                relation,
                cn.complete_row(ctx, new_component.values),
                cn.reason_i2,
            )
        elif cn.projected_match(new_component.values, existing):
            return  # CASE I-3: identical tuple already present.
        else:
            # CASE I-4: present with conflicting values — replacement.
            if not in_island:
                self._require_modify_and_replace(cn, relation_policy)
            ctx.replace(
                relation,
                key,
                cn.merge_row(new_component.values, existing),
                cn.reason_i4,
                existing,
            )

    @staticmethod
    def _require_modify_and_replace(cn: CompiledNode, relation_policy) -> None:
        if not (relation_policy.can_modify and relation_policy.can_replace_existing):
            raise UpdateRejectedError(
                f"replacement needs to modify an existing tuple of "
                f"{cn.relation!r} but the translator prohibits it",
                relation=cn.relation,
            )

    # -- global integrity (pre-resolved rules) -------------------------------

    def maintain_after_deletions(self, ctx: TranslationContext) -> None:
        """Cascade deletions and repair incoming references, to fixpoint.
        Resumable: only deletions recorded since the last run are seen."""
        engine = ctx.engine
        deleted = ctx.deleted
        while ctx.deletion_cursor < len(deleted):
            relation, old_values = deleted[ctx.deletion_cursor]
            ctx.deletion_cursor += 1
            rules = self.rules[relation]
            for target, names, entry_of, key_of, reason in rules.cascade:
                for values in engine.find_by(target, names, entry_of(old_values)):
                    ctx.delete(target, key_of(values), reason, values)
            for (
                source,
                names,
                entry_of,
                key_of,
                source_positions,
                auto_nullify,
                reason_delete,
                reason_nullify,
                prohibit_msg,
            ) in rules.incoming_refs:
                entry = entry_of(old_values)
                if None in entry:
                    continue
                referencing = engine.find_by(source, names, entry)
                if not referencing:
                    continue
                action = ctx.policy.for_relation(source).on_reference_delete
                if action is ReferenceRepair.AUTO:
                    action = (
                        ReferenceRepair.NULLIFY
                        if auto_nullify
                        else ReferenceRepair.DELETE
                    )
                for values in referencing:
                    key = key_of(values)
                    if action is ReferenceRepair.DELETE:
                        ctx.delete(source, key, reason_delete, values)
                    elif action is ReferenceRepair.NULLIFY:
                        row = list(values)
                        for p in source_positions:
                            row[p] = None
                        ctx.replace(source, key, tuple(row), reason_nullify, values)
                    else:  # PROHIBIT
                        raise UpdateRejectedError(prohibit_msg, relation=source)

    def maintain_after_insertions(self, ctx: TranslationContext) -> None:
        """Insert missing owner / general / referenced tuples, recursively,
        for every inserted tuple and every replaced tuple whose referencing
        attributes changed — the skeletons a replaced tuple needs get
        theirs too, so the pass ends with nothing new to insert.

        A dependency found (or supplied) once is not probed again within
        one call: nothing is deleted inside it, so it stays present."""
        proven: Set[Tuple[str, Tuple[str, ...], Tuple[Any, ...]]] = set()
        self._drain_insertions(ctx, proven)
        for relation, old_values, new_values in ctx.replaced:
            rules = self.rules[relation]
            for entry_of in rules.ref_change:
                if entry_of(old_values) != entry_of(new_values):
                    self._ensure_dependencies(ctx, rules, new_values, proven)
                    break
        self._drain_insertions(ctx, proven)

    def _drain_insertions(
        self,
        ctx: TranslationContext,
        proven: Set[Tuple[str, Tuple[str, ...], Tuple[Any, ...]]],
    ) -> None:
        inserted = ctx.inserted
        while ctx.insertion_cursor < len(inserted):
            relation, values = inserted[ctx.insertion_cursor]
            ctx.insertion_cursor += 1
            self._ensure_dependencies(ctx, self.rules[relation], values, proven)

    def _ensure_dependencies(
        self,
        ctx: TranslationContext,
        rules: _RelationRules,
        values: Tuple[Any, ...],
        proven: Set[Tuple[str, Tuple[str, ...], Tuple[Any, ...]]],
    ) -> None:
        engine = ctx.engine
        for target, names, entry_of, skel, reason, by_key in rules.dependencies:
            entry = entry_of(values)
            if None in entry:
                continue
            probe = (target, names, entry)
            if probe in proven:
                continue
            proven.add(probe)
            if by_key:
                if engine.get(target, entry) is None:
                    self._insert_skeleton(ctx, skel, names, entry, reason)
            elif not engine.find_by(target, names, entry):
                self._insert_skeleton(ctx, skel, names, entry, reason)

    @staticmethod
    def _insert_skeleton(
        ctx: TranslationContext,
        skel: _Skeleton,
        attribute_names,
        entry: Tuple[Any, ...],
        reason: str,
    ) -> None:
        relation = skel.relation
        relation_policy = ctx.policy.for_relation(relation)
        if not (relation_policy.can_modify and relation_policy.can_insert):
            raise UpdateRejectedError(skel.prohibit_msg, relation=relation)
        given = dict(zip(attribute_names, entry))
        completer = ctx.policy.completer
        if completer is null_completer:
            row = tuple(_null_completed(relation, skel.attr_plan, given))
        else:
            row = skel.schema.row_from_mapping(completer(relation, skel.schema, given))
        ctx.insert(relation, row, reason)

    def maintain_after_key_changes(self, ctx: TranslationContext) -> None:
        """Retarget references to a changed key and rewrite the inherited
        keys of owned / subset tuples — which may change *their* keys."""
        engine = ctx.engine
        key_changes = ctx.key_changes
        while ctx.key_change_cursor < len(key_changes):
            relation, old_key, new_key = key_changes[ctx.key_change_cursor]
            ctx.key_change_cursor += 1
            rules = self.rules[relation]
            for (
                source,
                names,
                entry_of,
                key_of,
                source_positions,
                prohibit_msg,
                reason_collide,
                reason_replace,
            ) in rules.retarget:
                old_entry = entry_of(old_key)
                new_entry = entry_of(new_key)
                referencing = engine.find_by(source, names, old_entry)
                if not referencing:
                    continue
                if not ctx.policy.for_relation(source).can_modify:
                    raise UpdateRejectedError(prohibit_msg, relation=source)
                for values in referencing:
                    key = key_of(values)
                    row = list(values)
                    for p, v in zip(source_positions, new_entry):
                        row[p] = v
                    new_values = tuple(row)
                    target_key = key_of(new_values)
                    if target_key != key and engine.contains(source, target_key):
                        ctx.delete(source, key, reason_collide, values)
                    else:
                        ctx.replace(source, key, new_values, reason_replace, values)
            for (
                target,
                names,
                entry_of,
                key_of,
                target_positions,
                reason_collide,
                reason_replace,
            ) in rules.propagate:
                old_entry = entry_of(old_key)
                new_entry = entry_of(new_key)
                if old_entry == new_entry:
                    continue
                for values in engine.find_by(target, names, old_entry):
                    key = key_of(values)
                    row = list(values)
                    for p, v in zip(target_positions, new_entry):
                        row[p] = v
                    new_values = tuple(row)
                    target_key = key_of(new_values)
                    if target_key != key and engine.contains(target, target_key):
                        ctx.delete(target, key, reason_collide, values)
                    else:
                        ctx.replace(target, key, new_values, reason_replace, values)

    def maintain_all(self, ctx: TranslationContext) -> None:
        """The three passes to a joint fixpoint; each runs at least once
        (a key-change collision may drop tuples the deletion pass must
        then cascade from)."""
        while True:
            self.maintain_after_deletions(ctx)
            self.maintain_after_key_changes(ctx)
            self.maintain_after_insertions(ctx)
            if (
                ctx.deletion_cursor >= len(ctx.deleted)
                and ctx.key_change_cursor >= len(ctx.key_changes)
                and ctx.insertion_cursor >= len(ctx.inserted)
            ):
                break

    # -- engine preparation and introspection --------------------------------

    def prepare_engine(self, engine) -> None:
        """Warm ``engine`` for this view object's update workload:
        prepared statement templates on the sqlite backend and secondary
        hash indexes on the attributes the assembly joins and the
        integrity rules probe through ``find_by``.
        """
        graph = self.view_object.graph
        prepare_relation = getattr(engine, "prepare_relation", None)
        if prepare_relation is not None:
            for name in graph.relation_names:
                prepare_relation(name)
        for connection in graph.connections:
            engine.create_index(connection.source, connection.source_attributes)
            engine.create_index(connection.target, connection.target_attributes)

    def describe(self) -> str:
        """A readable summary of what was precomputed."""
        rule_count = sum(
            len(rules.cascade)
            + len(rules.incoming_refs)
            + len(rules.dependencies)
            + len(rules.retarget)
            + len(rules.propagate)
            for rules in self.rules.values()
        )
        lines = [
            f"compiled translator for {self.view_object.name!r}:",
            f"  nodes: {len(self.nodes_bfs)} "
            f"(island: {len(self.island_bfs)})",
            "  visit order: "
            + " -> ".join(cn.node_id for cn in self.nodes_bfs),
            f"  pre-resolved integrity rules: {rule_count} "
            f"across {len(self.rules)} relations",
        ]
        return "\n".join(lines)
