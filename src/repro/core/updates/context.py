"""Shared machinery of the translation algorithms.

A :class:`TranslationContext` carries everything one update translation
needs: the view object and its island analysis, the engine, the policy,
the growing :class:`~repro.relational.operations.UpdatePlan`, and the
work lists (deleted / inserted / replaced tuples, key changes) that the
global-integrity pass consumes.

All database mutations go through the context's ``insert`` / ``delete``
/ ``replace`` so that the plan faithfully records what the translation
did — the paper's "output is the set of database operations" — and
:attr:`TranslationContext.mutations` records what each did to its cell:
the before/after images a journal or audit log stores are folded from
that record (``Translator``), never re-read.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import UpdateRejectedError
from repro.core.dependency_island import IslandAnalysis, analyze_island
from repro.core.view_object import ViewObjectDefinition
from repro.core.updates.policy import TranslatorPolicy
from repro.relational.engine import Engine
from repro.relational.operations import Delete, Insert, Replace, UpdatePlan
from repro.relational.schema import RelationSchema

__all__ = ["TranslationContext"]


class TranslationContext:
    """State of one in-flight update translation."""

    def __init__(
        self,
        view_object: ViewObjectDefinition,
        engine: Engine,
        policy: TranslatorPolicy,
        analysis: Optional[IslandAnalysis] = None,
    ) -> None:
        self.view_object = view_object
        self.engine = engine
        self.policy = policy
        self.analysis = analysis or analyze_island(view_object)
        self.graph = view_object.graph
        self.plan = UpdatePlan()
        # What each mutation did, in apply order: raw ``(relation, key,
        # before, after)`` — ``key`` is None for an insert, ``after``
        # None for a delete.
        self.mutations: List[Tuple[str, Any, Any, Any]] = []
        # An overlay's unchecked writes, for what the caller has proved.
        self._insert_validated = getattr(engine, "insert_validated", None)
        self._delete_validated = getattr(engine, "delete_validated", None)
        # Work lists consumed by global-integrity maintenance. Tuples are
        # full value tuples in schema order.
        self.deleted: List[Tuple[str, Tuple[Any, ...]]] = []
        self.inserted: List[Tuple[str, Tuple[Any, ...]]] = []
        self.replaced: List[
            Tuple[str, Tuple[Any, ...], Tuple[Any, ...]]
        ] = []
        self.key_changes: List[
            Tuple[str, Tuple[Any, ...], Tuple[Any, ...]]
        ] = []
        # Progress cursors of the global-integrity passes: each pass
        # resumes where it left off, so the passes can be interleaved
        # and re-run (a key-change collision may append new deletions
        # after the deletion pass already ran).
        self.deletion_cursor = 0
        self.insertion_cursor = 0
        self.key_change_cursor = 0

    # -- recorded mutations ------------------------------------------------------

    # A caller that has proved a write sound says so: ``insert`` with the
    # ``key`` it just probed absent (``values`` validated, the key needing
    # no date narrowing), ``delete`` with ``proved`` for the row ``old``
    # it just read (same key condition). An overlay then writes without
    # re-checking (``BufferedEngine.insert_validated`` /
    # ``delete_validated``); any other engine runs its checked write.

    def insert(
        self,
        relation: str,
        values: Tuple[Any, ...],
        reason: str,
        key: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        if key is not None and self._insert_validated is not None:
            self._insert_validated(relation, values, key)
        else:
            self.engine.insert(relation, values)
        self.plan.add(Insert(relation, values), reason)
        self.inserted.append((relation, values))
        self.mutations.append((relation, None, None, values))

    # ``delete`` and ``replace`` take ``old``, the row the caller has just
    # read under ``key``; without it they read the row themselves.

    def delete(
        self,
        relation: str,
        key: Tuple[Any, ...],
        reason: str,
        old: Optional[Tuple[Any, ...]] = None,
        proved: bool = False,
    ) -> Tuple[Any, ...]:
        if old is None:
            old = self.engine.get(relation, key)
            if old is None:
                raise UpdateRejectedError(
                    f"cannot delete {relation!r} tuple {key!r}: not found",
                    relation=relation,
                )
        if proved and self._delete_validated is not None:
            self._delete_validated(relation, key)
        else:
            self.engine.delete(relation, key)
        self.plan.add(Delete(relation, key), reason)
        self.deleted.append((relation, old))
        self.mutations.append((relation, key, old, None))
        return old

    def replace(
        self,
        relation: str,
        key: Tuple[Any, ...],
        new_values: Tuple[Any, ...],
        reason: str,
        old: Optional[Tuple[Any, ...]] = None,
    ) -> Tuple[Any, ...]:
        if old is None:
            old = self.engine.get(relation, key)
            if old is None:
                raise UpdateRejectedError(
                    f"cannot replace {relation!r} tuple {key!r}: not found",
                    relation=relation,
                )
        self.engine.replace(relation, key, new_values)
        self.plan.add(Replace(relation, key, new_values), reason)
        self.replaced.append((relation, old, new_values))
        self.mutations.append((relation, key, old, new_values))
        new_key = self.schema(relation).key_of(new_values)
        if new_key != tuple(key):
            self.key_changes.append((relation, tuple(key), new_key))
        return old

    # -- helpers ------------------------------------------------------------------

    def schema(self, relation: str) -> RelationSchema:
        return self.graph.relation(relation)

    def complete(
        self, node_id: str, values: Dict[str, Any]
    ) -> Tuple[Any, ...]:
        """Extend a projected view-object tuple to a full value tuple."""
        node = self.view_object.node(node_id)
        schema = self.schema(node.relation)
        completed = self.policy.completer(node.relation, schema, dict(values))
        return schema.row_from_mapping(completed)
