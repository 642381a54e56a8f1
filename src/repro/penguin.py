"""The PENGUIN facade: one object for the whole workflow.

"A first prototype of our view-object model has been implemented in the
PENGUIN system." :class:`Penguin` plays that role for this library: it
owns a structural schema and an engine, defines view objects, runs the
definition-time dialog, and routes queries and updates through the
chosen translators.

>>> from repro import Penguin
>>> from repro.workloads import university_schema, populate_university
>>> penguin = Penguin(university_schema())
>>> __ = populate_university(penguin.engine)
>>> omega = penguin.define_object(
...     "course_info", pivot="COURSES",
...     selections={"COURSES": ("course_id", "title", "units", "level",
...                              "dept_name")})
>>> len(penguin.query("course_info", "level = 'graduate'")) > 0
True
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import repro.obs as obs
from repro.errors import AuditError, SchemaError, TransactionError, ViewObjectError
from repro.core.instance import Instance, build_instance
from repro.core.instantiation import object_key
from repro.core.query import execute_query
from repro.core.updates.bulk import BufferedEngine
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    Replacement,
    UpdateRequest,
)
from repro.core.updates.policy import TranslatorPolicy
from repro.core.updates.translator import Translator
from repro.core.view_object import ViewObjectDefinition, define_view_object
from repro.dialog.answers import (
    AnswerSource,
    ConstantAnswers,
    MappingAnswers,
    ScriptedAnswers,
)
from repro.dialog.drivers import choose_translator
from repro.dialog.transcript import Transcript
from repro.materialize.store import LAZY, MaterializedStore, MaterializedView
from repro.obs.audit import AuditLog
from repro.obs.explain import TranslationExplanation
from repro.obs.history import ReplayReport, as_of, replay
from repro.obs.lineage import LineageIndex, LineageLink
from repro.relational.engine import Engine
from repro.relational.journal import PlanJournal, RecoveryReport, merge_images, recover
from repro.relational.memory_engine import MemoryEngine
from repro.relational.operations import UpdatePlan
from repro.relational.sqlite_engine import SqliteEngine
from repro.structural.integrity import IntegrityChecker, Violation
from repro.structural.schema_graph import StructuralSchema

__all__ = ["Penguin", "ViewObjectSession"]

AnswersLike = Union[AnswerSource, Sequence[bool], Mapping[str, bool], bool, None]
InstanceLike = Union[Instance, Mapping[str, Any]]
KeyOrInstance = Union[Instance, Mapping[str, Any], Sequence[Any]]


class ViewObjectSession:
    """The view-object write surface, declared once.

    Section 6 fixes one translator per view object, so what a request
    validates, emits and records must not depend on which session
    carried it there. Every verb below is *request construction only* —
    coerce the payload, build the request list, name the op label the
    write is counted and audited under — over what a session
    (:class:`Penguin`, ``ConcurrentPenguin``, ``ShardedPenguin``) really
    differs in: ``object(name)`` / ``query(name, text)`` (how reads are
    served), :meth:`_apply` (how a labelled request list is applied),
    and :meth:`_apply_one` / :meth:`_select_apply` where one request or
    a select-then-apply is more than that. DESIGN.md "One surface".
    """

    def _apply(
        self, name: str, requests: List[UpdateRequest], op: str
    ) -> UpdatePlan:
        """Apply ``requests`` as the write labelled ``op``."""
        raise NotImplementedError

    def _apply_one(
        self, name: str, request: UpdateRequest, op: str
    ) -> UpdatePlan:
        return self._apply(name, [request], op)

    def _select_apply(
        self,
        name: str,
        query: str,
        request_of: Callable[[Instance], UpdateRequest],
        op: str,
    ) -> UpdatePlan:
        """A query-driven verb: select, then one labelled batch. A select
        that matches nothing is an empty batch: no update."""
        matches = self.query(name, query)
        return self._apply(name, [request_of(i) for i in matches], op)

    def coerce(self, name: str, instance: InstanceLike) -> Instance:
        """``instance`` as an :class:`Instance` of view object ``name``."""
        if isinstance(instance, Instance):
            return instance
        return build_instance(self.object(name), instance)

    def insert(self, name: str, instance: InstanceLike) -> UpdatePlan:
        request = CompleteInsertion(self.coerce(name, instance))
        return self._apply_one(name, request, "insert")

    def delete(self, name: str, key_or_instance: KeyOrInstance) -> UpdatePlan:
        return self._apply_one(name, CompleteDeletion(key_or_instance), "delete")

    def replace(
        self, name: str, old: KeyOrInstance, new: InstanceLike
    ) -> UpdatePlan:
        request = Replacement(old, self.coerce(name, new))
        return self._apply_one(name, request, "replace")

    def insert_many(
        self, name: str, instances: Iterable[InstanceLike]
    ) -> UpdatePlan:
        """Insert a batch of instances as one atomic plan: translated
        over a write buffer (later instances see earlier ones), their
        plans concatenated and flushed through the engine's batch
        primitives in one transaction."""
        requests = [CompleteInsertion(self.coerce(name, i)) for i in instances]
        return self._apply(name, requests, "insert")

    def delete_many(
        self, name: str, keys_or_instances: Iterable[KeyOrInstance]
    ) -> UpdatePlan:
        """Delete a batch of instances (or object keys) atomically."""
        requests = [CompleteDeletion(i) for i in keys_or_instances]
        return self._apply(name, requests, "delete")

    def apply_plan_batch(
        self, name: str, requests: Iterable[UpdateRequest]
    ) -> UpdatePlan:
        """Translate a mixed batch of :class:`UpdateRequest` objects and
        apply their plans, concatenated in request order, atomically.
        (Sharded: atomic per owner shard; a request whose own plan
        crosses shards still goes through the two-phase coordinator.)"""
        return self._apply(name, list(requests), "batch")

    def delete_where(self, name: str, query: str) -> UpdatePlan:
        """Complete deletion of every instance matching an object query,
        as one atomic batch (sharded: one per owner shard)."""
        return self._select_apply(name, query, CompleteDeletion, "delete_where")

    def update_where(self, name: str, query: str, transform) -> UpdatePlan:
        """Replace every matching instance by ``transform(instance_dict)``,
        as one atomic batch (sharded: one per owner shard)."""

        def request_of(instance: Instance) -> Replacement:
            new = self.coerce(name, transform(instance.to_dict()))
            return Replacement(instance, new)

        return self._select_apply(name, query, request_of, "update_where")

    def describe(self) -> Optional[str]:
        """The deployment's topology in one line; None when there is
        only one engine to describe."""
        return None

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The active registry as plain data: every shard's and
        replica's series, told apart by their ``shard`` / ``replica``
        labels. The registry takes no session-wide lock, so this never
        blocks readers or writers."""
        return obs.metrics().snapshot()

    def metrics_text(self) -> str:
        """:meth:`metrics_snapshot`, rendered for scraping."""
        return obs.metrics().render_text()


class Penguin(ViewObjectSession):
    """A session over one structural schema and one storage engine.

    Parameters
    ----------
    graph:
        The structural schema; its relations are installed into the
        engine (with connection indexes) unless ``install=False``.
    engine:
        A storage engine; defaults to a fresh :class:`MemoryEngine`.
        Pass ``backend="sqlite"`` instead to get an in-memory sqlite
        engine.
    journal:
        An optional :class:`~repro.relational.journal.PlanJournal`.
        When set, every translated update plan is journaled as a
        write-ahead intent and :func:`~repro.relational.journal.recover`
        runs immediately (resolving any plan a previous process crashed
        in the middle of); the report is kept as
        :attr:`recovery_report`.
    audit:
        An optional :class:`~repro.obs.audit.AuditLog`. When set, every
        view-level update through this session is recorded (plan,
        before/after images, island, policy, outcome) and the lineage
        facade — :meth:`why`, :meth:`tuple_history`, :meth:`as_of`,
        :meth:`replay_audit` — becomes available. When both a journal
        and an audit log are set, startup recovery reconciles any
        update audited as ``crashed`` against the journal's verdict.
    """

    def __init__(
        self,
        graph: StructuralSchema,
        engine: Optional[Engine] = None,
        backend: str = "memory",
        install: bool = True,
        journal: Optional[PlanJournal] = None,
        audit: Optional[AuditLog] = None,
        strictness: Optional[str] = None,
    ) -> None:
        self.graph = graph
        if engine is None:
            if backend == "memory":
                engine = MemoryEngine()
            elif backend == "sqlite":
                engine = SqliteEngine()
            else:
                raise ValueError(f"unknown backend {backend!r}")
        self.engine = engine
        self.journal = journal
        self.audit = audit
        # Definition-time strategy validation ("off" / "warn" /
        # "refuse"); None defers to the Translator's process default.
        self.strictness = strictness
        self.recovery_report: Optional[RecoveryReport] = None
        self._objects: Dict[str, ViewObjectDefinition] = {}
        self._translators: Dict[str, Translator] = {}
        self._checker = IntegrityChecker(graph)
        self._materialized = MaterializedStore(engine)
        self._lineage: Optional[LineageIndex] = None
        self._block: Optional[_Block] = None
        if install:
            graph.install(engine)
        if journal is not None:
            self.recovery_report = self._recover()

    # -- object definition ------------------------------------------------------

    def define_object(
        self,
        name: str,
        pivot: str,
        selections: Mapping[str, Sequence[str]],
    ) -> ViewObjectDefinition:
        """Define a view object (Figure 2 pipeline) and register it."""
        if name in self._objects:
            raise ViewObjectError(f"view object {name!r} already defined")
        view_object = define_view_object(self.graph, name, pivot, selections)
        self._objects[name] = view_object
        return view_object

    def register_object(self, view_object: ViewObjectDefinition) -> None:
        """Register an externally built definition (e.g. from
        :mod:`repro.workloads.figures`)."""
        if view_object.name in self._objects:
            raise ViewObjectError(
                f"view object {view_object.name!r} already defined"
            )
        self._objects[view_object.name] = view_object

    def object(self, name: str) -> ViewObjectDefinition:
        try:
            return self._objects[name]
        except KeyError:
            raise ViewObjectError(f"unknown view object: {name!r}") from None

    @property
    def object_names(self) -> Tuple[str, ...]:
        return tuple(self._objects)

    # -- translator choice --------------------------------------------------------

    def choose_translator(
        self, name: str, answers: AnswersLike = None
    ) -> Tuple[Translator, Transcript]:
        """Run the Section 6 dialog and bind the resulting translator.

        ``answers`` may be an :class:`AnswerSource`, a sequence of
        booleans (scripted), a mapping from question ids, a single
        boolean (constant), or None (fully permissive).
        """
        view_object = self.object(name)
        source = _coerce_answers(answers)
        translator, transcript = choose_translator(
            view_object,
            source,
            strictness=self.strictness,
        )
        translator.journal = self.journal
        translator.audit = self.audit
        self._translators[name] = translator
        return translator, transcript

    def set_policy(self, name: str, policy: TranslatorPolicy) -> Translator:
        """Bind a programmatically built policy instead of a dialog.

        Unlike the dialog, a programmatic policy can encode any switch
        combination — including ones the dialog would never produce —
        so the definition-time strategy checker runs here too: under
        ``strictness="refuse"`` a CRITICAL policy raises
        :class:`~repro.errors.UnsafeTranslatorError` before binding.
        """
        translator = Translator(
            self.object(name),
            policy=policy,
            journal=self.journal,
            audit=self.audit,
            strictness=self.strictness,
        )
        self._translators[name] = translator
        return translator

    def translator(self, name: str) -> Translator:
        """The bound translator; a permissive one is created on demand."""
        if name not in self._translators:
            self._translators[name] = Translator(
                self.object(name),
                journal=self.journal,
                audit=self.audit,
                strictness=self.strictness,
            )
        return self._translators[name]

    def risk_report(self, name: str):
        """The bound translator's definition-time risk report."""
        return self.translator(name).risk()

    def risk_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-object strategy risk for every defined object — the
        metadata the HTTP ``/objects`` index surfaces."""
        summary: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._objects):
            report = self.risk_report(name)
            summary[name] = {
                "level": report.level.value,
                "findings": len(report),
            }
        return summary

    # -- materialization -------------------------------------------------------------

    def materialize(self, name: str, policy: str = LAZY) -> MaterializedView:
        """Cache the object's assembled instances, maintained incrementally.

        Afterwards :meth:`query` and :meth:`get` serve instance assembly
        from the cache; the engine's changelog hands it every committed
        change — base updates and translated view updates alike — and
        a rolled-back one never reaches it. ``policy`` names the
        maintenance policy; ``"lazy"`` is the only one (see
        :meth:`MaterializedView.sync`).
        """
        if policy != LAZY:
            raise ViewObjectError(
                f"unknown maintenance policy {policy!r}; the only one is "
                f"{LAZY!r}"
            )
        return self._materialized.materialize(self.object(name))

    def dematerialize(self, name: str) -> None:
        """Drop the object's cache and stop maintaining it."""
        self._materialized.dematerialize(name)

    def materialized(self, name: str) -> Optional[MaterializedView]:
        """The object's cache handle (stats, staleness, ...), or None."""
        return self._materialized.view(name)

    @property
    def materialized_names(self) -> Tuple[str, ...]:
        return self._materialized.names

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-object cache counters for every materialized object."""
        return self._materialized.stats_by_view()

    # -- queries --------------------------------------------------------------------

    def query(self, name: str, text: Optional[str] = None) -> List[Instance]:
        """Run an object query; None or empty text returns all instances.

        Materialized objects are served from their instance cache
        (brought up to date first); others assemble dynamically.
        """
        view_object = self.object(name)
        engine, view = self._reading(name)
        with obs.tracer().span(
            "penguin.query", object=name, materialized=view is not None
        ) as span:
            if not text:
                if view is not None:
                    results = view.all()
                else:
                    results = view_object.instantiator.all(engine)
            else:
                results = execute_query(
                    view_object, engine, text, instantiator=view
                )
            span.set(results=len(results))
        return results

    def get(self, name: str, key: Sequence[Any]) -> Optional[Instance]:
        """One instance by object key, or None."""
        key = object_key(name, key)
        engine, view = self._reading(name)
        with obs.tracer().span(
            "penguin.get", object=name, materialized=view is not None
        ) as span:
            if view is not None:
                instance = view.get(key)
            else:
                instance = self.object(name).instantiator.by_key(engine, key)
            span.set(found=instance is not None)
        return instance

    def _reading(self, name: Optional[str] = None) -> Tuple[Engine, Optional[MaterializedView]]:
        """Where every session read goes: inside a transaction, the block's
        overlay and no cache; else the engine, through ``name``'s cache."""
        if self._block is not None:
            return self._block.overlay, None
        return self.engine, self._materialized.view(name)

    # -- updates (the verbs are ViewObjectSession's) ----------------------------

    def _apply(
        self, name: str, requests: List[UpdateRequest], op: str
    ) -> UpdatePlan:
        """The overlay translate half, then the commit half — or, in a
        transaction, the block's overlay until the exit lands it. No
        requests ask for the empty set of operations: no update."""
        block = self._block
        if block is not None and block.name not in (None, name):
            raise ViewObjectError(f"this transaction writes {block.name!r}, not {name!r}")
        if not requests:
            return UpdatePlan()
        translator = self.translator(name)
        if block is not None:
            plan = translator.explain_batch(block.overlay, requests, op=op).plan
            block.overlay.apply_batch(plan.operations)
            block.name = name
            block.plan.extend(plan)
            if plan.images is not None:
                merge_images(block.images, plan.images)
            block.items += len(requests)
            return plan
        with obs.tracer().span(
            "translate.batch", object=name, op=op, items=len(requests)
        ) as root:
            plan = translator.explain_batch(self.engine, requests, op=op).plan
            root.set(ops=len(plan), journaled=translator.journal is not None)
            return translator.apply_plan(
                self.engine, plan, op=op, items=len(requests)
            )

    def _apply_one(
        self, name: str, request: UpdateRequest, op: str
    ) -> UpdatePlan:
        if self._block is not None:
            return self._apply(name, [request], op)
        # One request translates eagerly on the live engine: a batch of
        # one would validate and apply every tuple twice (DESIGN.md
        # "Write path"). The translator reads the label off the request,
        # and a key anchor's instance off the object's materialized view
        # while that holds the committed state (MaterializedView.by_key).
        return self.translator(name).apply(
            self.engine, request, instantiator=self._materialized.view(name)
        )

    def explain_update(self, name: str, request) -> TranslationExplanation:
        """The would-be plan of one update request, without executing it.

        See :meth:`Translator.explain_batch` — the update counterpart of
        the query planner's ``explain_query``.
        """
        return self.translator(name).explain_batch(self._reading()[0], [request])

    # -- transactions ----------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Several writes on one view object as one update (DESIGN.md "A
        transaction is a batch"): later verbs and every read in the block
        see earlier writes; a clean exit lands them as one journaled,
        audited update, and an exception lands nothing. The block folds
        its writes' images (``journal.merge_images``), so the exit reads
        nothing back.

        >>> # with penguin.transaction():
        >>> #     penguin.delete("course_info", ("CS101",))
        >>> #     penguin.insert("course_info", {...})
        """
        if self._block is not None:
            yield
            return
        block = self._block = _Block(self.engine)
        try:
            yield
        finally:
            self._block = None
        if not len(block.plan):
            return
        if _counters(self.engine) != block.counters:
            raise TransactionError("the engine changed inside the transaction; nothing landed")
        block.plan.images = block.images
        self.translator(block.name).apply_plan(
            self.engine, block.plan, op="transaction", items=block.items
        )

    # -- catalog persistence -------------------------------------------------------

    def export_catalog(self) -> Dict[str, Any]:
        """Serialize every defined object (and any bound policy).

        "Only its definition is saved while base data remains stored in
        the relational database" — this is that saved definition set.
        """
        from repro.core.serialization import policy_to_dict, view_object_to_dict

        return {
            "objects": [
                view_object_to_dict(view_object)
                for view_object in self._objects.values()
            ],
            "policies": {
                name: policy_to_dict(translator.policy)
                for name, translator in self._translators.items()
            },
        }

    def import_catalog(self, catalog: Mapping[str, Any]) -> List[str]:
        """Load definitions (and policies) produced by ``export_catalog``.

        Returns the names of the objects loaded. Completers are code and
        do not persist; re-attach them via :meth:`set_policy` if needed.
        """
        from repro.core.serialization import (
            policy_from_dict,
            view_object_from_dict,
        )

        loaded = []
        for stored in catalog.get("objects", []):
            view_object = view_object_from_dict(self.graph, stored)
            self.register_object(view_object)
            loaded.append(view_object.name)
        for name, stored in catalog.get("policies", {}).items():
            if name in self._objects:
                self.set_policy(name, policy_from_dict(stored))
        return loaded

    # -- recovery -------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Resolve pending journal entries now (e.g. after a simulated
        crash mid-session); requires a journal. Idempotent. With an
        audit log attached, updates audited as ``crashed`` are
        reconciled against the journal's verdict afterwards."""
        if self.journal is None:
            raise ViewObjectError("this session has no plan journal")
        self.recovery_report = self._recover()
        return self.recovery_report

    def _recover(self) -> RecoveryReport:
        """Journal recovery, then the audit log settled against it. The
        entries recovery rolls forward are read while the journal still
        holds them whole, so one whose audit record died in the crash
        gets it now."""
        held = self.journal.pending()
        report = recover(self.engine, self.journal)
        if self.audit is not None:
            self.audit.reconcile(self.journal)
            forward = set(report.replayed)
            self.audit.adopt_rolled_forward([e for e in held if e.id in forward])
        return report

    # -- audit & lineage ---------------------------------------------------------

    def _require_audit(self) -> AuditLog:
        if self.audit is None:
            raise ViewObjectError(
                "this session has no audit log; pass audit=MemoryAuditLog() "
                "(or a FileAuditLog) to the Penguin constructor"
            )
        return self.audit

    def lineage(self) -> LineageIndex:
        """The per-tuple lineage index over this session's audit log.

        Cached; the index rebuilds itself lazily when the log grows.
        """
        audit = self._require_audit()
        if self._lineage is None or self._lineage.log is not audit:
            self._lineage = LineageIndex(audit)
        return self._lineage

    def why(self, relation: str, key: Sequence[Any]) -> List[LineageLink]:
        """The provenance chain of the base tuple at ``(relation, key)``:
        every committed view update that produced or touched it, oldest
        first, following key re-homing back to the originating update.
        A relation the schema does not have is an
        :class:`~repro.errors.UnknownRelationError`, not an empty chain,
        and a key of the wrong arity a :class:`~repro.errors.SchemaError`."""
        self._check_key(relation, key)
        return self.lineage().why(relation, key)

    def tuple_history(
        self, relation: str, key: Sequence[Any]
    ) -> List[LineageLink]:
        """The before/after image sequence of one exact cell (an
        :class:`~repro.errors.UnknownRelationError` for a relation the
        schema does not have, a :class:`~repro.errors.SchemaError` for a
        key of the wrong arity)."""
        self._check_key(relation, key)
        return self.lineage().history(relation, key)

    def _check_key(self, relation: str, key: Sequence[Any]) -> None:
        wanted = self.graph.relation(relation).key
        if len(key) != len(wanted):
            raise SchemaError(
                f"relation {relation!r} has a {len(wanted)}-attribute key "
                f"{wanted!r}; got {len(key)} value(s)"
            )

    def as_of(self, asn: int, relation: Optional[str] = None):
        """The database (or one relation) reconstructed at a past ASN,
        verified cell-by-cell against the live head (an
        :class:`~repro.errors.UnknownRelationError` for a relation the
        schema does not have, an :class:`~repro.errors.AuditError` for an
        ASN outside 0 to the log's head)."""
        if relation is not None:
            self.graph.relation(relation)
        audit = self._require_audit()
        if not 0 <= asn <= audit.head_asn():
            raise AuditError(
                f"no ASN {asn}: the log runs from 0 to {audit.head_asn()}"
            )
        return as_of(audit, self.engine, asn, relation=relation)

    def replay_audit(self) -> ReplayReport:
        """Re-execute the audited plans onto a fresh engine and compare
        final states byte-for-byte — the audit log as correctness oracle."""
        return replay(self._require_audit(), self.engine)

    # -- integrity ---------------------------------------------------------------------

    def check_integrity(self) -> List[Violation]:
        return self._checker.check(self._reading()[0])

    def is_consistent(self) -> bool:
        return self._checker.is_consistent(self._reading()[0])


class _Block:
    """An open :meth:`Penguin.transaction`: the overlay its verbs
    translate over, the one object they write, their plan and its
    images so far."""

    def __init__(self, engine: Engine) -> None:
        self.overlay = BufferedEngine(engine)
        self.name: Optional[str] = None
        self.plan, self.images, self.items = UpdatePlan(), {}, 0
        self.counters = _counters(engine)


def _counters(engine: Engine) -> Dict[str, int]:
    """Equal at two moments only if nothing was written in between."""
    return dict(getattr(engine.changelog, "counters", {}))


def _coerce_answers(answers: AnswersLike) -> AnswerSource:
    if answers is None:
        return ConstantAnswers(True)
    if isinstance(answers, AnswerSource):
        return answers
    if isinstance(answers, bool):
        return ConstantAnswers(answers)
    if isinstance(answers, Mapping):
        return MappingAnswers(dict(answers))
    if isinstance(answers, str):
        raise TypeError(
            f"answers must be an AnswerSource, bool, mapping, or sequence "
            f"of booleans, not the string {answers!r}"
        )
    return ScriptedAnswers(list(answers))
