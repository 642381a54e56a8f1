"""The view-object update translator.

"Once the DBA has chosen the translator, users can specify updates
through the view object, which are then translated into database update
operations." A :class:`Translator` binds a view object to a
:class:`~repro.core.updates.policy.TranslatorPolicy` and takes Section
5's update requests (:class:`~repro.core.updates.operations.UpdateRequest`)
through three doors: :meth:`~Translator.apply` (one request, eager),
:meth:`~Translator.explain_batch` (a list, translated over an overlay,
nothing committed) and :meth:`~Translator.apply_plan` (the commit of a
plan the overlay half translated, or of a shipped record). The session
(:class:`~repro.penguin.ViewObjectSession`) builds the requests, and
``Penguin._apply`` picks a half by their count. Every write is
all-or-nothing: if any step rejects the update, nothing is left behind.

Each write returns the :class:`~repro.relational.operations.UpdatePlan`
that was applied (the "set of database operations"), with a reason
attached to every operation for auditability.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import repro.obs as obs
from repro.errors import (
    GlobalValidationError,
    LocalValidationError,
    UpdateError,
)
from repro.core.dependency_island import analyze_island
from repro.core.instance import Instance, build_instance
from repro.core.instantiation import object_key
from repro.core.updates.bulk import BufferedEngine
from repro.core.updates.compiled import CompiledProgram
from repro.core.updates.context import TranslationContext
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    PartialDeletion,
    PartialInsertion,
    PartialUpdate,
    Replacement,
    UpdateRequest,
)
from repro.core.updates.partial import (
    translate_partial_deletion,
    translate_partial_insertion,
    translate_partial_update,
)
from repro.core.updates.policy import TranslatorPolicy
from repro.core.view_object import ViewObjectDefinition
from repro.obs.audit import AuditLog
from repro.obs.audit import COMMITTED as AUDIT_COMMITTED
from repro.obs.audit import CRASHED as AUDIT_CRASHED
from repro.obs.audit import ROLLED_BACK as AUDIT_ROLLED_BACK
from repro.obs.explain import TranslationExplanation
from repro.obs.history import snapshot, state_digest
from repro.relational.engine import Engine
from repro.relational.journal import (
    PlanJournal,
    UpdateRecord,
    encode_images,
    encode_plan,
    fold_images,
)
from repro.relational.operations import UpdatePlan
from repro.structural.integrity import IntegrityChecker

__all__ = ["Translator"]

InstanceLike = Union[Instance, Mapping[str, Any]]

# The process-wide default for Translator(strictness=None). "warn"
# runs the static strategy checker at construction and emits a
# StrategyWarning for CRITICAL configurations; "refuse" raises
# UnsafeTranslatorError instead (no CRITICAL config ever reaches a
# CompiledProgram); "off" skips the definition-time check entirely.
STRICTNESS_DEFAULT = "warn"

_STRICTNESS_VALUES = ("off", "warn", "refuse")


class Translator:
    """Translates updates on one view object into database operations.

    Parameters
    ----------
    view_object:
        The object this translator serves.
    policy:
        The semantics chosen at definition time (dialog output). The
        default is fully permissive.
    journal:
        An optional :class:`~repro.relational.journal.PlanJournal`.
        When set, every translated plan is journaled as a
        write-ahead intent (PENDING before application, COMMITTED
        after), so a crash mid-apply can be resolved by
        :func:`repro.relational.journal.recover`.
    audit:
        An optional :class:`~repro.obs.audit.AuditLog`. When set, every
        view-level update is recorded with its plan,
        before/after images, dependency island, policy answers, and
        outcome (committed / rolled back / crashed) — the provenance
        trail behind :class:`~repro.obs.lineage.LineageIndex` and
        :func:`~repro.obs.history.replay`.

    The translator is fixed at definition time (§6), so construction
    compiles it: :attr:`program` is the view object's
    :class:`~repro.core.updates.compiled.CompiledProgram` — tree walk,
    island membership and integrity rules precomputed — and every
    operation runs through it.
    """

    def __init__(
        self,
        view_object: ViewObjectDefinition,
        policy: Optional[TranslatorPolicy] = None,
        journal: Optional[PlanJournal] = None,
        audit: Optional[AuditLog] = None,
        strictness: Optional[str] = None,
    ) -> None:
        self.view_object = view_object
        self.policy = policy or TranslatorPolicy.permissive()
        self.analysis = analyze_island(view_object)
        self.user: Optional[str] = None
        self.journal = journal
        self.audit = audit
        self._policy_dict: Optional[Dict[str, Any]] = None
        # Compiled here, at definition time, so no update or read pays it.
        self._instantiator = view_object.instantiator
        self._checker = IntegrityChecker(view_object.graph)
        if strictness is None:
            strictness = STRICTNESS_DEFAULT
        if strictness not in _STRICTNESS_VALUES:
            raise ValueError(
                f"strictness must be one of {_STRICTNESS_VALUES}, "
                f"got {strictness!r}"
            )
        self.strictness = strictness
        self._risk_report = None
        if strictness != "off":
            self._enforce_strictness()
        # Past the gate: a refused configuration never gets a program.
        self.program = CompiledProgram(view_object, self.analysis)

    def _enforce_strictness(self) -> None:
        """Definition-time strategy validation (§6 happens once; so does
        this): compute the risk report, then warn or refuse on CRITICAL
        before the program is compiled or any plan can be built."""
        report = self.risk()
        if not report.is_critical:
            return
        worst = "; ".join(
            f.describe() for f in report.at_least(report.level)[:3]
        )
        if self.strictness == "refuse":
            from repro.errors import UnsafeTranslatorError

            raise UnsafeTranslatorError(
                f"translator for {self.view_object.name!r} refused at "
                f"definition time (strictness='refuse'): {worst}",
                report=report,
            )
        import warnings

        from repro.strategy.risk import StrategyWarning

        warnings.warn(
            f"translator for {self.view_object.name!r} is CRITICAL: {worst}",
            StrategyWarning,
            stacklevel=3,
        )

    def risk(self):
        """The static strategy checker's verdict on this configuration
        (:class:`~repro.strategy.risk.RiskReport`), computed once at
        definition time and cached."""
        if self._risk_report is None:
            from repro.strategy.checks import check_strategy

            self._risk_report = check_strategy(
                self.view_object, self.policy, self.analysis
            )
        return self._risk_report

    def for_user(self, user: Optional[str]) -> "Translator":
        """This translator bound to a specific user.

        Step 1 of the paper checks "structural restrictions and user
        authorizations": when the policy names authorized users, updates
        from anyone else are rejected before translation starts.
        """
        # A shallow copy: every bound copy shares the analysis, the risk
        # report and — by reference — the compiled program, so nothing
        # is recomputed (or recompiled) per user.
        bound = copy.copy(self)
        bound.user = user
        return bound

    def compiled(self) -> CompiledProgram:
        """The compiled program: introspection (``describe``) and
        explicit engine preparation (``prepare_engine``: prepared sqlite
        statements, assembly-join hash indexes)."""
        return self.program

    # -- the three doors: the eager half (apply), the overlay half
    # (explain_batch), whose plan — or a shipped record — goes to the
    # commit half (apply_plan); Penguin._apply picks a half by count

    def apply(
        self, engine: Engine, request: UpdateRequest, op: str, instantiator=None
    ) -> UpdatePlan:
        """The eager half: translate one :class:`UpdateRequest` on the
        live engine inside one transaction, then :meth:`_commit` it as
        the write labelled ``op``.

        A key anchor is read through ``instantiator``: the session's
        :class:`~repro.materialize.store.MaterializedView`, if any."""
        ctx = TranslationContext(
            self.view_object, engine, self.policy, self.analysis
        )
        journal, audit = self.journal, self.audit
        vouch(audit, engine)
        tracer = obs.tracer()
        with tracer.span(
            "translate", object=self.view_object.name, op=op
        ) as span:
            engine.begin()
            try:
                self._check_authorized()
                self._translate(ctx, request, instantiator)
                self._verify(engine, ctx.plan.operations)
            except Exception as exc:
                # A rejection: roll back, nothing is left behind.
                engine.rollback()
                self._refused(op, 1, exc)
                raise
            except BaseException as exc:
                # A (simulated) crash: no rollback — the state is left
                # torn for recovery, and the ``crashed`` record keeps the
                # partial plan. No journal entry exists yet, so recovery
                # discards the transaction and replay excludes it.
                if audit is not None:
                    self.audit_update(audit, op, plan=ctx.plan, error=exc)
                raise
            span.set(ops=len(ctx.plan), journaled=journal is not None)
            if journal is not None or audit is not None:
                ctx.plan.images = fold_images(engine, ctx.mutations)
            with tracer.span("commit", ops=len(ctx.plan)):
                self._commit(engine._finish_commit, ctx.plan, op)
        return ctx.plan

    def apply_plan(
        self,
        engine: Engine,
        plan: Union[UpdatePlan, UpdateRecord],
        op: str = "update",
        items: int = 1,
    ) -> UpdatePlan:
        """The commit half: journal, land and audit a plan the overlay
        half translated (:meth:`explain_batch` with ``op=``), through
        :meth:`_commit`, on ``engine`` in the state the translation saw.
        Its images ride on it, so nothing is read back; while a journal
        or an audit log is active a plan without them is refused. (An
        audit log with no seed digest yet reads one here: :func:`vouch`.)

        ``plan`` may also be the :class:`UpdateRecord` of a plan
        committed elsewhere (what a primary ships to its replicas). Its
        journal-encoded payloads are then journaled and audited
        verbatim — no re-encoding — and the audit record carries no
        island, policy or user, because this translator translated
        nothing (the user was authorized where the plan was translated).
        """
        shipped = None
        if isinstance(plan, UpdateRecord):
            shipped, plan = plan, plan.plan()
        else:
            self._check_authorized()
        journal, audit = self.journal, self.audit
        if shipped is None and plan.images is None and (
            journal is not None or audit is not None
        ):
            raise UpdateError(
                f"view object {self.view_object.name!r}: the plan carries no "
                f"images to journal or audit; land what a translate half "
                f"returned (explain_batch with op=)"
            )
        if audit is not None and audit.seed is None:
            # Not the log its translate half vouched for: a replica's
            # first record, or a stack promoted between the halves.
            vouch(audit, engine)
        with obs.tracer().span(
            "apply_plan", object=self.view_object.name, op=op, ops=len(plan)
        ):
            self._commit(
                lambda: engine.apply_batch(plan.operations),
                plan, op, items, shipped=shipped,
            )
        return plan

    def explain_batch(
        self,
        engine: Engine,
        requests: Iterable[UpdateRequest],
        op: Optional[str] = None,
    ) -> TranslationExplanation:
        """The would-be plan of a batch, without executing it.

        The requests run through the real VO-CI / VO-CD / VO-R code over
        a :class:`BufferedEngine` overlay, so the reported operations,
        relations and CASE reasons are exactly what :meth:`apply` would
        produce for each request in turn against the current database —
        but the base engine is never touched. The counterpart of
        :func:`repro.core.query.explain_query` for updates. A write's
        plan carries its images while a log is active (:meth:`_overlay`).

        ``op`` labels the translate half of a *write* whose commit half
        is :meth:`apply_plan` (every batch write: the session composes
        the two, and a sharded one partitions the plan in between): a
        rejection is then counted and audited as that write's, and
        ``explains_total`` is not bumped. Without it nothing is
        recorded.
        """
        requests = list(requests)
        operation = self._describe_requests(requests)
        with obs.tracer().span(
            "explain",
            object=self.view_object.name,
            op=operation,
            items=len(requests),
        ) as span:
            plan = self._overlay(
                engine, requests, op or operation, write=op is not None
            )
            span.set(ops=len(plan))
        if op is None:  # a write's translate half is not an explain
            obs.metrics().counter("explains_total", op=operation).inc()
        return TranslationExplanation(
            object_name=self.view_object.name,
            operation=operation,
            plan=plan,
            island_relations=tuple(self.analysis.island_relations),
            graph=self.view_object.graph,
            items=len(requests),
            risk=self.risk(),
        )

    @staticmethod
    def _describe_requests(requests: Sequence[UpdateRequest]) -> str:
        """One op label for a request list: its kind, or "mixed"."""
        kinds = {
            _REQUESTS.get(type(request), ("update",))[0]
            for request in requests
        }
        if not kinds:
            return "empty"
        if len(kinds) == 1:
            return next(iter(kinds))
        return "mixed"

    def _overlay(
        self,
        engine: Engine,
        requests: List[UpdateRequest],
        op: str,
        write: bool = False,
    ) -> UpdatePlan:
        """The overlay translate half: the requests' plans, translated
        in order over one :class:`BufferedEngine` (so later requests see
        earlier effects and ``engine`` itself is never touched) and
        concatenated. A *write*'s plan, while a journal or an audit log
        is active, carries the images folded from their mutation records
        end to end (:func:`~repro.relational.journal.fold_images`), for
        :meth:`apply_plan` to record without a read; an explain's
        carries none, so :meth:`apply_plan` refuses to land it.

        Every overlay translation runs here — a batch write, a write in
        a transaction, a sharded write and an explain — so each gets
        step 1's authorization, one ``translate`` span per request and
        the plan check (:meth:`_verify`). A *write*'s rejection is
        also :meth:`_refused`; an explain's is not.
        """
        tracer = obs.tracer()
        plan, mutations = UpdatePlan(), []
        if write:
            vouch(self.audit, engine)
        try:
            self._check_authorized()
            buffered = BufferedEngine(engine)
            for request in requests:
                ctx = TranslationContext(
                    self.view_object, buffered, self.policy, self.analysis
                )
                with tracer.span("translate", op=op):
                    self._translate(ctx, request)
                plan.extend(ctx.plan)
                mutations += ctx.mutations
            self._verify(buffered, plan.operations)
            if write and (self.journal is not None or self.audit is not None):
                plan.images = fold_images(engine, mutations)
        except Exception as exc:
            if write:
                self._refused(op, len(requests), exc)
            raise
        return plan

    def _refused(self, op: str, items: int, error: Exception) -> None:
        """Either translate half's refusal of a write: counted, and
        audited ``rolled_back`` with no plan, since nothing landed."""
        obs.metrics().counter("translation_failures_total", op=op).inc()
        if self.audit is not None:
            self.audit_update(self.audit, op, items=items, error=error)

    def _translate(
        self, ctx: TranslationContext, request: UpdateRequest, instantiator=None
    ) -> None:
        """Translate one request against an in-flight context; its anchor
        is resolved against ``ctx.engine``, so inside a batch the effects
        of earlier requests are visible."""
        translate = _request_entry(request)[1]
        anchor = request.anchor
        if not isinstance(anchor, (Instance, Mapping)):
            anchor = self.instantiate(ctx.engine, anchor, instantiator)
        translate(self, ctx, self._coerce_instance(anchor), request)

    # -- helpers -----------------------------------------------------------------

    def _check_authorized(self) -> None:
        """Step 1's user authorization: the first thing both translate
        halves (:meth:`apply`, :meth:`_overlay`) and :meth:`apply_plan` do."""
        if not self.policy.authorizes(self.user):
            raise LocalValidationError(
                f"user {self.user!r} is not authorized to update through "
                f"view object {self.view_object.name!r}"
            )

    def _verify(self, engine: Engine, operations: List[Any]) -> None:
        """Every translated plan is valid: the existence rules of its
        connections hold over ``engine``, which holds the plan's effects
        (:meth:`IntegrityChecker.check_plan`). Both translate halves end
        here; a violation rejects the update."""
        with obs.tracer().span("verify"):
            violations = self._checker.check_plan(engine, operations)
        if violations:
            raise GlobalValidationError(
                f"translation left {len(violations)} integrity violations: "
                + "; ".join(v.message for v in violations[:5])
            )

    def instantiate(self, engine: Engine, key: Sequence[Any], instantiator=None) -> Instance:
        """Fetch the current instance with object key ``key`` (through
        ``instantiator``, the object's own by default)."""
        if key is None:
            raise UpdateError(
                f"view object {self.view_object.name!r}: an instance or an "
                f"object key is required"
            )
        key = object_key(self.view_object.name, key)
        if instantiator is None:
            instantiator = self._instantiator
        instance = instantiator.by_key(engine, key)
        if instance is None:
            raise UpdateError(
                f"view object {self.view_object.name!r}: no instance with "
                f"key {tuple(key)!r}"
            )
        return instance

    def _coerce_instance(self, instance: InstanceLike) -> Instance:
        if isinstance(instance, Instance):
            return instance
        return build_instance(self.view_object, instance)

    def _policy_answers(self) -> Dict[str, Any]:
        """The policy's dialog answers as JSON-safe data, cached."""
        if self._policy_dict is None:
            from repro.core.serialization import policy_to_dict

            self._policy_dict = policy_to_dict(self.policy)
        return self._policy_dict

    def audit_update(
        self,
        audit: AuditLog,
        op: str,
        items: int = 1,
        error: Optional[BaseException] = None,
        journal_entry: Optional[int] = None,
        translated: bool = True,
        **payload: Any,
    ) -> int:
        """Append one audit record; the outcome follows from ``error``.

        No error is ``committed``. An ``Exception`` means the update was
        rejected or rolled back: nothing landed, so no images are
        recorded. Any other ``BaseException`` is a (simulated) crash:
        the record says ``crashed`` until reconciliation against the
        journal settles it. ``payload`` is :meth:`AuditLog.append`'s
        ``plan``/``images`` or their already-encoded ``plan_records``/
        ``image_records``. ``translated=False`` (a shipped plan) leaves
        out the island, policy and user of a translation that did not
        happen here.
        """
        outcome = AUDIT_COMMITTED
        if isinstance(error, Exception):
            outcome = AUDIT_ROLLED_BACK
            payload.pop("images", None)
            payload.pop("image_records", None)
        elif error is not None:
            outcome = AUDIT_CRASHED
        if translated:
            payload.update(
                island=self.analysis.island_relations,
                policy=self._policy_answers(),
                user=self.user,
            )
        asn = audit.append(
            op=op,
            object_name=self.view_object.name,
            outcome=outcome,
            items=items,
            error=None if error is None else f"{type(error).__name__}: {error}",
            journal_entry=journal_entry,
            **payload,
        )
        # Trace -> audit cross-link: the record already carries the
        # ambient trace id; stamping the ASN on the enclosing span lets
        # an assembled trace surface its audit records too.
        span = obs.tracer().current
        if span is not None:
            span.set(asn=asn)
        return asn

    def _commit(
        self,
        land: Callable[[], Any],
        plan: UpdatePlan,
        op: str,
        items: int = 1,
        shipped: Optional[UpdateRecord] = None,
    ) -> None:
        """The one commit step of every write path: write the PENDING
        intent, land the plan, record the outcome, mark the entry.

        ``land`` makes the effects durable and must be all-or-nothing
        for an ``Exception`` — ``engine.apply_batch`` for a plan
        translated over an overlay, ``engine._finish_commit`` for the
        eager transaction whose effects are already applied (both roll
        back on failure). The plan and its images
        (:attr:`UpdatePlan.images`) are encoded once here, or taken
        verbatim from ``shipped``, and the same payloads go to journal
        and audit log.

        A failed landing marks the entry ABORTED and audits the update
        as rolled back; a simulated crash — a ``BaseException`` — leaves
        the entry PENDING for recovery and audits the update as crashed,
        to be reconciled once recovery settles its fate. A landed plan is
        audited ``committed`` *before* its entry is marked: a crash
        between the two leaves a PENDING entry that recovery settles, and
        the record is already there (an entry recovery aborts instead is
        folded back by :meth:`~repro.obs.audit.AuditLog.reconcile`).
        """
        registry = obs.metrics()
        journal, audit = self.journal, self.audit
        plan_records = image_records = None
        if shipped is not None:
            plan_records = shipped.plan_records
            image_records = shipped.image_records
        elif journal is not None or audit is not None:
            plan_records = encode_plan(plan)
            image_records = encode_images(plan.images)
        entry_id = None
        if journal is not None:
            entry_id = journal.begin_encoded(
                plan_records, image_records, label=self.view_object.name
            )
        record = dict(
            items=items,
            journal_entry=entry_id,
            translated=shipped is None,
            plan_records=plan_records,
            image_records=image_records,
        )
        try:
            land()
        except BaseException as exc:
            if isinstance(exc, Exception):
                if entry_id is not None:
                    journal.mark_aborted(entry_id)
                registry.counter("translation_failures_total", op=op).inc()
            if audit is not None:
                self.audit_update(audit, op, error=exc, **record)
            raise
        if audit is not None:
            try:
                self.audit_update(audit, op, **record)
            except Exception:
                if entry_id is not None:
                    journal.mark_committed(entry_id)
                raise
        if entry_id is not None:
            journal.mark_committed(entry_id)
        registry.counter("translations_total", op=op).inc()
        registry.histogram("plan_ops", op=op).observe(len(plan))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Translator({self.view_object.name!r})"


# Section 5's operation taxonomy, once: request class -> (op label,
# translate function over the request's resolved anchor). Both translate
# halves dispatch through it (Translator._translate).
_REQUESTS: Dict[type, Any] = {
    CompleteInsertion: (
        "insert", lambda t, ctx, i, r: t.program.run_insertion(ctx, i)
    ),
    CompleteDeletion: (
        "delete", lambda t, ctx, i, r: t.program.run_deletion(ctx, i)
    ),
    Replacement: (
        "replace",
        lambda t, ctx, i, r: t.program.run_replacement(
            ctx, i, t._coerce_instance(r.new)
        ),
    ),
    PartialInsertion: (
        "partial_insert",
        lambda t, ctx, i, r: translate_partial_insertion(
            t.program, ctx, i, r.node_id, r.values
        ),
    ),
    PartialDeletion: (
        "partial_delete",
        lambda t, ctx, i, r: translate_partial_deletion(
            t.program, ctx, i, r.node_id, r.values
        ),
    ),
    PartialUpdate: (
        "partial_update",
        lambda t, ctx, i, r: translate_partial_update(
            t.program, ctx, i, r.node_id, r.old_values, r.new_values
        ),
    ),
}


def vouch(audit: Optional[AuditLog], engine: Engine) -> None:
    """Before an audit log's first record, the digest of the live state
    it starts from (:func:`~repro.obs.history.state_digest`), which
    ``replay`` holds ``as_of(0)`` to. Every write door calls this before
    it changes anything — a batch write in its translate half — so the
    live state is the state before the update; an overlay's live state
    is its base's."""
    if audit is not None and not len(audit):
        while isinstance(engine, BufferedEngine):
            engine = engine.base
        audit.vouch(state_digest(snapshot(engine)))


def _request_entry(request: UpdateRequest):
    try:
        return _REQUESTS[type(request)]
    except KeyError:
        raise UpdateError(f"unknown update request: {request!r}") from None
