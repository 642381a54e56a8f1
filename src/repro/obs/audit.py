"""The update audit log: every view-level update as an immutable record.

The paper's translator turns one view-object update into "the set of
database operations". An :class:`AuditLog` makes each execution
permanent: it assigns every view-level update a monotonically
increasing **audit sequence number** (ASN) and records the view
operation as submitted (op kind, object name, item count, user), the
dependency island, the :class:`~repro.relational.operations.UpdatePlan`
as translated, the per-cell before/after images (the journal's
encoding), the translator policy answers in force, and the
**outcome**: ``committed``, ``rolled_back``, ``degraded_rejected`` (the
serving layer refused it while the circuit breaker was open), or
``crashed`` (recovery later settles it via :meth:`AuditLog.reconcile`).

Like the journal, the log is append-only: an outcome change is a
*resolution marker* appended after the fact, never an in-place edit.
The record type (:class:`~repro.relational.journal.UpdateRecord`) and
the file under the durable backend are the journal's own, so the two
logs share one crash discipline by sharing its code: every append is
fsynced, a torn tail line is truncated on reopen, and any other damaged
line raises :class:`~repro.errors.AuditError` with path and line.

On top of this log sit :class:`~repro.obs.lineage.LineageIndex`
(``why`` / ``history`` per tuple) and :mod:`repro.obs.history`
(``as_of`` time travel, ``replay`` verification).
"""

from __future__ import annotations

import json
import os
import sys
import threading
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import AuditError
from repro.obs.context import current_trace_id
from repro.relational.journal import (
    Images,
    JsonLinesFile,
    PlanJournal,
    UpdateRecord,
    encode_images,
    encode_plan,
)
from repro.relational.journal import ABORTED as JOURNAL_ABORTED
from repro.relational.journal import COMMITTED as JOURNAL_COMMITTED
from repro.relational.operations import UpdatePlan

__all__ = [
    "COMMITTED",
    "ROLLED_BACK",
    "DEGRADED_REJECTED",
    "CRASHED",
    "AuditLog",
    "MemoryAuditLog",
    "FileAuditLog",
    "ShippingCursor",
]

COMMITTED = "committed"
ROLLED_BACK = "rolled_back"
DEGRADED_REJECTED = "degraded_rejected"
CRASHED = "crashed"
OUTCOMES = (COMMITTED, ROLLED_BACK, DEGRADED_REJECTED, CRASHED)


class AuditLog:
    """Common machinery of the audit backends (append-only, thread-safe).

    Records are kept in append order, which is ASN order — the log
    assigns ASNs itself — so reads never sort and a read "since ASN n"
    starts at a position found by bisection.

    :attr:`version` increments on every append *and* resolution; the
    :class:`~repro.obs.lineage.LineageIndex` uses it to know when its
    derived chains are stale.
    """

    def __init__(self) -> None:
        self._records: List[UpdateRecord] = []
        self._asns: List[int] = []  # _records[i].id, for bisection
        self._lock = threading.Lock()
        self.version = 0
        #: The digest of the state before the first record
        #: (:func:`~repro.obs.history.state_digest`), or None.
        self.seed: Optional[str] = None

    # -- writing ------------------------------------------------------------

    def vouch(self, digest: str) -> None:
        """Record the digest of the state the log starts from; only an
        empty log takes one, and the last one before the first record
        stands. ``replay`` holds ``as_of(0)`` to it."""
        with self._lock:
            if self._records:
                raise AuditError("only an empty audit log takes a seed digest")
            if digest != self.seed:
                self.seed = digest
                self._append_payload({"event": "seed", "digest": digest})

    def append(
        self, op: str, object_name: str, outcome: str,
        plan: Optional[UpdatePlan] = None, images: Optional[Images] = None,
        island: Iterable[str] = (), policy: Optional[Dict[str, Any]] = None,
        user: Optional[str] = None, items: int = 1, error: Optional[str] = None,
        journal_entry: Optional[int] = None,
        plan_records: Optional[List[Dict[str, Any]]] = None,
        image_records: Optional[List[List[Any]]] = None,
        trace_id: Optional[str] = None,
    ) -> int:
        """Record one view-level update; returns its ASN.

        ``plan_records``/``image_records`` accept payloads already in
        the journal's encoded form (log shipping hands replicas the
        primary's encodings verbatim); when given, ``plan``/``images``
        are ignored and no re-encoding happens on the write path.

        ``trace_id`` cross-links the record to the distributed trace
        that produced it; when omitted, the ambient
        :class:`~repro.obs.context.TraceContext` (if any) is stamped,
        so every audited update inside a traced request joins the
        trace for free.
        """
        _check_outcome(outcome)
        if trace_id is None:
            trace_id = current_trace_id()
        if plan_records is None:
            plan_records = encode_plan(plan) if plan is not None else []
        if image_records is None:
            image_records = encode_images(images) if images is not None else []
        with self._lock:
            record = UpdateRecord(
                self.head_asn() + 1, outcome, plan_records, image_records,
                op=op, label=object_name, items=items, trace_id=trace_id,
                island=island, policy=policy, user=user, error=error,
                journal_entry=journal_entry,
            )
            self._admit(record)
            self._append_record(record)
        return record.id

    def resolve(
        self, asn: int, outcome: str, error: Optional[str] = None
    ) -> None:
        """Append a resolution marker changing a record's outcome.

        Used by :meth:`reconcile` when journal recovery settles the fate
        of an update audited as ``crashed``.
        """
        _check_outcome(outcome)
        with self._lock:
            self._settle(asn, outcome, error)
            self._append_payload(
                {"event": "resolve", "asn": asn, "outcome": outcome,
                 **({"error": error} if error is not None else {})}
            )

    def _admit(self, record: UpdateRecord) -> None:
        if record.id <= self.head_asn():
            raise AuditError(f"audit record #{record.id} does not follow #{self.head_asn()}")
        self._records.append(record)
        self._asns.append(record.id)
        self.version += 1

    def _settle(self, asn: int, outcome: str, error: Optional[str]) -> None:
        record = self._find(asn)
        record.state = outcome
        if error is not None:
            record.error = error
        self.version += 1

    def _find(self, asn: int) -> UpdateRecord:
        position = bisect_right(self._asns, asn) - 1
        if position < 0 or self._asns[position] != asn:
            raise AuditError(f"unknown audit record #{asn}")
        return self._records[position]

    def reconcile(self, journal: PlanJournal) -> int:
        """Settle every ``crashed`` record against the journal's verdict.

        A crash between audit append and commit leaves the record
        ``crashed`` and its journal entry PENDING; once
        :func:`~repro.relational.journal.recover` has marked the entry
        COMMITTED or ABORTED, this folds that verdict back so
        ``replay``/``as_of`` see the truth. Idempotent; returns how many
        records were resolved."""
        settled = 0
        for record in self.records():
            if record.state != CRASHED or record.journal_entry is None:
                continue
            verdict = journal.verdict(record.journal_entry)
            if verdict == JOURNAL_COMMITTED:
                self.resolve(record.id, COMMITTED)
                settled += 1
            elif verdict == JOURNAL_ABORTED:
                self.resolve(record.id, ROLLED_BACK, error="reverted by recovery")
                settled += 1
        return settled

    # -- reading ------------------------------------------------------------

    def records(self) -> List[UpdateRecord]:
        """Every record, in ASN order."""
        with self._lock:
            return list(self._records)

    def committed(self) -> List[UpdateRecord]:
        """The records whose effects are in the database, in ASN order."""
        return self.committed_since(0)

    def committed_since(self, asn: int) -> List[UpdateRecord]:
        """Committed records with an ASN strictly greater than ``asn``.

        The log-shipping read: a :class:`ShippingCursor` calls this to
        find what a replica has not been sent yet. Records resolved to a
        non-committed outcome (or not yet committed) are skipped — and a
        ``crashed`` record that recovery later resolves to committed
        shows up on the first call after the resolution, which is
        exactly when its effects become shippable.
        """
        with self._lock:
            fresh = self._records[bisect_right(self._asns, asn):]
        return [r for r in fresh if r.state == COMMITTED]

    def records_for_trace(self, trace_id: str) -> List[UpdateRecord]:
        """Every record stamped with ``trace_id``, in ASN order: the
        trace→audit direction of the cross-link (``why()`` gives the
        other, since a lineage link's record carries the trace id)."""
        return [r for r in self.records() if r.trace_id == trace_id]

    def tail(self, n: int = 10) -> List[UpdateRecord]:
        """The newest ``n`` records, oldest first (none for ``n == 0``)."""
        if n < 0:
            raise ValueError(f"tail needs a count >= 0, not {n}")
        return self.records()[-n:] if n else []

    def record(self, asn: int) -> UpdateRecord:
        with self._lock:
            return self._find(asn)

    def head_asn(self) -> int:
        """The highest assigned ASN (0 when the log is empty)."""
        return self._asns[-1] if self._asns else 0

    def __len__(self) -> int:
        return len(self._records)

    # -- backend hooks -------------------------------------------------------

    def _append_payload(self, payload: Dict[str, Any]) -> None:
        """Persist one event (called under the log lock)."""

    def _append_record(self, record: UpdateRecord) -> None:
        """Persist one record (called under the log lock)."""
        self._append_payload({"event": "record", **record.as_dict()})

    def close(self) -> None:
        pass


def _check_outcome(outcome: str) -> None:
    if outcome not in OUTCOMES:
        raise AuditError(f"unknown audit outcome {outcome!r}; choose from {OUTCOMES}")


class ShippingCursor:
    """Tracks how far a log-shipping consumer has read an audit log.

    The replication layer keeps one cursor per shard primary: each
    committed record the primary's :class:`AuditLog` gains is *taken*
    exactly once (:meth:`take`) and shipped to the replicas as it is.
    :meth:`lag` is the number of committed records not yet
    taken — the primary-side half of lag accounting (the replica-side
    half, received-but-unapplied, lives in the replica's inbox).

    The cursor starts at the log's current head by default: replicas
    attached to a primary with prior history receive their baseline via
    seeding, not via replay from ASN 0.
    """

    def __init__(self, log: AuditLog, start_asn: Optional[int] = None) -> None:
        self.log = log
        self.asn = log.head_asn() if start_asn is None else start_asn

    def pending(self) -> List[UpdateRecord]:
        """Committed records not yet taken, in ASN order."""
        return self.log.committed_since(self.asn)

    def take(self) -> List[UpdateRecord]:
        """Return the pending records and advance past them."""
        fresh = self.pending()
        if fresh:
            self.asn = fresh[-1].id
        return fresh

    def skip(self, asn: int) -> None:
        """Advance past ``asn`` without shipping it: its effects went
        by another channel (a cross-shard transaction ships each
        participant's sub-plan during the two-phase commit; shipping the
        owner's full record too would apply foreign sub-plans)."""
        self.asn = max(self.asn, asn)

    def lag(self) -> int:
        """How many committed records the consumer has not taken."""
        return len(self.pending())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShippingCursor(asn={self.asn}, lag={self.lag()})"


class MemoryAuditLog(AuditLog):
    """Audit log kept only in memory — tests and ephemeral sessions."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryAuditLog({len(self._records)} records)"


class _FiledRecord(UpdateRecord):
    """A record folded from its line on reopen: it holds the small
    fields and the line's place, and reads the plan and images back
    from the file on demand."""

    __slots__ = ("_log", "_offset", "_length")

    def __init__(self, log, offset, length, payload, policy, island) -> None:
        self._log, self._offset, self._length = log, offset, length
        self.id, self.items = payload["asn"], payload.get("items", 1)
        self.state, self.op, self.label = (
            sys.intern(payload[name]) for name in ("outcome", "op", "object")
        )
        self.trace_id, self.policy, self.island = payload.get("trace"), policy, island
        self.user, self.error = payload.get("user"), payload.get("error")
        self.journal_entry = payload.get("journal_entry")

    @property
    def plan_records(self) -> List[Dict[str, Any]]:
        return self._log._reread(self)["plan"]

    @property
    def image_records(self) -> List[List[Any]]:
        return self._log._reread(self)["images"]

    def _payloads(self) -> Tuple[List[Dict[str, Any]], List[List[Any]]]:
        line = self._log._reread(self)  # one read for both
        return line["plan"], line["images"]


class FileAuditLog(AuditLog):
    """Durable audit log: append-only JSON lines, fsync'd per append.

    A translator's policy answers and dependency island are written
    once, as a ``translator`` event appended before the first record
    that names it; a record line carries ``"translator": id`` in their
    place (a line carrying them inline, the older format, still folds).
    Reopening folds every record, resolution marker and the seed digest.
    A reopened record holds its small fields and its line's place and
    reads its plan and images back from the file; records of one
    content share one policy dict and island. A record appended by this
    process keeps the payload it was handed. The file is the
    :class:`~repro.relational.journal.JsonLinesFile` under
    :class:`~repro.relational.journal.FileJournal` too: a torn final
    line is truncated away, any other damaged line (one naming an
    undefined translator included) raises :class:`~repro.errors.AuditError`.
    """

    def __init__(self, path) -> None:
        super().__init__()
        # id -> (policy, island); a negative id is content met only
        # inline (older lines), never defined in the file.
        self._translators: Dict[int, Tuple[Dict[str, Any], Tuple[str, ...]]] = {}
        self._by_content: Dict[str, int] = {}  # canonical JSON -> id
        # id(policy) -> (policy, island, id): a translator hands every
        # record its one cached policy dict, so a repeat encodes nothing.
        self._by_policy: Dict[int, Tuple[Any, Tuple[str, ...], int]] = {}
        self._file = JsonLinesFile(path, self._fold, AuditError, "audit")
        self.path = self._file.path
        self._reader: Optional[int] = os.open(self.path, os.O_RDONLY)

    def _fold(self, payload: Dict[str, Any], offset: int, length: int) -> None:
        event = payload["event"]
        if event == "record":
            payload["plan"], payload["images"]  # a line without them is damage
            named = payload.get("translator")
            if named is None:
                policy, island = payload.get("policy"), payload.get("island", ())
                if policy is not None:
                    policy, island = self._shared(policy, island)
            elif named in self._translators:
                policy, island = self._translators[named]
            else:
                raise AuditError(f"unknown translator #{named}")
            self._admit(
                _FiledRecord(self, offset, length, payload, policy, tuple(island))
            )
        elif event == "resolve":
            outcome = sys.intern(payload["outcome"])
            self._settle(payload["asn"], outcome, payload.get("error"))
        elif event == "seed":
            self.seed = payload["digest"]
        elif event == "translator":
            self._define(payload["id"], payload["policy"], tuple(payload["island"]))
        else:
            raise AuditError(f"unknown audit event {event!r}")

    def _define(self, translator: int, policy, island) -> None:
        self._translators[translator] = (policy, island)
        self._by_content[json.dumps([policy, island], sort_keys=True)] = translator

    def _shared(self, policy: Dict[str, Any], island):
        """The one ``(policy, island)`` pair of an inline record's content."""
        translator = self._by_content.get(json.dumps([policy, island], sort_keys=True))
        if translator is None:
            translator = -len(self._translators) - 1
            self._define(translator, policy, tuple(island))
        return self._translators[translator]

    def _translator_id(self, policy: Dict[str, Any], island) -> int:
        """The id naming ``(policy, island)`` in this file; the first
        time, append the ``translator`` event that defines it."""
        known = self._by_policy.get(id(policy))
        if known is not None and known[0] is policy and known[1] == island:
            return known[2]
        translator = self._by_content.get(json.dumps([policy, island], sort_keys=True))
        if translator is None or translator < 0:
            translator = max([0, *self._translators]) + 1
            self._file.append({"event": "translator", "id": translator,
                               "policy": policy, "island": list(island)})
            self._define(translator, policy, island)
        self._by_policy[id(policy)] = (policy, island, translator)
        return translator

    def _append_record(self, record: UpdateRecord) -> None:
        payload = {"event": "record", **record.as_dict()}
        if record.policy is not None:
            del payload["policy"], payload["island"]
            payload["translator"] = self._translator_id(record.policy, record.island)
        self._file.append(payload)

    def _append_payload(self, payload: Dict[str, Any]) -> None:
        self._file.append(payload)

    def _reread(self, record: _FiledRecord) -> Dict[str, Any]:
        """The line ``record`` was folded from, parsed again."""
        try:
            if self._reader is None:
                raise ValueError("the log is closed")
            return json.loads(os.pread(self._reader, record._length, record._offset))
        except (OSError, ValueError) as exc:
            raise AuditError(f"{self.path}: cannot read record #{record.id}: {exc}") from None

    def close(self) -> None:
        self._file.close()
        if self._reader is not None:
            os.close(self._reader)
            self._reader = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileAuditLog({self.path!r}, {len(self._records)} records)"
