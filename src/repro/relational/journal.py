"""Write-ahead intent journal for update plans, with crash recovery.

An engine transaction only protects against failures *inside* its
window. A crash between applying a plan and recording that it was
applied — or a storage layer whose multi-operation batch is not atomic
— leaves "did this plan happen?" unanswerable from the data alone. The
journal answers it:

1. before a plan is applied, it is serialized and appended with status
   ``PENDING`` (durably — the file-backed journal fsyncs), together
   with the *before/after images* of every (relation, key) cell it
   touches;
2. the plan is applied;
3. the entry is marked ``COMMITTED``.

:func:`recover` runs at :class:`~repro.penguin.Penguin` startup: any
entry still ``PENDING`` is re-resolved idempotently by comparing its
journaled images against the live tuples — if every cell shows the
after-image the plan completed (mark ``COMMITTED``); otherwise every
cell that moved is put back to its before-image and the entry is marked
``ABORTED``. Either way the database ends all-applied or all-reverted:
no torn plans.

A journal holds only what is in flight: a marker drops its entry, and
a resolved id is answered from the id counter and the set of aborted
ids (:meth:`PlanJournal.verdict`). Two backends: :class:`MemoryJournal`
(tests, ephemeral sessions) and :class:`FileJournal` (append-only JSON
lines, ``fsync`` on every append, folded line by line on open).

This module also owns what every log of updates shares: the JSON codec
for plans and images, :class:`UpdateRecord` — the one record type the
journal, the audit log and the replication stream all hold — the
append-only file under both durable logs (:class:`JsonLinesFile`), and
:func:`restore_images`, the one routine that drives cells back (or
forward) to their journaled images.
"""

from __future__ import annotations

import datetime
import json
import os
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import repro.obs as obs
from repro.errors import JournalError
from repro.obs.context import current_trace_id
from repro.relational.engine import Engine
from repro.relational.operations import (
    DatabaseOperation,
    Delete,
    Insert,
    Replace,
    UpdatePlan,
)

__all__ = [
    "PENDING",
    "COMMITTED",
    "ABORTED",
    "UpdateRecord",
    "PlanJournal",
    "MemoryJournal",
    "FileJournal",
    "plan_images",
    "restore_images",
    "JsonLinesFile",
    "recover",
    "RecoveryReport",
    "encode_plan",
    "encode_images",
]

PENDING = "pending"
COMMITTED = "committed"
ABORTED = "aborted"
# The label prefix of a two-phase intent (repro.shard.twophase).
TWO_PHASE_PREFIX = "2pc:"

Cell = Tuple[str, Tuple[Any, ...]]  # (relation, primary key)
Images = Dict[Cell, Tuple[Optional[Tuple[Any, ...]], Optional[Tuple[Any, ...]]]]


# ---------------------------------------------------------------------------
# Value serialization (JSON-safe round-trip for engine rows)
# ---------------------------------------------------------------------------


def _encode_scalar(value: Any) -> Any:
    if isinstance(value, datetime.datetime):  # narrowed defensively
        return {"$date": value.date().isoformat()}
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    return value


def _decode_scalar(value: Any) -> Any:
    if isinstance(value, dict) and "$date" in value:
        return datetime.date.fromisoformat(value["$date"])
    return value


def _encode_row(row: Optional[Sequence[Any]]) -> Optional[List[Any]]:
    if row is None:
        return None
    return [_encode_scalar(v) for v in row]


def _decode_row(row: Optional[Sequence[Any]]) -> Optional[Tuple[Any, ...]]:
    if row is None:
        return None
    return tuple(_decode_scalar(v) for v in row)


def encode_plan(plan: UpdatePlan) -> List[Dict[str, Any]]:
    out = []
    for operation, reason in zip(plan.operations, plan.reasons):
        record: Dict[str, Any] = {
            "kind": operation.kind,
            "relation": operation.relation,
        }
        if operation.kind in ("delete", "replace"):
            record["key"] = _encode_row(operation.key)
        if operation.kind in ("insert", "replace"):
            record["values"] = _encode_row(operation.values)
        if reason:
            record["reason"] = reason
        out.append(record)
    return out


def decode_plan(records: Iterable[Dict[str, Any]]) -> UpdatePlan:
    plan = UpdatePlan()
    for record in records:
        kind = record["kind"]
        relation = record["relation"]
        if kind == "insert":
            operation: DatabaseOperation = Insert(
                relation, _decode_row(record["values"])
            )
        elif kind == "delete":
            operation = Delete(relation, _decode_row(record["key"]))
        elif kind == "replace":
            operation = Replace(
                relation, _decode_row(record["key"]), _decode_row(record["values"])
            )
        else:
            raise JournalError(f"unknown journaled operation kind {kind!r}")
        plan.add(operation, record.get("reason", ""))
    return plan


def encode_images(images: Images) -> List[List[Any]]:
    return [
        [relation, _encode_row(key), _encode_row(before), _encode_row(after)]
        for (relation, key), (before, after) in images.items()
    ]


def decode_images(rows: Iterable[Sequence[Any]]) -> Images:
    images: Images = {}
    for relation, key, before, after in rows:
        images[(relation, _decode_row(key))] = (
            _decode_row(before),
            _decode_row(after),
        )
    return images


# ---------------------------------------------------------------------------
# Before/after image capture
# ---------------------------------------------------------------------------


def _cell_effects(engine: Engine, plan: UpdatePlan):
    """``(cell, value it holds afterwards)`` per operation, in plan order.

    A key-changing replacement has two effects — the vacated old key
    and the occupied new key.
    """
    for operation in plan.operations:
        relation = operation.relation
        if operation.kind == "delete":
            yield (relation, tuple(operation.key)), None
            continue
        values = tuple(operation.values)
        new_key = tuple(engine.schema(relation).key_of(values))
        if operation.kind == "replace" and new_key != tuple(operation.key):
            yield (relation, tuple(operation.key)), None
        yield (relation, new_key), values


def plan_images(engine: Engine, plan: UpdatePlan) -> Images:
    """Net before/after images of every cell ``plan`` will touch.

    Must be called *before* the plan is applied: before-images are read
    from the engine. Only for a plan landing on an engine that did not
    translate it (``Translator.apply_plan``, a two-phase participant's
    prepare); a translated write folds its images from its own record.
    """
    images: Images = {}
    for cell, value in _cell_effects(engine, plan):
        if cell in images:
            images[cell] = (images[cell][0], value)
        else:
            images[cell] = (engine.get(*cell), value)
    return images


# ---------------------------------------------------------------------------
# The record, the file, the restore — shared by every log of updates
# ---------------------------------------------------------------------------


class UpdateRecord:
    """One update as every log holds it.

    The journal's intent, the audit log's record and the unit of log
    shipping are the same thing — a translated plan and its cell images,
    kept in encoded form and shared by reference between the logs —
    under a log-assigned :attr:`id` (a journal's entry id, an audit
    log's ASN, 0 for a record no log numbered) and a :attr:`state` that
    only the owning log changes, by appending a marker: ``pending |
    committed | aborted`` in a journal, an audit outcome in an audit
    log. :attr:`label` names the view object (a 2PC intent carries its
    transaction label there). ``op`` and ``items`` are the view-level
    operation; ``island``, ``policy``, ``user``, ``error`` and
    ``journal_entry`` are filled by the audit log only.
    """

    __slots__ = (
        "id", "state", "plan_records", "image_records", "op", "label", "items",
        "trace_id", "island", "policy", "user", "error", "journal_entry",
    )

    def __init__(
        self, id: int, state: str, plan_records: List[Dict[str, Any]],
        image_records: List[List[Any]], op: str = "", label: str = "",
        items: int = 1, trace_id: Optional[str] = None, island: Sequence[str] = (),
        policy: Optional[Dict[str, Any]] = None, user: Optional[str] = None,
        error: Optional[str] = None, journal_entry: Optional[int] = None,
    ) -> None:
        self.id, self.state, self.op, self.label, self.items = id, state, op, label, items
        self.plan_records, self.image_records = plan_records, image_records
        # The originating request's trace id rides the record across
        # restarts and the thread boundary contextvars cannot cross.
        self.trace_id = trace_id
        self.island, self.policy, self.user = tuple(island), policy, user
        self.error, self.journal_entry = error, journal_entry

    def plan(self) -> UpdatePlan:
        return decode_plan(self.plan_records)

    def images(self) -> Images:
        return decode_images(self.image_records)

    def _payloads(self) -> Tuple[List[Dict[str, Any]], List[List[Any]]]:
        """``(plan_records, image_records)``, read together."""
        return self.plan_records, self.image_records

    def as_dict(self) -> Dict[str, Any]:
        """The record as the audit log writes and serves it."""
        plan_records, image_records = self._payloads()
        out: Dict[str, Any] = {
            "asn": self.id,
            "op": self.op,
            "object": self.label,
            "outcome": self.state,
            "items": self.items,
            "plan": plan_records,
            "images": image_records,
            "island": list(self.island),
        }
        if self.policy is not None:
            out["policy"] = self.policy
        if self.user is not None:
            out["user"] = self.user
        if self.error is not None:
            out["error"] = self.error
        if self.journal_entry is not None:
            out["journal_entry"] = self.journal_entry
        if self.trace_id is not None:
            out["trace"] = self.trace_id
        return out

    def describe(self) -> str:
        """One human-readable line (the ``audit tail`` format)."""
        plan_records, image_records = self._payloads()
        parts = [f"#{self.id}", f"{self.label}.{self.op}", self.state,
                 f"ops={len(plan_records)}", f"cells={len(image_records)}"]
        if self.items != 1:
            parts.append(f"items={self.items}")
        if self.user is not None:
            parts.append(f"user={self.user}")
        if self.journal_entry is not None:
            parts.append(f"journal=#{self.journal_entry}")
        if self.error is not None:
            parts.append(f"error={self.error!r}")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UpdateRecord(#{self.id}, {self.label}.{self.op}, "
            f"{self.state}, {len(self.plan_records)} ops)"
        )


class JsonLinesFile:
    """The append-only JSON-lines file under both durable logs.

    Opening replays the file through ``fold(event, offset, length)``,
    the owning log's event vocabulary, one line at a time (``offset`` and
    ``length`` place the line in the file, for a log that reads it back):
    reopening holds one line in memory besides what ``fold`` keeps,
    never the whole file. An append goes
    out as ``line + "\\n"`` in one write, so a crash mid-append can only
    leave a final line *without* its newline: that torn tail is
    truncated away (the append it belongs to never returned), and the
    next append starts where it began. Blank lines are skipped. Any
    newline-terminated line that is not JSON, lacks a field or is
    refused by ``fold`` is damage and raises ``error`` with the path and
    line number.
    """

    def __init__(self, path, fold, error, what: str) -> None:
        self.path = os.fspath(path)
        if os.path.exists(self.path):
            intact = 0
            with open(self.path, "rb") as f:
                for line_no, line in enumerate(f, 1):
                    if not line.endswith(b"\n"):
                        break  # the torn tail
                    offset, intact = intact, intact + len(line)
                    if not line.strip():
                        continue
                    try:
                        fold(json.loads(line), offset, len(line))
                    except error as exc:
                        raise error(f"{self.path}:{line_no}: {exc}") from None
                    except (ValueError, KeyError, TypeError) as exc:
                        raise error(
                            f"{self.path}:{line_no}: corrupt {what} record"
                        ) from exc
                torn = f.tell() > intact
            if torn:
                with open(self.path, "r+b") as f:
                    f.truncate(intact)
        self._file = open(self.path, "a", encoding="utf-8")

    def append(self, event: Dict[str, Any]) -> None:
        self._file.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()


def _value_chains(
    engine: Engine, images: Images, plan: UpdatePlan
) -> Dict[Cell, List[Optional[Tuple[Any, ...]]]]:
    """Every value each imaged cell passes through, in plan order.

    A plan lands what its translation emitted, so it may touch a cell
    more than once (insert then replace, say — within one request or
    across a batch's requests); interrupted, it can leave the cell at an
    *intermediate* value matching neither net image. Simulating the
    plan forward from the before-images recovers the full value
    history, so :func:`restore_images` can tell a torn intermediate
    state (restorable) from a foreign write (a conflict).
    """
    chains: Dict[Cell, List[Optional[Tuple[Any, ...]]]] = {
        cell: [before] for cell, (before, _) in images.items()
    }
    for cell, value in _cell_effects(engine, plan):
        chain = chains.get(cell)
        if chain is not None and chain[-1] != value:
            chain.append(value)
    return chains


def restore_images(
    engine: Engine,
    images: Images,
    to_after: bool,
    plan: Optional[UpdatePlan] = None,
) -> List[Cell]:
    """Drive every cell of ``images`` to its after- or before-image.

    Runs in one transaction and returns the cells it left alone. A cell
    already at its target is skipped; a cell is only moved from a value
    the update itself can have left there — one of its two images, or,
    when the journaled ``plan`` is given, an intermediate value of a
    plan that touches the cell more than once (see
    :func:`_value_chains`). Any other value was written by someone else
    after the crash: the cell is reported as a conflict rather than
    clobbered. Every restore that can meet a torn plan passes it.

    Crash recovery (single-shard and two-phase), a replica's retract
    and a primary's quorum revert all restore through here.
    """
    legitimate = images if plan is None else _value_chains(engine, images, plan)
    conflicts: List[Cell] = []
    engine.begin()
    try:
        for (relation, key), (before, after) in images.items():
            target = after if to_after else before
            current = engine.get(relation, key)
            if current == target:
                continue
            if current not in legitimate[(relation, key)]:
                conflicts.append((relation, key))
                continue
            if target is None:
                engine.delete(relation, key)
            elif current is None:
                engine.insert(relation, target)
            else:
                engine.replace(relation, key, target)
    except Exception:
        engine.rollback()
        raise
    engine.commit()
    return conflicts


# ---------------------------------------------------------------------------
# Journal backends
# ---------------------------------------------------------------------------


class PlanJournal:
    """Common machinery of the journal backends.

    The journal is append-only: ``begin`` appends a ``PENDING`` record
    carrying the serialized plan and images; ``mark_committed`` /
    ``mark_aborted`` append status markers referencing the entry id.
    Readers fold markers over entries, so replaying a journal file
    reconstructs exactly the in-memory state.

    It holds what is still in flight. A marker, appended or folded,
    drops its entry: what is left is the id counter and, for an abort,
    the id in a set, so :meth:`verdict` still answers for every id. A
    two-phase entry (a ``2pc:`` label) leaves a stub of its id, label
    and state instead, because recovering its transaction reads a
    resolved sibling (:func:`~repro.shard.twophase.recover_two_phase`).
    """

    def __init__(self) -> None:
        self._entries: Dict[int, UpdateRecord] = {}  # held, in append order
        self._aborted: Set[int] = set()
        self._next_id = 1
        self._lock = threading.Lock()

    # -- writing ------------------------------------------------------------

    def begin(self, plan: UpdatePlan, images: Images, label: str = "") -> int:
        """Append a PENDING entry; returns its id."""
        return self.begin_encoded(
            encode_plan(plan), encode_images(images), label
        )

    def begin_encoded(
        self,
        plan_records: List[Dict[str, Any]],
        image_records: List[List[Any]],
        label: str = "",
    ) -> int:
        """Append a PENDING entry from already-encoded payloads.

        The replica apply path journals the exact records the primary
        shipped; re-encoding a plan it just decoded would double the
        serialization cost for byte-identical output.

        The intent is stamped with the ambient trace id (if a
        :class:`~repro.obs.context.TraceContext` is active), so a
        recovered journal can still answer *which request* left a
        PENDING entry behind.
        """
        trace_id = current_trace_id()
        with self._lock:
            entry = UpdateRecord(
                self._next_id, PENDING, plan_records, image_records,
                label=label, trace_id=trace_id,
            )
            self._admit(entry)
            event = {"event": PENDING, "id": entry.id, "label": label,
                     "plan": plan_records, "images": image_records}
            if trace_id is not None:
                event["trace"] = trace_id
            self._append(event)
        return entry.id

    def mark_committed(self, entry_id: int) -> None:
        self._mark(entry_id, COMMITTED)

    def mark_aborted(self, entry_id: int) -> None:
        self._mark(entry_id, ABORTED)

    def _mark(self, entry_id: int, state: str) -> None:
        with self._lock:
            self._settle(entry_id, state)
            self._append({"event": state, "id": entry_id})

    def _admit(self, entry: UpdateRecord) -> None:
        self._entries[entry.id] = entry
        self._next_id = max(self._next_id, entry.id + 1)

    def _settle(self, entry_id: int, state: str) -> None:
        entry = self._find(entry_id)
        if state == ABORTED:
            self._aborted.add(entry_id)
        if entry.label.startswith(TWO_PHASE_PREFIX):
            self._entries[entry_id] = UpdateRecord(entry_id, state, [], [], label=entry.label)
        else:
            del self._entries[entry_id]

    def _find(self, entry_id: int) -> UpdateRecord:
        try:
            return self._entries[entry_id]
        except KeyError:
            raise JournalError(f"unknown journal entry #{entry_id}") from None

    # -- reading ------------------------------------------------------------

    def entries(self) -> List[UpdateRecord]:
        """The held entries, in id order: every PENDING one, whole, and
        the stub of every resolved two-phase entry."""
        with self._lock:
            return list(self._entries.values())

    def pending(self) -> List[UpdateRecord]:
        with self._lock:
            return [e for e in self._entries.values() if e.state == PENDING]

    def entry(self, entry_id: int) -> UpdateRecord:
        """A held entry; :meth:`verdict` answers for any id."""
        with self._lock:
            return self._find(entry_id)

    def verdict(self, entry_id: int) -> Optional[str]:
        """What became of entry ``entry_id``: its state if held, else
        ABORTED if it was aborted, else COMMITTED if it was ever begun;
        None for an id this journal never issued."""
        with self._lock:
            entry = self._entries.get(entry_id)
            if entry is not None:
                return entry.state
            if entry_id in self._aborted:
                return ABORTED
            return COMMITTED if 0 < entry_id < self._next_id else None

    def counts(self) -> Dict[str, int]:
        """How many entries are PENDING, COMMITTED and ABORTED."""
        with self._lock:
            pending = sum(e.state == PENDING for e in self._entries.values())
            aborted = len(self._aborted)
            committed = self._next_id - 1 - pending - aborted
        return {PENDING: pending, COMMITTED: committed, ABORTED: aborted}

    def __len__(self) -> int:
        """How many entries were ever begun: the id counter's mark."""
        return self._next_id - 1

    # -- backend hook --------------------------------------------------------

    def _append(self, event: Dict[str, Any]) -> None:
        """Persist one event (called under the journal lock)."""

    def close(self) -> None:
        pass


class MemoryJournal(PlanJournal):
    """Journal kept only in memory — for tests and ephemeral sessions."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryJournal({len(self._entries)} entries)"


class FileJournal(PlanJournal):
    """Durable journal: append-only JSON lines, fsync'd per append.

    Reopening the same path folds the file line by line, markers
    included, so a restarted process holds what the pre-crash journal
    held — every entry still PENDING, which :func:`recover` then
    resolves, and the verdict of every resolved one — minus a PENDING
    line the crash tore mid-append (:class:`JsonLinesFile`): that intent
    was never acknowledged, so nothing was applied under it.
    """

    def __init__(self, path) -> None:
        super().__init__()
        self._file = JsonLinesFile(path, self._fold, JournalError, "journal")
        self.path = self._file.path

    def _fold(self, event: Dict[str, Any], *_line) -> None:
        kind = event["event"]
        if kind == PENDING:
            self._admit(UpdateRecord(
                event["id"], PENDING, event["plan"], event["images"],
                label=event.get("label", ""), trace_id=event.get("trace"),
            ))
        elif kind in (COMMITTED, ABORTED):
            self._settle(event["id"], kind)
        else:
            raise JournalError(f"unknown event {kind!r}")

    def _append(self, event: Dict[str, Any]) -> None:
        self._file.append(event)

    def close(self) -> None:
        self._file.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileJournal({self.path!r}, {len(self._entries)} entries)"


# ---------------------------------------------------------------------------
# Journaled application and recovery
# ---------------------------------------------------------------------------


class RecoveryReport:
    """What :func:`recover` found and did."""

    def __init__(self) -> None:
        self.replayed: List[int] = []  # confirmed complete -> COMMITTED
        self.reverted: List[int] = []  # rolled back -> ABORTED
        self.conflicts: List[Tuple[int, str, Tuple[Any, ...]]] = []
        self.transactions_discarded = 0

    @property
    def clean(self) -> bool:
        """True when recovery resolved everything without conflicts."""
        return not self.conflicts

    def as_dict(self) -> Dict[str, Any]:
        return {"replayed": list(self.replayed), "reverted": list(self.reverted),
                "conflicts": list(self.conflicts),
                "transactions_discarded": self.transactions_discarded}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RecoveryReport(replayed={len(self.replayed)}, "
                f"reverted={len(self.reverted)}, conflicts={len(self.conflicts)})")


def recover(engine: Engine, journal: PlanJournal) -> RecoveryReport:
    """Resolve every PENDING journal entry, idempotently.

    For each pending plan, the live tuple of every journaled cell is
    compared against the before/after images:

    * every cell at its after-image → the plan completed before the
      crash; mark it ``COMMITTED`` (nothing to re-apply);
    * otherwise → :func:`restore_images` puts each cell that moved back
      to its before-image and the entry is marked ``ABORTED``.

    The entry's plan is handed to the restore, so a cell at an
    *intermediate* value of a multi-touch plan (the crash hit between
    two operations on the same cell) is still reverted; only a value the
    plan never produces means someone else wrote the cell after the
    crash, and it is reported as a conflict rather than clobbered.
    Running recover twice is a no-op the second time.
    """
    report = RecoveryReport()

    with obs.tracer().span("journal.recover") as span:
        # A simulated crash can leave the engine mid-transaction; a real
        # restart would discard that transaction implicitly, so do the same.
        while getattr(engine, "in_transaction", False):
            engine.rollback()
            report.transactions_discarded += 1
        for entry in journal.pending():
            images = entry.images()
            if all(
                engine.get(relation, key) == after
                for (relation, key), (_, after) in images.items()
            ):
                journal.mark_committed(entry.id)
                report.replayed.append(entry.id)
                continue
            for relation, key in restore_images(
                engine, images, to_after=False, plan=entry.plan()
            ):
                report.conflicts.append((entry.id, relation, key))
            journal.mark_aborted(entry.id)
            report.reverted.append(entry.id)
        span.set(replayed=len(report.replayed), reverted=len(report.reverted),
                 conflicts=len(report.conflicts))
    return report
