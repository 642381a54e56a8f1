"""Time travel and replay verification over the audit log.

Two capabilities turn the audit log from a passive trail into a
correctness oracle:

* :func:`as_of` — reconstruct any relation's state at a past ASN by
  *undoing* the committed records newer than it, newest first, using
  their before-images. Every undo step is verified against the state it
  expects (the record's after-image must match what is there): a
  mismatch means a write bypassed the audit trail, and with
  ``verify=True`` that raises :class:`~repro.errors.AuditError` instead
  of silently producing a fictional past.
* :func:`replay` — re-execute the audited plans, in ASN order, onto a
  fresh engine seeded with the reconstructed initial state, then compare
  the final state byte for byte against the live engine. Rolled-back,
  degraded-rejected, and unreconciled crashed records are *excluded* —
  their effects are not in the database, so replaying them would be
  wrong — and reported as skipped. A clean report proves the audit log
  is a complete, faithful account of how the database got here.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import AuditError
from repro.obs.audit import COMMITTED, AuditLog
from repro.relational.engine import Engine

__all__ = ["as_of", "divergence", "replay", "ReplayReport", "state_digest"]

RelationState = Dict[Tuple[Any, ...], Tuple[Any, ...]]
DatabaseState = Dict[str, RelationState]


def snapshot(engine: Engine) -> DatabaseState:
    """Every relation's rows keyed by primary key (live state)."""
    state: DatabaseState = {}
    for name in engine.relation_names():
        schema = engine.schema(name)
        state[name] = {
            tuple(schema.key_of(row)): tuple(row)
            for row in engine.scan(name)
        }
    return state


def state_digest(state: DatabaseState) -> str:
    """One hash of a database state: its non-empty relations by name,
    each one's rows in key order, so two states have equal digests
    exactly when they hold the same rows."""
    canonical = [
        (name, sorted(rows.items(), key=repr))
        for name, rows in sorted(state.items())
        if rows
    ]
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()


def divergence(
    engine: Engine, other: Engine
) -> List[Tuple[str, Tuple[Any, ...], Any, Any]]:
    """Cells where two engines' states differ, byte for byte.

    Returns ``(relation, key, value_in_engine, value_in_other)`` tuples
    in a stable order; empty means the states are identical. This is the
    replication layer's convergence check: a primary and a caught-up
    replica must diverge nowhere.
    """
    live = snapshot(engine)
    shadow = snapshot(other)
    diffs: List[Tuple[str, Tuple[Any, ...], Any, Any]] = []
    for name in set(live) | set(shadow):
        rows = live.get(name, {})
        other_rows = shadow.get(name, {})
        for key in set(rows) | set(other_rows):
            a = rows.get(key)
            b = other_rows.get(key)
            if a != b:
                diffs.append((name, key, a, b))
    diffs.sort(key=lambda d: (d[0], repr(d[1])))
    return diffs


def as_of(
    log: AuditLog,
    engine: Engine,
    asn: int,
    relation: Optional[str] = None,
    verify: bool = True,
) -> Any:
    """The database state just after audit record ``asn`` committed.

    ``asn=0`` reconstructs the state before the first audited update
    (the seed data). Returns ``{relation: {key: row}}``, or one
    relation's ``{key: row}`` when ``relation`` is given.

    With ``verify=True`` every undo step checks the cell against the
    undone record's after-image; a mismatch raises
    :class:`~repro.errors.AuditError` naming the first cell whose live
    value the audit trail cannot account for.
    """
    state = snapshot(engine)
    for record in reversed(log.committed()):
        if record.id <= asn:
            break
        for (rel, key), (before, after) in record.images().items():
            rows = state.setdefault(rel, {})
            if verify:
                current = rows.get(key)
                if current != after:
                    raise AuditError(
                        f"as_of({asn}): undoing audit record "
                        f"#{record.id} expected {rel}{key!r} to be "
                        f"{after!r} but found {current!r} — a write "
                        f"bypassed the audit trail"
                    )
            if before is None:
                rows.pop(key, None)
            else:
                rows[key] = before
    if relation is not None:
        return state.get(relation, {})
    return state


class ReplayReport:
    """What :func:`replay` re-executed and whether the states agree."""

    def __init__(self) -> None:
        self.replayed: List[int] = []  # committed ASNs re-applied
        self.skipped: List[Tuple[int, str]] = []  # (asn, outcome) excluded
        self.mismatches: List[Tuple[str, Tuple[Any, ...], Any, Any]] = []
        self.relations = 0
        # as_of(0) is not the state the log vouched for at its first record
        self.unvouched = False

    @property
    def ok(self) -> bool:
        """True when the replay started from the state the log vouched
        for and ended byte-identical to the live one."""
        return not self.mismatches and not self.unvouched

    def summary(self) -> str:
        lines = [
            f"replayed  : {len(self.replayed)} committed record(s)",
            f"skipped   : {len(self.skipped)} non-committed record(s)",
            f"relations : {self.relations} compared",
            f"verdict   : {'byte-identical' if self.ok else 'MISMATCH'}",
        ]
        if self.unvouched:
            lines.append(
                "  as_of(0) is not the state the log vouched for: a write "
                "bypassed the audit trail"
            )
        for rel, key, expected, got in self.mismatches[:10]:
            lines.append(
                f"  {rel}{key!r}: live={expected!r} replayed={got!r}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplayReport(ok={self.ok}, replayed={len(self.replayed)}, "
            f"skipped={len(self.skipped)})"
        )


def replay(log: AuditLog, engine: Engine) -> ReplayReport:
    """Re-execute the audited plans on a fresh engine; compare final states.

    The fresh engine (a new
    :class:`~repro.relational.memory_engine.MemoryEngine`) gets the live
    engine's schemas, is seeded with
    ``as_of(0)`` — the reconstructed pre-audit state — and then applies
    every *committed* plan in ASN order. Every other outcome is skipped
    and reported. The returned report's :attr:`~ReplayReport.ok` is the
    oracle: the audit log fully explains the live database.

    Seeding reconstructs *without* head verification: when a write has
    bypassed the trail, replay must still run so the divergence surfaces
    in the report instead of an exception mid-seed. ``as_of(0)`` is the
    live head run backwards, so a bypassing write on a cell no record
    touches is already in it; the digest the log took of the live state
    before its first record (:attr:`~repro.obs.audit.AuditLog.seed`)
    catches that one — a log with no digest is not checked.
    """
    from repro.relational.memory_engine import MemoryEngine

    fresh_engine = MemoryEngine()
    report = ReplayReport()

    initial = as_of(log, engine, 0, verify=False)
    if log.seed is not None:
        report.unvouched = state_digest(initial) != log.seed
    for name in engine.relation_names():
        fresh_engine.create_relation(engine.schema(name))
        rows = initial.get(name, {})
        if rows:
            fresh_engine.insert_many(name, list(rows.values()))

    for record in log.records():
        if record.state == COMMITTED:
            fresh_engine.apply_batch(record.plan().operations)
            report.replayed.append(record.id)
        else:
            report.skipped.append((record.id, record.state))

    report.relations = len(engine.relation_names())
    report.mismatches = divergence(engine, fresh_engine)
    return report
