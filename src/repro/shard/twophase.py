"""Cross-shard atomicity: the plan journal as a two-phase intent log.

Most view-object updates are island-local and run entirely on one
shard. The rare exceptions — a peninsula fix that inserts a missing
referenced tuple (replicated, so every shard must apply it), or a
replacement that re-homes the pivot key to a different shard — span
shard boundaries and need the stronger protocol this module provides.

The coordinator reuses the PR-3 write-ahead
:class:`~repro.relational.journal.PlanJournal` of *each participating
shard* as its intent log, presumed-abort style:

1. **prepare** — every participant's sub-plan and before/after images
   are journaled ``PENDING`` under the label
   ``2pc:<txn>:<participants>:<shard>:<object>`` (nothing applied yet);
2. **apply** — each sub-plan is applied through the shard engine's
   batched transaction path, then each participant records it (its
   audit record, shipped to its replicas) as a single-shard write does;
3. **commit** — each entry is marked ``COMMITTED``.

Crash recovery (:func:`recover_two_phase`) groups the surviving
``PENDING`` 2PC entries by transaction and decides from the labels
alone: a transaction whose *every* participant journaled an intent had
finished its prepare phase — roll all participants **forward** to
their after-images; any transaction missing a participant's intent
never finished preparing — roll every survivor **back** to its
before-images. Either way the multi-shard update ends all-applied or
all-reverted, never torn, and re-running recovery is a no-op.

An ordinary *failure* mid-apply (duplicate key on the target shard,
say) aborts the transaction inline: already-applied participants are
reverted via their journaled images and every entry is marked
``ABORTED`` before the error is re-raised.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import repro.obs as obs
from repro.errors import JournalError
from repro.relational.faults import FaultHook
from repro.relational.journal import (
    ABORTED,
    COMMITTED,
    PENDING,
    TWO_PHASE_PREFIX,
    Images,
    UpdateRecord,
    plan_images,
    restore_images,
)
from repro.relational.operations import UpdatePlan

__all__ = ["two_phase_apply", "recover_two_phase"]


def twophase_label(txn_id: str, participants: int, shard_id: int, object_name: str) -> str:
    if ":" in txn_id:
        raise ValueError(f"transaction id must not contain ':': {txn_id!r}")
    return f"{TWO_PHASE_PREFIX}{txn_id}:{participants}:{shard_id}:{object_name}"


def parse_twophase_label(label: str) -> Optional[Tuple[str, int, int]]:
    """(txn_id, participants, shard_id), or None for a non-2PC label
    (the object's name follows them; an older label has none)."""
    if not label.startswith(TWO_PHASE_PREFIX):
        return None
    parts = label[len(TWO_PHASE_PREFIX):].split(":", 3)
    if len(parts) < 3:
        raise JournalError(f"malformed two-phase label {label!r}")
    txn_id, participants, shard_id = parts[:3]
    return txn_id, int(participants), int(shard_id)


def two_phase_apply(
    participants: Mapping[int, Any],
    split: Mapping[int, UpdatePlan],
    txn_id: str,
    object_name: str,
    record: Callable[[int, int, Images], None],
    failpoint: Optional[FaultHook] = None,
) -> None:
    """Apply a partitioned plan of ``object_name`` atomically across shards.

    ``participants`` maps shard id to an object exposing ``engine``,
    ``journal``, and a ``lock`` with ``write_locked()`` (the
    :class:`~repro.shard.sharded.Shard` wrapper); ``split`` maps the
    same ids to their sub-plans. The caller has been admitted by every participant's write
    guard; here the shard locks — the readers' exclusion — are taken in
    id order (a global order, so two coordinators can never deadlock)
    and held across all three phases.

    ``record(shard_id, entry_id, images)`` runs per participant in id
    order once every sub-plan has applied, *before* the commit markers
    (land, record, mark, as the one commit step), with its ``2pc:``
    entry id and the images its prepare read and journaled — the only
    read of its cells. Raising from it aborts the transaction through
    the inline-abort path (applied participants reverted, every entry
    marked ABORTED): a lost replication quorum is an abort.

    ``failpoint`` is the deployment's one fault hook: ticked with
    ``prepare`` / ``apply`` / ``record`` / ``commit`` and ``shard=`` the
    participant immediately *before* each step; a ``crash`` rule there
    is a coordinator crash at that point (the crash-point sweep drives
    this).
    """
    order = sorted(split)

    def checkpoint(point: str, shard_id: int) -> None:
        if failpoint is not None:
            failpoint.tick(point, shard=shard_id)

    with obs.tracer().span("shard.two_phase", txn=txn_id, shards=len(order)):
        with ExitStack() as stack:
            for shard_id in order:
                stack.enter_context(participants[shard_id].lock.write_locked())

            # Phase 1: journal every participant's intent (nothing applied).
            entry_ids: Dict[int, int] = {}
            images_by_shard: Dict[int, Images] = {}
            for shard_id in order:
                checkpoint("prepare", shard_id)
                shard = participants[shard_id]
                with obs.tracer().span(
                    "2pc.prepare", txn=txn_id, shard=shard_id
                ):
                    images = plan_images(shard.engine, split[shard_id])
                    images_by_shard[shard_id] = images
                    entry_ids[shard_id] = shard.journal.begin(
                        split[shard_id],
                        images,
                        label=twophase_label(txn_id, len(order), shard_id, object_name),
                    )

            # Phase 2: apply, then record. An ordinary failure aborts the
            # whole transaction — applied participants are reverted via
            # their journaled images; a BaseException (crash) leaves
            # every entry PENDING for recover_two_phase.
            applied: List[int] = []
            try:
                for shard_id in order:
                    checkpoint("apply", shard_id)
                    shard = participants[shard_id]
                    with obs.tracer().span(
                        "2pc.apply",
                        txn=txn_id,
                        shard=shard_id,
                        ops=len(split[shard_id].operations),
                    ):
                        shard.engine.apply_batch(split[shard_id].operations)
                    applied.append(shard_id)
                for shard_id in order:
                    checkpoint("record", shard_id)
                    with obs.tracer().span("2pc.record", txn=txn_id, shard=shard_id):
                        record(shard_id, entry_ids[shard_id], images_by_shard[shard_id])
            except Exception:
                for shard_id in applied:
                    restore_images(
                        participants[shard_id].engine,
                        images_by_shard[shard_id],
                        to_after=False,
                    )
                for shard_id in order:
                    participants[shard_id].journal.mark_aborted(
                        entry_ids[shard_id]
                    )
                raise

            # Phase 3: commit markers.
            for shard_id in order:
                checkpoint("commit", shard_id)
                participants[shard_id].journal.mark_committed(
                    entry_ids[shard_id]
                )


class TwoPhaseRecoveryReport:
    """What :func:`recover_two_phase` decided for each interrupted txn."""

    def __init__(self) -> None:
        self.rolled_forward: List[str] = []
        self.rolled_back: List[str] = []
        self.conflicts: List[Tuple[str, int, str, Tuple[Any, ...]]] = []

    @property
    def resolved(self) -> int:
        return len(self.rolled_forward) + len(self.rolled_back)

    @property
    def clean(self) -> bool:
        return not self.conflicts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TwoPhaseRecoveryReport(forward={len(self.rolled_forward)}, "
            f"back={len(self.rolled_back)}, "
            f"conflicts={len(self.conflicts)})"
        )


def recover_two_phase(
    participants: Mapping[int, Any]
) -> TwoPhaseRecoveryReport:
    """Resolve every interrupted cross-shard transaction, idempotently.

    Must run *before* per-shard :func:`~repro.relational.journal.recover`
    — single-shard recovery resolves each entry in isolation and would
    tear a half-applied multi-shard transaction (committing the shard
    that applied, reverting the one that did not). This pass settles
    the ``2pc:``-labelled entries globally first; whatever is still
    pending afterwards is genuinely shard-local.
    """
    report = TwoPhaseRecoveryReport()

    for shard in participants.values():
        while getattr(shard.engine, "in_transaction", False):
            shard.engine.rollback()

    # Group every 2PC entry — resolved siblings' stubs included: a
    # COMMITTED entry on one shard proves the transaction passed its commit point
    # before the crash, so a sibling still PENDING elsewhere must roll
    # forward even though its own journal alone could not tell.
    # txn_id -> (declared participant count, {shard_id: entry})
    groups: Dict[str, Tuple[int, Dict[int, UpdateRecord]]] = {}
    for shard_id, shard in participants.items():
        for entry in shard.journal.entries():
            parsed = parse_twophase_label(entry.label)
            if parsed is None:
                continue
            txn_id, declared, entry_shard = parsed
            if entry_shard != shard_id:
                raise JournalError(
                    f"two-phase entry for shard {entry_shard} found in "
                    f"shard {shard_id}'s journal"
                )
            count, members = groups.setdefault(txn_id, (declared, {}))
            if declared != count:
                raise JournalError(
                    f"transaction {txn_id!r}: inconsistent participant "
                    f"counts {count} vs {declared}"
                )
            members[shard_id] = entry

    for txn_id in sorted(groups):
        declared, members = groups[txn_id]
        statuses = {entry.state for entry in members.values()}
        if PENDING not in statuses:
            continue  # fully settled in a previous pass
        if COMMITTED in statuses:
            commit = True  # a commit marker survived: past the commit point
        elif ABORTED in statuses:
            commit = False  # an inline abort was interrupted mid-markdown
        else:
            # All intents still pending: commit iff every declared
            # participant got its intent journaled (prepare finished).
            commit = len(members) == declared
        for shard_id in sorted(members):
            entry = members[shard_id]
            if entry.state != PENDING:
                continue
            shard = participants[shard_id]
            # A sub-plan may touch a cell more than once: a value it
            # passes through is restorable, anything else is a foreign
            # write.
            for relation, key in restore_images(
                shard.engine, entry.images(), to_after=commit,
                plan=entry.plan(),
            ):
                report.conflicts.append((txn_id, shard_id, relation, key))
            if commit:
                shard.journal.mark_committed(entry.id)
            else:
                shard.journal.mark_aborted(entry.id)
        if commit:
            report.rolled_forward.append(txn_id)
        else:
            report.rolled_back.append(txn_id)

    if report.conflicts:
        obs.anomaly(
            "torn_recovery",
            conflicts=len(report.conflicts),
            transactions=sorted({c[0] for c in report.conflicts}),
        )
    return report
