"""The torn-write harness of the recovery tests: a plan applied under
journal protection, with or without multi-operation atomicity — and a
journal that keeps what it was handed."""

from typing import Any, Dict, List, Tuple

from repro.relational.engine import Engine
from repro.relational.journal import (
    PENDING,
    MemoryJournal,
    PlanJournal,
    UpdateRecord,
    plan_images,
)
from repro.relational.operations import UpdatePlan


class RecordingJournal(MemoryJournal):
    """A memory journal that also keeps every event it appends, so a
    test can read what was journaled after the journal let a resolved
    entry go."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Dict[str, Any]] = []

    def _append(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def journaled(self) -> List[UpdateRecord]:
        """Every entry ever begun, in id order, with its plan, images
        and latest state."""
        entries: Dict[int, UpdateRecord] = {}
        for event in self.events:
            if event["event"] == PENDING:
                entries[event["id"]] = UpdateRecord(
                    event["id"], PENDING, event["plan"], event["images"],
                    label=event["label"], trace_id=event.get("trace"),
                )
            else:
                entries[event["id"]].state = event["event"]
        return list(entries.values())


def apply_journaled(
    engine: Engine,
    journal: PlanJournal,
    plan: UpdatePlan,
    atomic: bool = True,
    label: str = "",
) -> int:
    """Apply ``plan`` under journal protection; returns the entry id.

    With ``atomic=True`` the plan runs through the engine's batched
    transaction path. ``atomic=False`` applies each operation in
    autocommit mode — modelling a storage layer without multi-operation
    atomicity — which is exactly the regime where a mid-plan crash
    leaves a torn state for ``recover`` to repair.
    """
    images = plan_images(engine, plan)
    entry_id = journal.begin(plan, images, label=label)
    if atomic:
        engine.apply_batch(plan.operations)
    else:
        for operation in plan.operations:
            operation.apply(engine)
    journal.mark_committed(entry_id)
    return entry_id


def audit_outcomes(sharded) -> List[Tuple[str, str]]:
    """Every shard's audited ``(op, outcome)`` pairs, sorted: on
    identical workloads this multiset matches a single-engine session's,
    whichever shard audited each update."""
    return sorted(
        (record.op, record.state)
        for shard in sharded.shards
        if shard.penguin.audit is not None
        for record in shard.penguin.audit.records()
    )


def resolved(report) -> int:
    """How many pending entries a recovery report settled."""
    return len(report.replayed) + len(report.reverted)
