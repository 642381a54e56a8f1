"""The torn-write harness of the recovery tests: a plan applied under
journal protection, with or without multi-operation atomicity."""

from repro.relational.engine import Engine
from repro.relational.journal import PlanJournal, plan_images
from repro.relational.operations import UpdatePlan


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
