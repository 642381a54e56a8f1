"""Step 1: local validation against the view-object definition.

The paper treats this step as "straightforward" and assumes it succeeds
before translation; we implement it fully: the request's instances must
belong to the right view object, the object must be updatable, the
operation class must be allowed by the policy, and — for replacements —
the structural restrictions of Section 5.3 hold:

* keys may change only inside the dependency island (when the policy's
  island answers allow it);
* key replacements on referencing peninsulas are prohibited
  ("inherently ambiguous"), modulo the connecting attributes that the
  system itself rewrites when the referenced island key changes.

The gates live here. The key disciplines are judged on (old, new) pairs,
and which tuple is whose partner is the compiled program's alignment —
siblings by key, never by list position — so that half is
:meth:`~repro.core.updates.compiled.CompiledProgram.replacement_delta`.
"""

from __future__ import annotations

from repro.errors import LocalValidationError
from repro.core.instance import Instance
from repro.core.updates.context import TranslationContext

__all__ = [
    "validate_insertion",
    "validate_deletion",
    "validate_replacement_request",
]


def validate_instance_shape(ctx: TranslationContext, instance: Instance) -> None:
    """The instance must belong to this translator's view object."""
    if instance.view_object is not ctx.view_object:
        if instance.view_object.name != ctx.view_object.name:
            raise LocalValidationError(
                f"instance belongs to view object "
                f"{instance.view_object.name!r}, translator handles "
                f"{ctx.view_object.name!r}"
            )
    if not ctx.view_object.updatable:
        raise LocalValidationError(
            f"view object {ctx.view_object.name!r} was defined query-only "
            f"(updatable=False)"
        )


def validate_insertion(ctx: TranslationContext, instance: Instance) -> None:
    validate_instance_shape(ctx, instance)
    if not ctx.policy.allow_insertion:
        raise LocalValidationError(
            f"translator for {ctx.view_object.name!r} does not allow "
            f"complete insertions"
        )


def validate_deletion(ctx: TranslationContext, instance: Instance) -> None:
    validate_instance_shape(ctx, instance)
    if not ctx.policy.allow_deletion:
        raise LocalValidationError(
            f"translator for {ctx.view_object.name!r} does not allow "
            f"complete deletions"
        )


def validate_replacement_request(
    ctx: TranslationContext, old: Instance, new: Instance
) -> None:
    validate_instance_shape(ctx, old)
    validate_instance_shape(ctx, new)
    if not ctx.policy.allow_replacement:
        raise LocalValidationError(
            f"translator for {ctx.view_object.name!r} does not allow "
            f"replacements (the dialog's first answer was no)"
        )
