"""Translator policies: the semantics chosen at object-definition time.

Keller's insight, carried over to view objects, is that the *ambiguity*
of update translation is resolved once, when the object is defined, by
recording the DBA's answers as a policy. A :class:`TranslatorPolicy`
holds, per relation, exactly the switches the Section 6 dialog asks
about, plus deletion-repair choices and the attribute completer used
when a view-object tuple must be extended with values for projected-out
attributes ("how this operation is handled is dependent on the
application").
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from repro.errors import UpdateRejectedError
from repro.relational.schema import RelationSchema

__all__ = [
    "ReferenceRepair",
    "RelationPolicy",
    "TranslatorPolicy",
    "null_completer",
]


class ReferenceRepair(enum.Enum):
    """What to do with tuples referencing a deleted (or re-keyed) tuple.

    Definition 2.3, criterion 2, offers exactly these options: delete
    the referencing tuples, or assign valid or null values to their
    connecting attributes. ``PROHIBIT`` rejects the whole transaction;
    ``AUTO`` picks ``NULLIFY`` when the connecting attributes are
    nullable nonkey attributes and ``DELETE`` otherwise.
    """

    AUTO = "auto"
    NULLIFY = "nullify"
    DELETE = "delete"
    PROHIBIT = "prohibit"


class RelationPolicy:
    """Per-relation answers of the definition-time dialog."""

    __slots__ = (
        "can_modify",
        "can_insert",
        "can_replace_existing",
        "allow_key_replacement",
        "allow_db_key_replacement",
        "allow_merge_on_key_conflict",
        "on_reference_delete",
    )

    def __init__(
        self,
        can_modify: bool = True,
        can_insert: bool = True,
        can_replace_existing: bool = True,
        allow_key_replacement: bool = True,
        allow_db_key_replacement: bool = True,
        allow_merge_on_key_conflict: bool = False,
        on_reference_delete: ReferenceRepair = ReferenceRepair.AUTO,
    ) -> None:
        # Outside-island switches ("Can the relation X be modified
        # during insertions (or replacements)?" and its two follow-ups).
        self.can_modify = can_modify
        self.can_insert = can_insert
        self.can_replace_existing = can_replace_existing
        # Island switches ("The key of a tuple of relation X could be
        # modified during replacements..." and its two follow-ups).
        self.allow_key_replacement = allow_key_replacement
        self.allow_db_key_replacement = allow_db_key_replacement
        self.allow_merge_on_key_conflict = allow_merge_on_key_conflict
        # Deletion repair for tuples referencing this relation's deleted
        # tuples — chosen in the deletion portion of the dialog.
        self.on_reference_delete = on_reference_delete

    def copy(self) -> "RelationPolicy":
        return RelationPolicy(
            can_modify=self.can_modify,
            can_insert=self.can_insert,
            can_replace_existing=self.can_replace_existing,
            allow_key_replacement=self.allow_key_replacement,
            allow_db_key_replacement=self.allow_db_key_replacement,
            allow_merge_on_key_conflict=self.allow_merge_on_key_conflict,
            on_reference_delete=self.on_reference_delete,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if not self.can_modify:
            flags.append("no-modify")
        if not self.can_insert:
            flags.append("no-insert")
        if not self.can_replace_existing:
            flags.append("no-replace")
        return f"RelationPolicy({', '.join(flags) or 'permissive'})"


Completer = Callable[[str, RelationSchema, Dict[str, Any]], Dict[str, Any]]


def null_completer(
    relation: str, schema: RelationSchema, partial: Dict[str, Any]
) -> Dict[str, Any]:
    """Default completer: fill projected-out attributes with nulls.

    Raises :class:`UpdateRejectedError` when a missing attribute is not
    nullable — the application must then supply its own completer.
    """
    completed = dict(partial)
    for attribute in schema.attributes:
        if attribute.name in completed:
            continue
        if not attribute.nullable:
            raise UpdateRejectedError(
                f"cannot extend view-object tuple for {relation!r}: "
                f"attribute {attribute.name!r} was projected out and is "
                f"not nullable (supply a completer)",
                relation=relation,
            )
        completed[attribute.name] = None
    return completed


class TranslatorPolicy:
    """The full semantics of one translator.

    ``relations`` maps relation names to :class:`RelationPolicy`;
    relations not listed use a permissive default. ``allow_insertion``,
    ``allow_deletion``, and ``allow_replacement`` gate whole operation
    classes (the dialog's opening question per class). ``completer``
    starts as :func:`null_completer`; an application that needs another
    assigns it on the policy.
    """

    def __init__(
        self,
        allow_insertion: bool = True,
        allow_deletion: bool = True,
        allow_replacement: bool = True,
        relations: Optional[Mapping[str, RelationPolicy]] = None,
        authorized_users: Optional[Iterable[str]] = None,
    ) -> None:
        self.allow_insertion = allow_insertion
        self.allow_deletion = allow_deletion
        self.allow_replacement = allow_replacement
        self.relations: Dict[str, RelationPolicy] = dict(relations or {})
        self.completer: Completer = null_completer
        # Step 1 of the paper checks "structural restrictions and user
        # authorizations": None means every user may update through the
        # object; otherwise only the listed users may.
        self.authorized_users = (
            None if authorized_users is None else set(authorized_users)
        )

    def authorizes(self, user: Optional[str]) -> bool:
        """Is ``user`` allowed to update through this translator?"""
        if self.authorized_users is None:
            return True
        return user is not None and user in self.authorized_users

    def for_relation(self, relation: str) -> RelationPolicy:
        policy = self.relations.get(relation)
        if policy is None:
            policy = RelationPolicy()
            self.relations[relation] = policy
        return policy

    def set_relation(self, relation: str, policy: RelationPolicy) -> None:
        self.relations[relation] = policy

    @classmethod
    def permissive(cls) -> "TranslatorPolicy":
        """Everything allowed (merge-on-key-conflict included)."""
        policy = cls()
        return policy

    @classmethod
    def read_only(cls) -> "TranslatorPolicy":
        return cls(
            allow_insertion=False,
            allow_deletion=False,
            allow_replacement=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gates = []
        if not self.allow_insertion:
            gates.append("no-insert")
        if not self.allow_deletion:
            gates.append("no-delete")
        if not self.allow_replacement:
            gates.append("no-replace")
        return f"TranslatorPolicy({', '.join(gates) or 'permissive'})"
