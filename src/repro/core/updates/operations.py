"""Update-request types (Section 5).

"A complete insertion adds to the database a fully specified view-object
instance. A complete deletion removes from the database a fully
specified view-object instance. A replacement combines a complete
deletion and a complete insertion; it needs a view-object instance and
its fully specified replacing instance."
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.instance import Instance

__all__ = [
    "UpdateRequest",
    "CompleteInsertion",
    "CompleteDeletion",
    "Replacement",
    "PartialInsertion",
    "PartialDeletion",
    "PartialUpdate",
]


class UpdateRequest:
    """Base class of all view-object update requests."""

    kind = "abstract"

    @property
    def anchor(self):
        """The existing instance (or its object key) the request is
        about — what routes it to a shard and what it reads first."""
        return self.instance


class CompleteInsertion(UpdateRequest):
    """Add a fully specified instance to the database."""

    kind = "complete-insertion"
    __slots__ = ("instance",)

    def __init__(self, instance: Instance) -> None:
        self.instance = instance

    def __repr__(self) -> str:
        return f"CompleteInsertion(key={self.instance.key!r})"


class CompleteDeletion(UpdateRequest):
    """Remove a fully specified instance from the database."""

    kind = "complete-deletion"
    __slots__ = ("instance",)

    def __init__(self, instance: Instance) -> None:
        self.instance = instance

    def __repr__(self) -> str:
        return f"CompleteDeletion(key={self.instance.key!r})"


class Replacement(UpdateRequest):
    """Replace an instance with its fully specified replacement."""

    kind = "replacement"
    __slots__ = ("old", "new")

    def __init__(self, old: Instance, new: Instance) -> None:
        self.old = old
        self.new = new

    anchor = property(lambda self: self.old)

    def __repr__(self) -> str:
        return f"Replacement({self.old.key!r} -> {self.new.key!r})"


class PartialInsertion(UpdateRequest):
    """Add one component tuple at a node of an existing instance."""

    kind = "partial-insertion"
    __slots__ = ("instance", "node_id", "values")

    def __init__(self, instance: Instance, node_id: str, values: Dict[str, Any]) -> None:
        self.instance = instance
        self.node_id = node_id
        self.values = values

    def __repr__(self) -> str:
        return f"PartialInsertion({self.node_id!r} on {self.instance.key!r})"


class PartialDeletion(UpdateRequest):
    """Remove one component tuple at a node of an existing instance."""

    kind = "partial-deletion"
    __slots__ = ("instance", "node_id", "values")

    def __init__(self, instance: Instance, node_id: str, values: Dict[str, Any]) -> None:
        self.instance = instance
        self.node_id = node_id
        self.values = values

    def __repr__(self) -> str:
        return f"PartialDeletion({self.node_id!r} on {self.instance.key!r})"


class PartialUpdate(UpdateRequest):
    """Modify nonkey attributes of one component tuple."""

    kind = "partial-update"
    __slots__ = ("instance", "node_id", "old_values", "new_values")

    def __init__(
        self,
        instance: Instance,
        node_id: str,
        old_values: Dict[str, Any],
        new_values: Dict[str, Any],
    ) -> None:
        self.instance = instance
        self.node_id = node_id
        self.old_values = old_values
        self.new_values = new_values

    def __repr__(self) -> str:
        return f"PartialUpdate({self.node_id!r} on {self.instance.key!r})"
