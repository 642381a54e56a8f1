"""Per-tuple lineage over the audit log.

The audit log answers "what happened, in order"; this module inverts it
to answer the operator's question: *which view updates, through which
translator rules, produced or last touched this base tuple?* A
:class:`LineageIndex` derives, from the committed audit records, a chain
of ASNs per ``(relation, key)`` cell and exposes

* :meth:`~LineageIndex.why` — the full provenance chain of a tuple,
  oldest first, each link carrying the audited view operation and the
  cell's before/after images at that step. Key re-homing is followed:
  when a replacement moved the tuple from another primary key, the
  chain continues through the old key's history, so ``why`` always
  terminates in the view update that originally created the tuple;
* :meth:`~LineageIndex.history` — the exact-cell image sequence (no
  re-homing), i.e. every value this *key* has held and which update
  wrote it.

The index is a pure derivation: it rebuilds itself lazily whenever the
log's version counter moves, never holds a lock on the log beyond the
snapshot read, and only considers ``committed`` records — a rolled-back
or degraded-rejected update never touched the database, so it cannot be
part of any tuple's provenance.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.audit import COMMITTED, AuditLog
from repro.relational.journal import Cell, UpdateRecord

__all__ = ["LineageLink", "LineageIndex"]


class LineageLink:
    """One step of a tuple's provenance: a committed update touched a cell."""

    __slots__ = ("asn", "record", "cell", "before", "after")

    def __init__(
        self,
        asn: int,
        record: UpdateRecord,
        cell: Cell,
        before: Optional[Tuple[Any, ...]],
        after: Optional[Tuple[Any, ...]],
    ) -> None:
        self.asn = asn
        self.record = record
        self.cell = cell
        self.before = before
        self.after = after

    def describe(self) -> str:
        relation, key = self.cell
        def show(row):
            return "∅" if row is None else repr(tuple(row))
        return (
            f"#{self.asn} {self.record.label}.{self.record.op} "
            f"[{relation}{tuple(key)!r}] {show(self.before)} -> "
            f"{show(self.after)}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LineageLink({self.describe()})"


class LineageIndex:
    """Maps every ``(relation, key)`` cell to its chain of ASNs."""

    def __init__(self, log: AuditLog) -> None:
        self.log = log
        self._version = -1
        self._chains: Dict[Cell, List[int]] = {}
        self._images: Dict[int, Dict[Cell, Tuple[Any, Any]]] = {}
        self._records: Dict[int, UpdateRecord] = {}
        # (asn, new_cell) -> old_cell for key-changing replacements.
        self._rehomed: Dict[Tuple[int, Cell], Cell] = {}

    # -- derivation ----------------------------------------------------------

    def _refresh(self) -> None:
        if self._version == self.log.version:
            return
        self._chains = {}
        self._images = {}
        self._records = {}
        self._rehomed = {}
        for record in self.log.records():
            if record.state != COMMITTED:
                continue
            images = record.images()
            self._images[record.id] = images
            self._records[record.id] = record
            for cell in images:
                self._chains.setdefault(cell, []).append(record.id)
            self._index_rehoming(record, images)
        self._version = self.log.version

    def _index_rehoming(
        self, record: UpdateRecord, images: Dict[Cell, Tuple[Any, Any]]
    ) -> None:
        """Detect key-changing replacements from the record's own images.

        A replacement that moves a tuple to a new primary key shows up
        as two cells: the vacated old key ``(row, None)`` and the
        occupied new key ``(None, row')``. The plan's replace operation
        names the old key and carries the new row, which is exactly the
        new cell's after-image — no schema lookup needed.
        """
        for operation in record.plan().operations:
            if operation.kind != "replace":
                continue
            old_cell = (operation.relation, tuple(operation.key))
            new_values = tuple(operation.values)
            for cell, (before, after) in images.items():
                if (
                    cell[0] == operation.relation
                    and cell != old_cell
                    and before is None
                    and after == new_values
                ):
                    self._rehomed[(record.id, cell)] = old_cell
                    break

    # -- queries -------------------------------------------------------------

    def chain(self, relation: str, key: Sequence[Any]) -> List[int]:
        """The ASNs of committed updates that touched this exact cell."""
        self._refresh()
        return list(self._chains.get((relation, tuple(key)), []))

    def history(self, relation: str, key: Sequence[Any]) -> List[LineageLink]:
        """The cell's before/after image sequence, oldest first."""
        self._refresh()
        cell = (relation, tuple(key))
        links = []
        for asn in self._chains.get(cell, []):
            before, after = self._images[asn][cell]
            links.append(LineageLink(asn, self._records[asn], cell, before, after))
        return links

    def why(self, relation: str, key: Sequence[Any]) -> List[LineageLink]:
        """The full provenance chain of the tuple now living at ``key``.

        Returned oldest first; the first link is the view update that
        originally created the tuple (possibly under a different primary
        key, if replacements re-homed it since), the last is the most
        recent committed update to touch it. Empty when no audited
        update ever touched the cell.
        """
        self._refresh()
        links: List[LineageLink] = []
        cell: Optional[Cell] = (relation, tuple(key))
        upper: Optional[int] = None  # only consider ASNs strictly below
        seen = set()
        while cell is not None and cell not in seen:
            seen.add(cell)
            asns = self._chains.get(cell, [])
            if upper is not None:
                asns = [asn for asn in asns if asn < upper]
            if not asns:
                break
            for asn in reversed(asns):
                before, after = self._images[asn][cell]
                links.append(
                    LineageLink(asn, self._records[asn], cell, before, after)
                )
            earliest = asns[0]
            cell = self._rehomed.get((earliest, cell))
            upper = earliest
        links.reverse()
        return links

    def cells(self) -> Tuple[Cell, ...]:
        """Every cell any committed update has touched."""
        self._refresh()
        return tuple(self._chains)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._refresh()
        return (
            f"LineageIndex({len(self._chains)} cells, "
            f"{len(self._records)} committed records)"
        )
