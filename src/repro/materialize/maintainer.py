"""Changelog-driven maintenance of materialized view objects.

The maintainer owns a *high-water mark* into the engine's
:class:`~repro.relational.changelog.ChangeLog`. Each ``sync`` consumes
the records appended since that mark and repairs the cache under its
one policy, ``lazy``: an evicted pivot key stays out until the next
request for it re-assembles it (pay-per-read). Each record, in log
order, does one of three things, decided by what the record itself
shows (:meth:`~repro.materialize.dependency.DependencyIndex.patch_sites`):

* a ``replace`` that kept the key and every connecting attribute
  **patches** the cached instances under its pivots with the new values
  it carries — copy-on-write, no engine read inside the island;
* the same on a relation that only occurs as a pruned intermediate does
  **nothing**: no instance shows it;
* everything else — insert, delete, re-key, re-link, a relation some
  node shows without its key — **evicts** the affected pivots, as it
  always did. A pivot evicted earlier in the round is not cached, so a
  later patch passes it by.

Rollbacks arrive as changelog *truncations* below the high-water mark:
everything the cache absorbed past the truncation point was undone
behind its back, so the cache drops its entries wholesale and rewinds
the mark (see :meth:`Maintainer.rewind`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.materialize.store import MaterializedView

__all__ = ["Maintainer", "LAZY"]

#: The maintenance policy's name, the one value ``materialize`` accepts.
LAZY = "lazy"


class Maintainer:
    """Applies pending changelog records to one materialized view."""

    def __init__(self, view: "MaterializedView") -> None:
        self.view = view
        self.high_water = len(view.changelog)
        # Audit attribution: when the view carries an audit log, each
        # sync round is attributed to the audit head ASN at the time —
        # the view update whose changelog records triggered the
        # maintenance. ``attributions`` maps ASN -> records absorbed.
        self.last_attributed_asn = 0
        self.attributions: Dict[int, int] = {}

    # -- introspection ----------------------------------------------------------

    def staleness(self) -> int:
        """Pending changelog records the cache has not yet consumed."""
        return len(self.view.changelog) - self.high_water

    # -- forward maintenance ----------------------------------------------------

    def sync(self) -> int:
        """Consume pending records; returns how many were applied."""
        view = self.view
        records = view.changelog.since(self.high_water)
        if not records:
            return 0
        self.high_water = len(view.changelog)
        view.stats.records_applied += len(records)
        audit = getattr(view, "audit", None)
        if audit is not None:
            asn = audit.head_asn()
            self.last_attributed_asn = asn
            self.attributions[asn] = (
                self.attributions.get(asn, 0) + len(records)
            )
        index = view.dependencies
        for record in records:
            if not index.tracks(record.relation):
                continue
            sites = index.patch_sites(record)
            if sites is None:
                for pivot_key in index.affected_pivots(view.engine, record):
                    view.evict(pivot_key)
            elif sites:
                for pivot_key in index.pivots_for(
                    view.engine, record.relation, record.new_values
                ):
                    view.patch(pivot_key, sites, record.new_values)
        return len(records)

    # -- rollback ----------------------------------------------------------------

    def rewind(self, mark: int) -> None:
        """React to ``ChangeLog.truncate(mark)``.

        Records at positions >= ``mark`` never happened. If the cache
        already consumed some of them its contents may reflect an
        aborted translation, so it is dropped entirely; pending records
        that were truncated before being consumed require nothing.
        """
        if mark >= self.high_water:
            return
        self.high_water = mark
        self.view.stats.rollbacks += 1
        self.view.drop_all()
