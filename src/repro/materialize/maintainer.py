"""Commit-fed maintenance of materialized view objects.

The engine's :class:`~repro.relational.changelog.ChangeLog` hands each
committed transaction's records to the view (``absorb``), which keeps
them pending; ``sync`` applies them under the one policy, ``lazy``: an
evicted pivot key stays out until the next request for it re-assembles
it (pay-per-read). Each record, in commit order, does one of three
things, decided by what the record itself shows
(:meth:`~repro.materialize.dependency.DependencyIndex.patch_sites`):

* a ``replace`` that kept the key and every connecting attribute
  **patches** the cached instances under its pivots with the new values
  it carries — copy-on-write, no engine read inside the island;
* the same on a relation that only occurs as a pruned intermediate does
  **nothing**: no instance shows it;
* everything else — insert, delete, re-key, re-link, a relation some
  node shows without its key — **evicts** the affected pivots, as it
  always did. A pivot evicted earlier in the round is not cached, so a
  later patch passes it by.

A rolled-back write is never handed over, so a rollback never reaches
the cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.materialize.store import MaterializedView
    from repro.relational.changelog import ChangeRecord

__all__ = ["Maintainer", "LAZY"]

#: The maintenance policy's name, the one value ``materialize`` accepts.
LAZY = "lazy"


class Maintainer:
    """Applies committed changelog records to one materialized view."""

    def __init__(self, view: "MaterializedView") -> None:
        self.view = view

    def sync(self, records: Sequence["ChangeRecord"]) -> int:
        """Apply ``records`` in commit order; returns how many."""
        view = self.view
        view.stats.records_applied += len(records)
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
