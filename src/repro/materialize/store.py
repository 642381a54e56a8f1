"""Caches of assembled view-object instances.

A :class:`MaterializedView` memoizes the ``Instance`` tree of each pivot
key and keeps itself consistent with the base tables: the engine's
changelog hands it every committed transaction's records, and
:meth:`MaterializedView.sync` applies them on the next read under the
one maintenance policy, :data:`LAZY`. While the engine is inside a transaction a read assembles
from the engine and leaves the cache alone, so a session reads its own
uncommitted writes and a rollback never reaches the cache.
A single translated write reads its key anchor through
:meth:`MaterializedView.by_key`, which answers from the cache only while
the cache is exactly the committed state, and never syncs, fills or
counts.
Membership of the extent is never cached: queries always select pivot
tuples from the live engine (one indexed relation access) and only the
expensive part — assembling the tree of component tuples underneath each
pivot — is served from cache. That split keeps the cache trivially
correct about which instances exist while still removing the O(tree ×
joins) assembly cost that dominates repeated queries.

A :class:`MaterializedStore` groups the materialized views of one
engine, e.g. all the objects a :class:`~repro.penguin.Penguin` session
chose to accelerate.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.errors import ViewObjectError
from repro.core.instance import ComponentTuple, Instance
from repro.core.instantiation import Getter
from repro.core.view_object import ViewObjectDefinition
from repro.materialize.dependency import DependencyIndex, PatchSite
from repro.materialize.stats import CacheStats
from repro.relational.changelog import ChangeRecord
from repro.relational.engine import Engine
from repro.relational.expressions import Expression, TRUE

__all__ = ["MaterializedView", "MaterializedStore", "LAZY"]

PivotKey = Tuple[Any, ...]

#: The maintenance policy's name, the one value ``materialize`` accepts:
#: an evicted pivot key stays out until the next request for it
#: re-assembles it (pay-per-read).
LAZY = "lazy"


class MaterializedView:
    """One view object's instance cache over one engine."""

    def __init__(self, view_object: ViewObjectDefinition, engine: Engine) -> None:
        changelog = engine.changelog
        if changelog is None:
            raise ViewObjectError(
                f"engine {type(engine).__name__} keeps no changelog; "
                f"materialized views need one to stay consistent"
            )
        self.view_object = view_object
        self.engine = engine
        self.changelog = changelog
        self.instantiator = view_object.instantiator
        self.dependencies = DependencyIndex(view_object)
        self.stats = CacheStats()
        self._instances: Dict[PivotKey, Instance] = {}
        # Committed records handed over and not yet applied.
        self._pending: List[ChangeRecord] = []
        self._pivot_schema = view_object.graph.relation(
            view_object.pivot_relation
        )
        # Serializes cache maintenance against reads and commits:
        # absorb/sync/get/where touch the pending list or the instance
        # map, so two threads sharing this view must not interleave
        # inside them. Reentrant because sync() runs inside locked
        # get()/where() calls.
        self._lock = threading.RLock()
        changelog.subscribe(self)

    # -- the commit feed ----------------------------------------------------------

    def absorb(self, records: List[ChangeRecord]) -> None:
        """Keep one commit's records for the next :meth:`sync` (called
        by the engine's changelog once the commit succeeded)."""
        with self._lock:
            self._pending.extend(records)

    def staleness(self) -> int:
        """Committed records this cache has not applied yet."""
        return len(self._pending)

    def sync(self) -> int:
        """Apply the committed records handed over since the last sync,
        in commit order; returns how many. Inside a transaction it
        applies nothing: a record's pivots are resolved against the
        engine, whose uncommitted state may still roll back. A record
        **patches** the cached instances under its pivots when
        :meth:`DependencyIndex.patch_sites` says it may (an in-place
        replace), does nothing on a pruned intermediate, and **evicts**
        its pivots otherwise."""
        with self._lock:
            if not self._pending or self.changelog.depth:
                return 0
            records, self._pending = self._pending, []
            stats = self.stats
            patched, evicted = stats.patched, stats.invalidations
            with obs.tracer().span(
                "view.sync", object=self.view_object.name
            ) as span:
                stats.records_applied += len(records)
                index = self.dependencies
                for record in records:
                    if not index.tracks(record.relation):
                        continue
                    sites = index.patch_sites(record)
                    if sites is None:
                        for pivot_key in index.affected_pivots(self.engine, record):
                            self.evict(pivot_key)
                    elif sites:
                        for pivot_key in index.pivots_for(
                            self.engine, record.relation, record.new_values
                        ):
                            self.patch(pivot_key, sites, record.new_values)
                patched = stats.patched - patched
                evicted = stats.invalidations - evicted
                span.set(records=len(records), patched=patched, evicted=evicted)
            obs.metrics().counter(
                "cache_patches_total", object=self.view_object.name
            ).inc(patched)
            return len(records)

    def get(self, key: Sequence[Any]) -> Optional[Instance]:
        """The instance with pivot key ``key``, or None."""
        with self._lock:
            self.sync()
            if self.changelog.depth:  # the engine is inside a transaction
                return self.instantiator.by_key(self.engine, key)
            pivot_key = tuple(key)
            cached = self._instances.get(pivot_key)
            if cached is None:
                # Cached under the key as the engine stores it (a datetime
                # in a DATE attribute by its date), as committed records are.
                pivot = self.view_object.pivot_relation
                pivot_key = self.engine._coerce_key(pivot, pivot_key)
                cached = self._instances.get(pivot_key)
            self._count_lookup(hit=cached is not None)
            if cached is not None:
                return cached
            values = self.engine.get(pivot, pivot_key)
            if values is None:
                return None
            return self._assemble_into_cache(pivot_key, values)

    def where(self, engine: Engine, predicate: Expression = TRUE) -> List[Instance]:
        """Drop-in for ``Instantiator.where``: serve assembly from cache.

        The ``engine`` argument exists for signature compatibility with
        the query executor and must be the engine this cache watches.
        """
        if engine is not self.engine:
            raise ViewObjectError(
                "materialized view queried against a different engine "
                "than the one it watches"
            )
        with self._lock:
            self.sync()
            if self.changelog.depth:  # the engine is inside a transaction
                return self.instantiator.where(engine, predicate)
            instances = []
            for values in engine.select(
                self.view_object.pivot_relation, predicate
            ):
                pivot_key = self._pivot_schema.key_of(values)
                cached = self._instances.get(pivot_key)
                self._count_lookup(hit=cached is not None)
                if cached is None:
                    cached = self._assemble_into_cache(pivot_key, values)
                instances.append(cached)
            return instances

    def all(self) -> List[Instance]:
        return self.where(self.engine, TRUE)

    # -- the write path's reader ------------------------------------------------

    def by_key(self, engine: Engine, key: Sequence[Any]) -> Optional[Instance]:
        """Drop-in for ``Instantiator.by_key`` where a single write reads
        its anchor (``Translator.apply``, inside its own transaction).

        The cached instance answers when it is exactly what ``engine``
        would assemble: nothing is pending, the one open transaction is
        the writer's own, and nothing has been written in it yet. Any
        other case — an uncached key included — assembles from
        ``engine``. Either way nothing is synced, cached or counted, so
        the stats, the metrics and :meth:`staleness` describe reads only.
        """
        log = self.changelog
        with self._lock:
            exact = not self._pending and log.depth == 1 and not log.records
            if exact and engine is self.engine:
                pivot_key = engine._coerce_key(self.view_object.pivot_relation, key)
                cached = self._instances.get(pivot_key)
                if cached is not None:
                    return cached
        return self.instantiator.by_key(engine, key)

    # -- stale reads (degraded-mode serving) -----------------------------------

    def stale_get(self, key: Sequence[Any]) -> Optional[Instance]:
        """The cached instance under ``key`` as-is: no sync, no engine.

        Used by the serving layer while the engine is unhealthy. The
        result may be out of date (``stats.stale_reads`` counts how
        often this path answered); ``None`` means *not cached*, not
        *does not exist* — the cache cannot tell without the engine.
        """
        with self._lock:
            instance = self._instances.get(
                self.engine._coerce_key(self.view_object.pivot_relation, key)
            )
            if instance is not None:
                self.stats.stale_reads += 1
            return instance

    def stale_all(self) -> List[Instance]:
        """Every cached instance as-is: no sync, no engine reads.

        The extent is whatever happened to be cached — a best-effort
        snapshot for degraded-mode serving, not the live extent.
        """
        with self._lock:
            self.stats.stale_reads += 1
            return list(self._instances.values())

    def __len__(self) -> int:
        return len(self._instances)

    # -- cache primitives (driven by sync) ------------------------------

    def _assemble_into_cache(
        self, pivot_key: PivotKey, values: Tuple[Any, ...]
    ) -> Instance:
        instance = self.instantiator.assemble(self.engine, values)
        self._instances[pivot_key] = instance
        return instance

    def _count_lookup(self, hit: bool) -> None:
        """One request for an instance, in ``stats`` and the registry
        alike — a lookup that finds neither a cached instance nor a
        pivot tuple is a miss in both."""
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        metrics = obs.metrics()
        name = self.view_object.name
        metrics.counter("cache_lookups_total", object=name).inc()
        if hit:
            metrics.counter("cache_hits_total", object=name).inc()
        else:
            metrics.counter("cache_misses_total", object=name).inc()

    def evict(self, pivot_key: PivotKey) -> None:
        with self._lock:
            if self._instances.pop(pivot_key, None) is not None:
                self.stats.invalidations += 1

    def patch(
        self,
        pivot_key: PivotKey,
        sites: Sequence[PatchSite],
        new_values: Tuple[Any, ...],
    ) -> None:
        """Show ``new_values`` wherever the cached instance under
        ``pivot_key`` shows the tuple with their key (no-op if it is
        not cached, or shows nothing that changed).

        Copy-on-write: the instance handed out before stays as it was;
        the new one shares every subtree off the way to a patched tuple.
        """
        with self._lock:
            cached = self._instances.get(pivot_key)
            if cached is None:
                return
            root = cached.root
            for trail, key_of, attributes, values_of in sites:
                values = dict(zip(attributes, values_of(new_values)))
                root = _patched(root, trail, key_of, key_of(values), values)
            if root is not cached.root:
                self._instances[pivot_key] = Instance(self.view_object, root)
                self.stats.patched += 1

    def close(self) -> None:
        """Detach from the changelog (the cache stops maintaining itself)."""
        self.changelog.unsubscribe(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MaterializedView({self.view_object.name!r}, "
            f"cached={len(self)})"
        )


def _patched(
    component: ComponentTuple,
    trail: Sequence[str],
    key_of: Getter,
    key: Tuple[Any, ...],
    values: Dict[str, Any],
) -> ComponentTuple:
    """``component`` with ``values`` on every tuple down ``trail`` that
    has ``key`` and other values; ``component`` itself if there is none."""
    if not trail:
        if key_of(component.values) != key or component.values == values:
            return component
        return ComponentTuple(component.node_id, dict(values), component.children)
    siblings = component.children.get(trail[0], ())
    patched = [_patched(c, trail[1:], key_of, key, values) for c in siblings]
    if all(new is old for new, old in zip(patched, siblings)):
        return component
    children = dict(component.children)
    children[trail[0]] = patched
    return ComponentTuple(component.node_id, component.values, children)


class MaterializedStore:
    """The materialized views of one engine, keyed by object name."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._views: Dict[str, MaterializedView] = {}

    def materialize(self, view_object: ViewObjectDefinition) -> MaterializedView:
        if view_object.name in self._views:
            raise ViewObjectError(
                f"view object {view_object.name!r} is already materialized"
            )
        view = MaterializedView(view_object, self.engine)
        self._views[view_object.name] = view
        return view

    def dematerialize(self, name: str) -> None:
        try:
            view = self._views.pop(name)
        except KeyError:
            raise ViewObjectError(
                f"view object {name!r} is not materialized"
            ) from None
        view.close()

    def view(self, name: str) -> Optional[MaterializedView]:
        return self._views.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._views)

    def stats(self) -> CacheStats:
        """Aggregate counters across every materialized view."""
        total = CacheStats()
        for view in self._views.values():
            total.merge(view.stats)
        return total

    def stats_by_view(self) -> Dict[str, Dict[str, float]]:
        return {name: view.stats.as_dict() for name, view in self._views.items()}

    def sync_all(self) -> int:
        return sum(view.sync() for view in self._views.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MaterializedStore({', '.join(self.names) or 'empty'})"
