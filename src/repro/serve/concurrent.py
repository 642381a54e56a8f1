"""A thread-safe facade over one :class:`~repro.penguin.Penguin` session.

:class:`ConcurrentPenguin` partitions the facade's surface by effect:

* **shared** — ``query``, ``get``, integrity checks, cache statistics.
  These may run from any number of threads at once. (Queries over a
  materialized object still mutate its cache — sync, memoized assembly —
  which the view's own internal lock serializes; the readers-writer lock
  here guarantees no *translated update* is in flight meanwhile, so
  readers can never observe a half-applied translation.)
* **exclusive** — translated updates (single, query-driven, and
  batched), materialization changes, cache syncs, and definition-time
  operations. These take the write side and therefore see no concurrent
  readers.

The wrapper owns its lock but not the session: the underlying
``Penguin`` stays fully usable single-threaded, and is reachable via
``.penguin`` for configuration done before threads start.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import repro.obs as obs
from repro.core.instance import Instance
from repro.errors import DegradedServiceError, TransactionError
from repro.penguin import Penguin
from repro.relational.operations import UpdatePlan
from repro.relational.retry import is_transient_error
from repro.serve.breaker import CircuitBreaker
from repro.serve.locks import ReadWriteLock
from repro.structural.integrity import Violation
from repro.structural.schema_graph import StructuralSchema

__all__ = ["ConcurrentPenguin", "ServedRead"]


class ServedRead:
    """A read result plus the serving metadata the caller can't infer.

    Before this type existed, a DEGRADED-mode stale read was
    indistinguishable from a fresh one at the API surface; ``stale``
    makes the difference explicit, ``staleness`` counts how many
    changelog records the answering cache is behind, and ``shard``
    identifies the answering shard when served by a
    :class:`~repro.shard.sharded.ShardedPenguin` (None otherwise).
    ``source`` names a non-default answering stack — a replication
    layer sets ``"replica:<name>"`` when the primary could not serve —
    and is omitted from :meth:`meta` when unset, keeping the wire
    format unchanged for primary-served reads.
    """

    __slots__ = ("value", "stale", "shard", "staleness", "object_name", "source")

    def __init__(
        self,
        value: Any,
        stale: bool,
        shard: Optional[int] = None,
        staleness: Optional[int] = None,
        object_name: str = "",
        source: Optional[str] = None,
    ) -> None:
        self.value = value
        self.stale = stale
        self.shard = shard
        self.staleness = staleness
        self.object_name = object_name
        self.source = source

    def meta(self) -> Dict[str, Any]:
        """The metadata alone, JSON-safe (threaded into HTTP responses)."""
        out = {
            "object": self.object_name,
            "stale": self.stale,
            "shard": self.shard,
            "staleness": self.staleness,
        }
        if self.source is not None:
            out["source"] = self.source
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServedRead({self.object_name!r}, stale={self.stale}, "
            f"shard={self.shard})"
        )


def _is_engine_fault(exc: BaseException) -> bool:
    """Failures that indicate a sick engine rather than a bad request.

    Validation and translation rejections are the caller's problem and
    must not trip the breaker; transient storage faults and failed
    commits are the engine's.
    """
    return is_transient_error(exc) or isinstance(exc, TransactionError)


class ConcurrentPenguin:
    """Readers-writer concurrency control around a ``Penguin`` session.

    Accepts an existing session, or a :class:`StructuralSchema` plus
    ``Penguin`` keyword arguments to build one::

        serving = ConcurrentPenguin(penguin)
        serving = ConcurrentPenguin(university_schema(), backend="sqlite")

    A :class:`~repro.serve.breaker.CircuitBreaker` tracks engine health.
    After ``breaker.failure_threshold`` consecutive engine faults the
    facade enters the DEGRADED state: writes fail fast with
    :class:`~repro.errors.DegradedServiceError`, and reads are served
    *stale* from materialized caches (counted in each view's
    ``stats.stale_reads``). Every few refused requests one probe is let
    through to the engine; the first success closes the breaker.
    """

    def __init__(
        self,
        session: Union[Penguin, StructuralSchema],
        breaker: Optional[CircuitBreaker] = None,
        **penguin_kwargs: Any,
    ) -> None:
        if isinstance(session, Penguin):
            if penguin_kwargs:
                raise TypeError(
                    "keyword arguments are only accepted when building a "
                    "new session from a StructuralSchema"
                )
            self.penguin = session
        else:
            self.penguin = Penguin(session, **penguin_kwargs)
        self.lock = ReadWriteLock()
        self.breaker = breaker or CircuitBreaker()
        #: Extra labels stamped on every serving metric this facade
        #: emits; a ShardedPenguin sets ``{"shard": "<id>"}`` here so
        #: per-shard series stay distinguishable (and bounded by the
        #: shard count).
        self.metric_labels: Dict[str, str] = {}
        #: The cluster component this facade's serving metrics belong
        #: to (``"shard0"``, ``"shard0/r1"``, ...). Empty means the
        #: global registry — a standalone facade behaves exactly as
        #: before. :class:`~repro.obs.cluster.ClusterMetrics` merges
        #: component registries back into one labeled render.
        self.component: str = ""

    def _registry(self):
        return obs.component_metrics(self.component)

    # -- health-routed execution --------------------------------------------

    def _read(
        self,
        engine_read: Callable[[], Any],
        stale_read: Callable[[], Any],
    ) -> Any:
        return self._read_traced(engine_read, stale_read)[0]

    def _read_traced(
        self,
        engine_read: Callable[[], Any],
        stale_read: Callable[[], Any],
    ) -> Tuple[Any, bool]:
        """Serve a read: engine when healthy (or probing), stale otherwise.

        Returns ``(value, stale)`` so callers can surface the serving
        mode instead of silently passing off a possibly-outdated answer
        as fresh. ``stale_read`` raises :class:`DegradedServiceError`
        itself when it cannot answer (no materialized cache, filtered
        query).
        """
        if self.breaker.allow():
            try:
                with self.lock.read_locked():
                    result = engine_read()
            except Exception as exc:
                if not _is_engine_fault(exc):
                    raise
                self.breaker.record_failure()
                if self.breaker.degraded:
                    self._registry().counter(
                        "serve_reads_total", mode="stale", **self.metric_labels
                    ).inc()
                    return stale_read(), True
                raise
            self.breaker.record_success()
            self._registry().counter(
                "serve_reads_total", mode="engine", **self.metric_labels
            ).inc()
            return result, False
        self._registry().counter(
            "serve_reads_total", mode="stale", **self.metric_labels
        ).inc()
        return stale_read(), True

    def _write(
        self,
        engine_write: Callable[[], Any],
        op: str = "update",
        object_name: str = "",
    ) -> Any:
        """Run a translated update, fail-fast while degraded.

        The breaker is consulted *before* taking the write lock, so a
        degraded facade refuses immediately instead of queueing callers
        behind the writer lock. Refusals are audited (outcome
        ``degraded_rejected``) when the session carries an audit log —
        the trail records updates that were *asked for* and never ran,
        not just the ones that did.
        """
        if not self.breaker.allow():
            self._registry().counter(
                "serve_writes_total", mode="refused", **self.metric_labels
            ).inc()
            self._audit_refusal(op, object_name)
            raise DegradedServiceError(
                "service is degraded: writes are refused while the "
                "engine is unhealthy"
            )
        with self.lock.write_locked():
            try:
                result = engine_write()
            except Exception as exc:
                if _is_engine_fault(exc):
                    self.breaker.record_failure()
                self._registry().counter(
                    "serve_writes_total", mode="failed", **self.metric_labels
                ).inc()
                raise
        self.breaker.record_success()
        self._registry().counter(
            "serve_writes_total", mode="applied", **self.metric_labels
        ).inc()
        return result

    def _refuse_stale(self, reason: str) -> Any:
        raise DegradedServiceError(f"service is degraded: {reason}")

    def _audit_refusal(self, op: str, object_name: str) -> None:
        audit = getattr(self.penguin, "audit", None)
        if audit is None:
            return
        from repro.obs.audit import DEGRADED_REJECTED

        audit.append(
            op=op,
            object_name=object_name,
            outcome=DEGRADED_REJECTED,
            error="DegradedServiceError: writes refused while degraded",
        )

    def health(self) -> Dict[str, Any]:
        """The breaker's state and counters, plus total stale reads."""
        report = self.breaker.as_dict()
        report["stale_reads"] = sum(
            view_stats.get("stale_reads", 0)
            for view_stats in self.penguin.cache_stats().values()
        )
        return report

    # -- shared (read-side) operations -------------------------------------

    def query(self, name: str, text: Optional[str] = None) -> List[Instance]:
        return self._read(
            lambda: self.penguin.query(name, text),
            lambda: self._stale_query(name, text),
        )

    def get(self, name: str, key: Sequence[Any]) -> Optional[Instance]:
        return self._read(
            lambda: self.penguin.get(name, key),
            lambda: self._stale_get(name, key),
        )

    def query_served(
        self, name: str, text: Optional[str] = None
    ) -> ServedRead:
        """Like :meth:`query`, with the serving metadata attached."""
        value, stale = self._read_traced(
            lambda: self.penguin.query(name, text),
            lambda: self._stale_query(name, text),
        )
        return self._served(name, value, stale)

    def get_served(self, name: str, key: Sequence[Any]) -> ServedRead:
        """Like :meth:`get`, with the serving metadata attached."""
        value, stale = self._read_traced(
            lambda: self.penguin.get(name, key),
            lambda: self._stale_get(name, key),
        )
        return self._served(name, value, stale)

    def _served(self, name: str, value: Any, stale: bool) -> ServedRead:
        staleness = None
        if stale:
            view = self.penguin.materialized(name)
            if view is not None:
                staleness = view.staleness()
        return ServedRead(
            value=value, stale=stale, staleness=staleness, object_name=name
        )

    def _stale_query(self, name: str, text: Optional[str]) -> List[Instance]:
        view = self.penguin.materialized(name)
        if view is None:
            return self._refuse_stale(
                f"view object {name!r} has no materialized cache to "
                f"serve stale reads from"
            )
        if text:
            return self._refuse_stale(
                "filtered queries need the engine; only full-extent "
                "reads are served stale"
            )
        return view.stale_all()

    def _stale_get(self, name: str, key: Sequence[Any]) -> Instance:
        view = self.penguin.materialized(name)
        if view is None:
            return self._refuse_stale(
                f"view object {name!r} has no materialized cache to "
                f"serve stale reads from"
            )
        instance = view.stale_get(key)
        if instance is None:
            # Not cached — absence cannot be proven without the engine,
            # so refusing beats answering a possibly-wrong None.
            return self._refuse_stale(
                f"instance {tuple(key)!r} of {name!r} is not cached"
            )
        return instance

    def check_integrity(self) -> List[Violation]:
        with self.lock.read_locked():
            return self.penguin.check_integrity()

    def is_consistent(self) -> bool:
        with self.lock.read_locked():
            return self.penguin.is_consistent()

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        with self.lock.read_locked():
            return self.penguin.cache_stats()

    def metrics_snapshot(
        self, component: Optional[str] = None
    ) -> Dict[str, Any]:
        """The merged cluster metrics snapshot (global + components).

        Safe under concurrent serving: registries take no facade-wide
        lock, so this never blocks readers or writers. ``component``
        narrows the view to one shard/replica registry.
        """
        from repro.obs.cluster import ClusterMetrics

        return ClusterMetrics().snapshot(component)

    def metrics_text(self, component: Optional[str] = None) -> str:
        """The merged cluster metrics, rendered for scraping."""
        from repro.obs.cluster import ClusterMetrics

        return ClusterMetrics().render_text(component)

    # -- exclusive (write-side) operations ----------------------------------

    def insert(self, name: str, instance: Union[Instance, Mapping]) -> UpdatePlan:
        return self._write(
            lambda: self.penguin.insert(name, instance),
            op="insert", object_name=name,
        )

    def delete(
        self, name: str, key_or_instance: Union[Instance, Mapping, Sequence[Any]]
    ) -> UpdatePlan:
        return self._write(
            lambda: self.penguin.delete(name, key_or_instance),
            op="delete", object_name=name,
        )

    def replace(
        self,
        name: str,
        old: Union[Instance, Mapping, Sequence[Any]],
        new: Union[Instance, Mapping],
    ) -> UpdatePlan:
        return self._write(
            lambda: self.penguin.replace(name, old, new),
            op="replace", object_name=name,
        )

    def insert_many(
        self, name: str, instances: Iterable[Union[Instance, Mapping]]
    ) -> UpdatePlan:
        return self._write(
            lambda: self.penguin.insert_many(name, instances),
            op="insert", object_name=name,
        )

    def delete_many(
        self,
        name: str,
        keys_or_instances: Iterable[Union[Instance, Mapping, Sequence[Any]]],
    ) -> UpdatePlan:
        return self._write(
            lambda: self.penguin.delete_many(name, keys_or_instances),
            op="delete", object_name=name,
        )

    def apply_plan_batch(self, name: str, requests: Iterable) -> UpdatePlan:
        return self._write(
            lambda: self.penguin.apply_plan_batch(name, requests),
            op="batch", object_name=name,
        )

    def apply_plan(
        self, name: str, plan: UpdatePlan, op: str = "update", items: int = 1
    ) -> UpdatePlan:
        """Apply an already-translated coalesced plan, journaled and audited.

        The sharded write path translates on the owning shard via the
        side-effect-free explain pipeline and then lands the plan here,
        under this facade's breaker and write lock — the plan is not
        re-translated. A replica stack lands each shipped record the
        same way, passing the record in place of the plan.
        """
        return self._write(
            lambda: self.penguin.apply_translated_plan(
                name, plan, op=op, items=items
            ),
            op=op, object_name=name,
        )

    def delete_where(self, name: str, query: str) -> UpdatePlan:
        return self._write(
            lambda: self.penguin.delete_where(name, query),
            op="delete_where", object_name=name,
        )

    def update_where(self, name: str, query: str, transform) -> UpdatePlan:
        return self._write(
            lambda: self.penguin.update_where(name, query, transform),
            op="update_where", object_name=name,
        )

    # -- materialization (write-side: reshapes what readers see) -------------

    def materialize(self, name: str, policy: Optional[str] = None):
        with self.lock.write_locked():
            if policy is None:
                return self.penguin.materialize(name)
            return self.penguin.materialize(name, policy)

    def dematerialize(self, name: str) -> None:
        with self.lock.write_locked():
            self.penguin.dematerialize(name)

    def sync(self, name: Optional[str] = None) -> int:
        """Bring one (or every) materialized cache up to date, exclusively."""
        with self.lock.write_locked():
            if name is not None:
                view = self.penguin.materialized(name)
                return view.sync() if view is not None else 0
            return self.penguin._materialized.sync_all()

    # -- definition-time operations (write-side) ------------------------------

    def define_object(self, *args: Any, **kwargs: Any):
        with self.lock.write_locked():
            return self.penguin.define_object(*args, **kwargs)

    def register_object(self, view_object) -> None:
        with self.lock.write_locked():
            self.penguin.register_object(view_object)

    def choose_translator(self, name: str, answers=None):
        with self.lock.write_locked():
            return self.penguin.choose_translator(name, answers)

    def set_policy(self, name: str, policy):
        with self.lock.write_locked():
            return self.penguin.set_policy(name, policy)

    # -- passthrough introspection -------------------------------------------

    @property
    def engine(self):
        return self.penguin.engine

    @property
    def graph(self) -> StructuralSchema:
        return self.penguin.graph

    @property
    def object_names(self) -> Tuple[str, ...]:
        return self.penguin.object_names

    @property
    def materialized_names(self) -> Tuple[str, ...]:
        return self.penguin.materialized_names

    def object(self, name: str):
        return self.penguin.object(name)

    def translator(self, name: str):
        return self.penguin.translator(name)

    def materialized(self, name: str):
        return self.penguin.materialized(name)

    def risk_summary(self):
        return self.penguin.risk_summary()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConcurrentPenguin({self.penguin!r})"
