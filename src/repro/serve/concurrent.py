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
  readers. Every translated update is first *admitted* by the one write
  guard (:meth:`ConcurrentPenguin.admitted`: breaker, writer serialiser,
  outcome report), which a sharded or replicated session enters around
  its translate half as well.

The wrapper owns its lock but not the session: the underlying
``Penguin`` stays fully usable single-threaded, and is reachable via
``.penguin`` for configuration done before threads start.
"""

from __future__ import annotations

import contextlib
import threading
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence,
)

import repro.obs as obs
from repro.core.instance import Instance
from repro.core.instantiation import object_key
from repro.errors import DegradedServiceError, TransactionError
from repro.core.updates.operations import UpdateRequest
from repro.obs.audit import DEGRADED_REJECTED
from repro.penguin import Penguin, ViewObjectSession
from repro.relational.operations import UpdatePlan
from repro.relational.retry import is_transient_error
from repro.serve.breaker import CircuitBreaker
from repro.serve.locks import ReadWriteLock

__all__ = ["ConcurrentPenguin", "ServedRead"]


class ServedRead:
    """A read result plus the serving metadata the caller can't infer.

    Before this type existed, a DEGRADED-mode stale read was
    indistinguishable from a fresh one at the API surface; ``stale``
    makes the difference explicit, ``staleness`` counts the committed
    changes the answering cache has not applied, and ``shard``
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
    ) -> None:
        self.value = value
        self.stale = stale
        self.shard = shard
        self.staleness = staleness
        self.object_name = object_name
        self.source: Optional[str] = None

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


#: The wrapped session's names this facade hands through, and the side
#: of its lock each is called under: none for read-only introspection,
#: shared for whole-database reads, exclusive for definition-time
#: operations and materialization changes (they reshape what readers see).
_PASSTHROUGH: Dict[str, Optional[str]] = {
    **dict.fromkeys((
        "engine", "graph", "object", "object_names", "translator",
        "materialized", "materialized_names", "risk_summary",
    )),
    **dict.fromkeys(
        ("check_integrity", "is_consistent", "cache_stats"), "read_locked"
    ),
    **dict.fromkeys((
        "define_object", "register_object", "choose_translator",
        "set_policy", "materialize", "dematerialize",
    ), "write_locked"),
}


class ConcurrentPenguin(ViewObjectSession):
    """Readers-writer concurrency control around a ``Penguin`` session.

    Wraps an existing session::

        serving = ConcurrentPenguin(penguin)

    A :class:`~repro.serve.breaker.CircuitBreaker` tracks engine health.
    After ``breaker.failure_threshold`` consecutive engine faults the
    facade enters the DEGRADED state: writes fail fast with
    :class:`~repro.errors.DegradedServiceError`, and reads are served
    *stale* from materialized caches (counted in each view's
    ``stats.stale_reads``). Every few refused requests one probe is let
    through to the engine; the first success closes the breaker.
    """

    def __init__(
        self, session: Penguin, breaker: Optional[CircuitBreaker] = None
    ) -> None:
        self.penguin = session
        self.lock = ReadWriteLock()
        self.breaker = breaker or CircuitBreaker()
        # The writer serialiser of :meth:`admitted` (only its exclusive
        # side is used; :attr:`queued` reads its waiters), and the thread
        # that holds it (the guard is re-entrant for that thread).
        self._mutex = ReadWriteLock()
        self._writer: Optional[int] = None
        #: Extra labels stamped on every serving metric this facade
        #: emits; a ShardedPenguin sets ``{"shard": "<id>"}`` here, and
        #: a replica stack adds ``"replica": "<name>"``, so each stack's
        #: series stay distinguishable in the one registry (and bounded
        #: by the topology).
        self.metric_labels: Dict[str, str] = {}

    def _count(self, name: str, mode: str) -> None:
        obs.metrics().counter(name, mode=mode, **self.metric_labels).inc()

    # -- health-routed execution --------------------------------------------

    def _read_traced(
        self,
        name: str,
        engine_read: Callable[[], Any],
        stale_read: Callable[[], Any],
    ) -> ServedRead:
        """Serve a read: engine when healthy (or probing), stale otherwise.

        The answer says which (``stale``, and how many committed changes
        the answering cache has not applied), so callers can surface the
        serving mode instead of silently passing off a possibly-outdated
        answer as fresh. ``stale_read`` raises
        :class:`DegradedServiceError` itself when it cannot answer (no
        materialized cache, filtered query).
        """
        if self.breaker.allow():
            try:
                with self.lock.read_locked():
                    result = engine_read()
            except Exception as exc:
                if not _is_engine_fault(exc):
                    # A rejection is an answer: the engine was reached.
                    self.breaker.record_success()
                    raise
                self.breaker.record_failure()
                if not self.breaker.degraded:
                    raise
            else:
                self.breaker.record_success()
                self._count("serve_reads_total", "engine")
                return ServedRead(result, False, object_name=name)
        self._count("serve_reads_total", "stale")
        return ServedRead(
            stale_read(), True, object_name=name,
            staleness=self.penguin.materialized(name).staleness(),
        )

    @contextlib.contextmanager
    def admitted(
        self, op: str = "update", object_name: str = ""
    ) -> Iterator[None]:
        """The write guard: admit, serialise, run the body, report.

        Entered once per write, *before* its translate half, and held to
        its commit. The breaker is consulted first, so a degraded facade
        refuses at once — no engine read, no queueing behind a writer —
        and the refusal is audited (outcome ``degraded_rejected``: the
        trail records updates that were *asked for* and never ran).
        Then the writer serialiser: Section 5's algorithms read the
        database to decide, so a plan is the translator's plan only for
        the state it was translated against, and no other writer may
        change that state before the plan lands. Readers are not
        excluded here; the body takes :attr:`lock`'s exclusive side
        where it lands. The breaker hears how the body ended: an engine
        fault from any half is a failure, anything else — a rejection
        included, since the engine answered — a success; and
        ``serve_writes_total{mode}`` counts the write once: the thread
        that holds the guard re-enters it freely (``ReplicaSet.apply_plan``
        → :meth:`apply_plan` inside a sharded write) without consulting
        or reporting again.
        """
        me = threading.get_ident()
        if self._writer == me:
            yield
            return
        if not self.breaker.allow():
            self._count("serve_writes_total", "refused")
            audit = getattr(self.penguin, "audit", None)
            if audit is not None:
                audit.append(
                    op=op,
                    object_name=object_name,
                    outcome=DEGRADED_REJECTED,
                    error="DegradedServiceError: writes refused while degraded",
                )
            raise DegradedServiceError(
                "service is degraded: writes are refused while the "
                "engine is unhealthy"
            )
        with self._mutex:
            self._writer = me
            try:
                yield
            except Exception as exc:
                if _is_engine_fault(exc):
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()  # a rejection is an answer
                self._count("serve_writes_total", "failed")
                raise
            finally:
                self._writer = None
        self.breaker.record_success()
        self._count("serve_writes_total", "applied")

    @property
    def queued(self) -> int:
        """Writers waiting on the guard behind the one that holds it."""
        return self._mutex.waiting_writers

    def _write(
        self,
        engine_write: Callable[[], Any],
        op: str = "update",
        object_name: str = "",
    ) -> Any:
        """A write on this facade alone: the guard, and the exclusive
        side for the whole body — an eager translate lands as it goes,
        so readers are excluded from its first engine touch."""
        with self.admitted(op, object_name), self.lock.write_locked():
            return engine_write()

    def _refuse_stale(self, reason: str) -> Any:
        raise DegradedServiceError(f"service is degraded: {reason}")

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
        return self.query_served(name, text).value

    def get(self, name: str, key: Sequence[Any]) -> Optional[Instance]:
        return self.get_served(name, key).value

    def query_served(
        self, name: str, text: Optional[str] = None
    ) -> ServedRead:
        """Like :meth:`query`, with the serving metadata attached."""
        return self._read_traced(
            name,
            lambda: self.penguin.query(name, text),
            lambda: self._stale_query(name, text),
        )

    def get_served(self, name: str, key: Sequence[Any]) -> ServedRead:
        """Like :meth:`get`, with the serving metadata attached."""
        key = object_key(name, key)
        return self._read_traced(
            name,
            lambda: self.penguin.get(name, key),
            lambda: self._stale_get(name, key),
        )

    def _stale_view(self, name: str):
        view = self.penguin.materialized(name)
        if view is None:
            self._refuse_stale(
                f"view object {name!r} has no materialized cache to "
                f"serve stale reads from"
            )
        return view

    def _stale_query(self, name: str, text: Optional[str]) -> List[Instance]:
        view = self._stale_view(name)
        if text:
            return self._refuse_stale(
                "filtered queries need the engine; only full-extent "
                "reads are served stale"
            )
        return view.stale_all()

    def _stale_get(self, name: str, key: Sequence[Any]) -> Instance:
        instance = self._stale_view(name).stale_get(key)
        if instance is None:
            # Not cached — absence cannot be proven without the engine,
            # so refusing beats answering a possibly-wrong None.
            return self._refuse_stale(
                f"instance {tuple(key)!r} of {name!r} is not cached"
            )
        return instance

    # -- exclusive (write-side) operations: the verbs are ViewObjectSession's,
    # this session guards the inner session's primitives — a query-driven
    # verb from its select to its commit, so no writer can interleave

    def _apply(
        self, name: str, requests: List[UpdateRequest], op: str
    ) -> UpdatePlan:
        return self._write(
            lambda: self.penguin._apply(name, requests, op), op, name
        )

    def _select_apply(
        self, name: str, query: str, request_of: Callable, op: str
    ) -> UpdatePlan:
        return self._write(
            lambda: self.penguin._select_apply(name, query, request_of, op),
            op, name,
        )

    def apply_plan(
        self, name: str, plan: UpdatePlan, op: str = "update", items: int = 1
    ) -> UpdatePlan:
        """Apply an already-translated plan, journaled and audited.

        The sharded write path translates on the owning shard
        (``Translator.explain_batch`` with ``op=``) and then lands the
        plan here, under this facade's breaker and write lock — neither
        re-translated nor re-read: its images ride on it. A replica stack
        lands each shipped record the same way, passing the record in
        place of the plan.
        """
        return self._write(
            lambda: self.penguin.translator(name).apply_plan(
                self.penguin.engine, plan, op=op, items=items
            ),
            op=op, object_name=name,
        )

    def sync(self) -> int:
        """Bring every materialized cache up to date, exclusively."""
        with self.lock.write_locked():
            return self.penguin._materialized.sync_all()

    def __getattr__(self, attr: str) -> Any:
        try:
            mode = _PASSTHROUGH[attr]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {attr!r}"
            ) from None
        target = getattr(self.penguin, attr)
        if mode is None:
            return target

        def locked(*args: Any, **kwargs: Any) -> Any:
            with getattr(self.lock, mode)():
                return target(*args, **kwargs)

        return locked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConcurrentPenguin({self.penguin!r})"
