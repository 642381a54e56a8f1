"""One replica stack: the target the primary ships its records to.

A :class:`ReplicaStack` is a full serving stack — its own engine,
journal, audit log and breaker — identical in shape to the shard
primary it shadows, except that it keeps no materialized cache until a
promotion gives it the old primary's views. It stays in sync by receiving
the primary's committed audit records
(:class:`~repro.relational.journal.UpdateRecord`) in stream order and
applying each through ``ConcurrentPenguin.apply_plan``, the same
flush-half entry point the sharded write path uses: journaled, audited,
never re-translated. The record itself is passed in place of the plan,
so the translator's one commit step journals and audits the primary's
encoded payloads verbatim.

The receive/apply split is the heart of the replication overhead
story. **Receive** is durable receipt — an epoch check, a position
check, and an inbox append of already-encoded payloads — and is what
the primary's quorum counts. **Apply** follows on the same thread,
right after the append: the record is a plan already translated on the
primary, so applying it is bookkeeping, and a thread of its own would
buy an interpreter-lock convoy, not parallelism. An apply failure never
fails the ship: the record stays inboxed and the next receive,
catch-up, promotion or stale read retries it; promotion drains the
inbox first, so an acked-but-unapplied record can never be lost by a
failover. Each applied record is verified against its shipped
after-images byte for byte; a mismatch marks the stack divergent and
excludes it from quorum and promotion.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import repro.obs as obs
from repro.obs.context import TraceContext, attach
from repro.errors import (
    FencedWriteError,
    ReplicaDivergenceError,
    ReplicationError,
    TransientEngineError,
)
from repro.obs.audit import ROLLED_BACK, MemoryAuditLog
from repro.penguin import Penguin
from repro.relational.journal import (
    MemoryJournal,
    UpdateRecord,
    restore_images,
)
from repro.serve.concurrent import ConcurrentPenguin
from repro.structural.schema_graph import StructuralSchema

__all__ = ["ReplicaStack"]


class ReplicaStack:
    """A full serving stack that follows a primary's shipped stream.

    ``received_count`` (applied + inboxed) is the stack's position in
    the stream: because :meth:`receive` only accepts position
    ``received_count + 1``, the stack's content is always a strict
    prefix of the primary's stream — the invariant failover's
    most-caught-up promotion rule rests on.

    Built fresh from a schema graph for replicas; wraps an existing
    :class:`~repro.serve.concurrent.ConcurrentPenguin` (``serving=``)
    when adopting a shard's original primary into the set.
    """

    def __init__(
        self,
        shard_id: int,
        name: str,
        graph: Optional[StructuralSchema] = None,
        serving: Optional[ConcurrentPenguin] = None,
        engine_factory=None,
    ) -> None:
        if serving is None:
            if graph is None:
                raise ValueError("a fresh ReplicaStack needs a schema graph")
            penguin = Penguin(
                graph,
                engine=engine_factory() if engine_factory is not None else None,
                install=True,
                audit=MemoryAuditLog(),
            )
            # Same discipline as ShardedPenguin: the journal is attached
            # after construction, so no solo recovery pass runs here.
            penguin.journal = MemoryJournal()
            serving = ConcurrentPenguin(penguin)
            serving.metric_labels = {"shard": str(shard_id), "replica": name}
        self.shard_id = shard_id
        self.name = name
        self.serving = serving
        self.epoch = 1
        self.killed = False
        self.fenced = False
        self.divergent = False
        self.apply_error: Optional[BaseException] = None
        self.fenced_ships = 0
        self._inbox: List[UpdateRecord] = []
        self._applied = 0
        self._lock = threading.RLock()
        # Serializes drains with each other and with retract: a stale
        # read drains from a reader thread, outside the set's writer
        # mutex. Held *around* each apply so _lock (the ack path) is
        # never taken for the apply's duration.
        self._apply_mutex = threading.RLock()

    # -- stack accessors -----------------------------------------------------

    @property
    def penguin(self) -> Penguin:
        return self.serving.penguin

    @property
    def engine(self):
        return self.serving.penguin.engine

    @property
    def journal(self):
        return self.serving.penguin.journal

    @property
    def audit(self):
        return self.serving.penguin.audit

    # -- stream position -----------------------------------------------------

    @property
    def applied_count(self) -> int:
        with self._lock:
            return self._applied

    @property
    def received_count(self) -> int:
        """Stream records durably received (applied or inboxed)."""
        with self._lock:
            return self._applied + len(self._inbox)

    # -- lifecycle (fault surface) -------------------------------------------

    def kill(self) -> None:
        """Model process death: receives and reads start failing."""
        self.killed = True

    # -- the shipping target -------------------------------------------------

    def receive(self, epoch: int, position: int, record: UpdateRecord) -> None:
        """Durably accept one stream record (this is the primary's ack),
        then :meth:`drain` the inbox on the calling thread.

        Enforces the two protocol invariants:

        * **fencing** — a ship with an epoch older than this stack has
          seen is a zombie primary's late write; rejected.
        * **prefix order** — only position ``received_count + 1`` is
          accepted. A lower position is a redelivery of something
          already held (idempotent success); a higher one is a gap and
          an error, so the sender falls back to backlog re-shipping.
        """
        if self.killed:
            raise TransientEngineError(
                f"replica {self.name!r} of shard {self.shard_id} is down"
            )
        with self._lock:
            if epoch < self.epoch:
                self.fenced_ships += 1
                raise FencedWriteError(
                    f"replica {self.name!r} is at epoch {self.epoch}; "
                    f"rejecting ship from fenced epoch {epoch}"
                )
            self.epoch = epoch
            expected = self._applied + len(self._inbox) + 1
            if position < expected:
                return  # duplicate delivery — already durably held
            if position > expected:
                raise ReplicationError(
                    f"replica {self.name!r}: stream gap — got position "
                    f"{position}, expected {expected}"
                )
            self._inbox.append(record)
        self.drain()

    # -- applying ------------------------------------------------------------

    def drain(self) -> int:
        """Apply every inboxed record in order; returns how many.

        Called by :meth:`receive` right after the append, by catch-up,
        by promotion ("replay the journal tail"), and before a replica
        serves a stale read. An apply failure is kept in
        :attr:`apply_error`, never raised: a record is only popped
        *after* its apply commits, so it stays queued for the next
        caller to retry, and a divergent stack applies nothing more.

        The apply itself runs outside ``_lock``, which the primary's lag
        bookkeeping reads; ``_apply_mutex`` keeps drains and
        :meth:`retract` serialized.
        """
        applied = 0
        with self._apply_mutex:
            while not self.divergent:
                with self._lock:
                    if not self._inbox:
                        break
                    record = self._inbox[0]
                try:
                    self._apply(record)
                except Exception as exc:
                    self.apply_error = exc
                    break
                with self._lock:
                    self._inbox.pop(0)
                    self._applied += 1
                self.apply_error = None
                applied += 1
        return applied

    def _apply(self, record: UpdateRecord) -> None:
        """Commit one shipped record: journaled, audited, breaker-guarded.

        ``ConcurrentPenguin.apply_plan`` takes the record itself, so the
        translator's commit step journals and audits the shipped
        payloads verbatim instead of recomputing images and re-encoding
        a plan it just decoded; the facade keeps the breaker and the
        write lock — stale reads never observe a half-applied record.
        """
        # Re-attach the originating request's trace context: a drain
        # from catch-up or a stale read has no ambient context of its
        # own, and the journal intent + audit record written below stamp
        # the ambient trace id, so the replica's trail cross-links back
        # to the request.
        ctx = (
            TraceContext(record.trace_id)
            if record.trace_id is not None
            else None
        )
        with attach(ctx):
            with obs.tracer().span(
                "replica.apply",
                shard=self.shard_id,
                replica=self.name,
                op=record.op,
                object=record.label,
            ):
                self.serving.apply_plan(
                    record.label, record,
                    op=record.op, items=record.items,
                )
                self._verify_images(record)

    def _verify_images(self, record: UpdateRecord) -> None:
        for (relation, key), (_before, after) in record.images().items():
            current = self.engine.get(relation, key)
            if current != after:
                self.divergent = True
                raise ReplicaDivergenceError(
                    f"replica {self.name!r} diverged applying "
                    f"{record.label}.{record.op}: {relation}{key!r} "
                    f"is {current!r}, shipped after-image says {after!r}"
                )

    def retract(self, position: int, record: UpdateRecord) -> None:
        """Undo the newest stream record (primary quorum failure path).

        If the record is still inboxed it is simply dropped; if a drain
        already committed it, its cells are forced back to
        their before-images and its audit record is resolved to
        ``rolled_back`` — the replica's trail then matches the
        primary's own revert.

        Takes ``_apply_mutex`` first so a retract can never race an
        in-flight apply of the very record it is undoing: either the
        apply finished (force-images path) or never started (inbox pop).
        """
        with self._apply_mutex, self._lock:
            total = self._applied + len(self._inbox)
            if position > total:
                return  # never received; nothing to undo
            if position != total:
                raise ReplicationError(
                    f"replica {self.name!r}: can only retract the newest "
                    f"record (position {total}), not {position}"
                )
            if self._inbox:
                self._inbox.pop()
                return
            restore_images(self.engine, record.images(), to_after=False)
            audit = self.audit
            if audit is not None and audit.head_asn() > 0:
                audit.resolve(
                    audit.head_asn(),
                    ROLLED_BACK,
                    error="replication quorum not reached on the primary",
                )
            self._applied -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaStack(shard={self.shard_id}, name={self.name!r}, "
            f"epoch={self.epoch}, applied={self._applied}, "
            f"inbox={len(self._inbox)})"
        )
