"""Per-shard replication: log shipping, failure detection, failover.

PR 6 made every shard a full stack — and a single point of failure.
This package gives each shard a **primary** and N **replica** stacks
kept in sync by *log shipping*: the primary's committed audit records
(ASN-ordered translated plans) are streamed over a
:class:`~repro.replicate.link.ShippingLink` and applied on the replica
through the same ``apply_plan`` flush-half entry point the sharded
write path uses — plans propagate as deltas, never re-translated
(Incremental Relational Lenses, PAPERS.md), and every applied record is
verified byte-identically against its shipped after-images
(BIRDS-style, PAPERS.md).

The protocol is a position-numbered prefix stream: a replica accepts
ship ``p`` only after ``p-1``, so each replica always holds a strict
prefix of the primary's stream, the most-caught-up replica holds the
union of everything replicated, and — with a quorum of at least one —
promotion after a primary kill can never lose a client-acked write.
Acknowledgement is *durable receipt* (the record lands in the replica's
inbox), not apply; an applier thread drains the inbox off the critical
path, and promotion drains it synchronously ("replay the journal
tail"). Epoch numbers fence the old primary: a zombie's late ships
carry a stale epoch and are rejected.

:class:`~repro.replicate.replicaset.ReplicaSet` coordinates one
shard's stacks; :class:`~repro.shard.sharded.ShardedPenguin` grows a
``replication=ReplicationConfig(...)`` parameter that attaches one set
per shard and re-points routing through it. ``python -m repro
simulate --preset failover`` (:mod:`repro.simulate`) kills primaries and
promotion targets at every checkpoint of a seeded write stream and
holds every step to a single in-memory ``Penguin``.
"""

from repro.replicate.link import ShippingLink
from repro.replicate.replica import ReplicaStack
from repro.replicate.replicaset import ReplicaSet, ReplicationConfig

__all__ = [
    "ReplicaSet",
    "ReplicaStack",
    "ReplicationConfig",
    "ShippingLink",
]
