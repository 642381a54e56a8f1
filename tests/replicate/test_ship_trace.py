"""Trace continuity across the replication hop: the shipped record
carries the trace id, and the replica's async applier thread rejoins
it — one trace from the primary's write to every replica's audit row."""

import repro.obs as obs
from repro.obs.context import activate
from repro.relational.journal import UpdateRecord
from repro.replicate import ReplicationConfig
from repro.shard import ShardedPenguin, sharded_loader
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from tests.conftest import wait_until

OBJECT = "patient_chart"


def build():
    graph = hospital_schema()
    sharded = ShardedPenguin(
        graph,
        "PATIENT",
        num_shards=2,
        # async appliers: the record crosses a real thread boundary
        replication=ReplicationConfig(replicas=2, apply_inline=False),
    )
    populate_hospital(sharded_loader(sharded), HospitalConfig(patients=4))
    sharded.register_object(patient_chart_object(graph))
    return sharded


def fresh_chart(pid):
    return {
        "patient_id": pid,
        "name": "Shipped Patient",
        "birth_year": 1970,
        "ward_name": None,
        "VISIT": [
            {
                "patient_id": pid,
                "visit_no": 1,
                "visit_date": "1991-05-29",
                "physician_id": 9000,
                "reason": "shipping",
                "DIAGNOSIS": [],
                "PRESCRIPTION": [],
                "LAB_RESULT": [],
                "PHYSICIAN": [],
            }
        ],
    }


def pid_on_shard(sharded, shard_id, start=90_000):
    pid = start
    while sharded.router.shard_of((pid,)) != shard_id:
        pid += 1
    return pid


class TestShippedRecordTrace:
    def test_record_captures_ambient_trace(self):
        with obs.use():
            sharded = build()
            try:
                shard = sharded.shard(0)
                with activate(request_id="req-capture") as ctx:
                    sharded.insert(
                        OBJECT, fresh_chart(pid_on_shard(sharded, 0))
                    )
                replica_set = shard.replica_set
                assert replica_set.stream_length > 0
                record = replica_set._stream[-1]
                assert isinstance(record, UpdateRecord)
                assert record.trace_id == ctx.trace_id
            finally:
                sharded.close()

    def test_async_applier_rejoins_the_trace(self):
        with obs.use() as hub:
            sharded = build()
            try:
                replica_set = sharded.shard(0).replica_set
                with activate(request_id="req-hop") as ctx:
                    sharded.insert(
                        OBJECT, fresh_chart(pid_on_shard(sharded, 0))
                    )

                def replica_roots():
                    return [
                        root
                        for root in hub.tracer.roots()
                        if root.name == "replica.apply"
                        and root.trace_id == ctx.trace_id
                    ]

                # the applier threads drain their queues on their own
                # schedule; wait, never sleep
                wait_until(lambda: len(replica_roots()) >= 2)
                roots = replica_roots()
                # every replica's root span rejoined the ONE trace the
                # write started under — no new trace across the hop
                assert {root.trace_id for root in roots} == {ctx.trace_id}
                replicas = {root.attributes["replica"] for root in roots}
                assert replicas == {"r1", "r2"}
                # ...and the replica audit rows cross-link the same trace
                for replica in replica_set.replicas:
                    audit = replica.serving.penguin.audit
                    wait_until(lambda: len(audit.records()) > 0)
                    tail = audit.records()[-1]
                    assert tail.trace_id == ctx.trace_id
            finally:
                sharded.close()
