"""Trace continuity across the replication hop: the shipped record
carries the trace id, and each replica applies it on receipt inside the
ship — one trace from the primary's write to every replica's audit row."""

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

OBJECT = "patient_chart"


def build():
    graph = hospital_schema()
    sharded = ShardedPenguin(
        graph,
        "PATIENT",
        num_shards=2,
        replication=ReplicationConfig(replicas=2),
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

    def test_apply_on_receipt_joins_the_write_trace(self):
        with obs.use() as hub:
            sharded = build()
            try:
                replica_set = sharded.shard(0).replica_set
                with activate(request_id="req-hop") as ctx:
                    sharded.insert(
                        OBJECT, fresh_chart(pid_on_shard(sharded, 0))
                    )
                # No waiting: the write returned, so every replica applied.
                in_trace = [
                    span
                    for root in hub.tracer.roots()
                    if root.trace_id == ctx.trace_id
                    for span in root.iter_spans()
                ]
                ships = [s for s in in_trace if s.name == "replicate.ship"]
                assert len(ships) == 1
                # every replica's apply sits in the ONE trace the write
                # started under, below the ship that delivered it
                applies = [
                    span
                    for span in ships[0].iter_spans()
                    if span.name == "replica.apply"
                ]
                replicas = {span.attributes["replica"] for span in applies}
                assert replicas == {"r1", "r2"}
                assert [s for s in in_trace if s.name == "replica.apply"] == (
                    applies
                )
                # ...and the replica audit rows cross-link the same trace
                for replica in replica_set.replicas:
                    tail = replica.serving.penguin.audit.records()[-1]
                    assert tail.trace_id == ctx.trace_id
            finally:
                sharded.close()
