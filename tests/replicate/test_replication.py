"""Per-shard replication: log shipping, quorum, failover, catch-up."""

import itertools

import pytest

import repro.obs as obs
from repro.errors import (
    DegradedServiceError,
    FailoverInProgressError,
    FencedWriteError,
    PrimaryDownError,
    ReplicationError,
    ReplicaDivergenceError,
    ReplicationQuorumError,
    TransientEngineError,
)
from repro.obs.history import divergence
from repro.relational.faults import FaultHook, FaultInjectingEngine, FaultPlan
from repro.relational.journal import UpdateRecord
from repro.relational.memory_engine import MemoryEngine
from repro.relational.sqlite_engine import SqliteEngine
from repro.replicate import ReplicationConfig, ShippingLink
from repro.shard import ShardedPenguin, sharded_loader
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    hospital_session,
    patient_chart_object,
    populate_hospital,
)
from tests.conftest import fault

OBJECT = "patient_chart"


def fresh_chart(pid, name="Replicated Patient"):
    return {
        "patient_id": pid,
        "name": name,
        "birth_year": 1970,
        "ward_name": None,
        "VISIT": [
            {
                "patient_id": pid,
                "visit_no": 1,
                "visit_date": "1991-05-29",
                "physician_id": 9000,
                "reason": "replication",
                "DIAGNOSIS": [],
                "PRESCRIPTION": [],
                "LAB_RESULT": [],
                "PHYSICIAN": [],
            }
        ],
    }


def build(replicas=2, quorum=1, miss_threshold=3, shards=2, patients=6,
          backend="memory", engine_factory=None):
    graph = hospital_schema()
    replication = ReplicationConfig(replicas=replicas, engine_factory=engine_factory)
    replication.QUORUM = quorum
    sharded = ShardedPenguin(
        graph,
        "PATIENT",
        num_shards=shards,
        engines=[
            SqliteEngine() if backend == "sqlite" else MemoryEngine()
            for _ in range(shards)
        ],
        install=True,
        replication=replication,
    )
    for shard in sharded.shards:
        shard.replica_set.detector.MISS_THRESHOLD = miss_threshold
    populate_hospital(sharded_loader(sharded), HospitalConfig(patients=patients))
    sharded.register_object(patient_chart_object(graph))
    return sharded


def pid_on_shard(sharded, shard_id, start=90_000):
    """The first integer key from ``start`` up that routes to ``shard_id``."""
    return next(
        key for key in itertools.count(start)
        if sharded.router.shard_of((key,)) == shard_id
    )


def chart_on_shard(sharded, shard_id, name="Replicated Patient", start=90_000):
    return fresh_chart(pid_on_shard(sharded, shard_id, start), name)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationConfig(replicas=0)

    def test_replication_off_by_default(self):
        graph = hospital_schema()
        sharded = ShardedPenguin(graph, "PATIENT", num_shards=2)
        assert sharded.replication is None
        assert all(shard.replica_set is None for shard in sharded.shards)


class TestShipping:
    def test_writes_replicate_byte_identically(self):
        sharded = build()
        for i in range(6):
            sharded.insert(OBJECT, fresh_chart(90_000 + i, f"chart {i}"))
        for shard in sharded.shards:
            replica_set = shard.replica_set
            for replica in replica_set.replicas:
                assert divergence(shard.engine, replica.engine) == []
                assert replica_set.lag(replica) == 0
        sharded.close()

    def test_seed_load_reaches_replicas(self):
        sharded = build()
        for shard in sharded.shards:
            for replica in shard.replica_set.replicas:
                assert divergence(shard.engine, replica.engine) == []
        sharded.close()

    def test_replicas_have_applied_when_the_write_returns(self):
        sharded = build()
        for i in range(4):
            sharded.insert(OBJECT, fresh_chart(90_100 + i))
        for shard in sharded.shards:
            for replica in shard.replica_set.replicas:
                assert divergence(shard.engine, replica.engine) == []
                assert shard.replica_set.lag(replica) == 0
        sharded.close()

    def test_primary_reads_have_no_source_marker(self):
        sharded = build()
        pid = pid_on_shard(sharded, 0, start=100)
        served = sharded.get_served(OBJECT, (pid,))
        assert served.source is None
        assert "source" not in served.meta()
        sharded.close()

    def test_duplicate_ship_is_idempotent_and_gap_rejected(self):
        sharded = build()
        sharded.insert(OBJECT, chart_on_shard(sharded, 0))
        replica_set = sharded.shard(0).replica_set
        replica = replica_set.replicas[0]
        record = replica_set._stream[-1]
        held = replica.received_count
        # Redelivery of an old position: accepted silently, nothing changes.
        replica.receive(replica_set.epoch, held, record)
        assert replica.received_count == held
        # A position past the next expected one is a stream gap.
        with pytest.raises(ReplicationError):
            replica.receive(replica_set.epoch, held + 2, record)
        sharded.close()


class TestQuorum:
    def test_unreachable_quorum_fails_fast(self):
        sharded = build()
        replica_set = sharded.shard(0).replica_set
        for replica in replica_set.replicas:
            replica_set.link(replica.name).wedge()
        audited = len(sharded.shard(0).penguin.audit.records())
        with pytest.raises(ReplicationQuorumError):
            sharded.insert(OBJECT, chart_on_shard(sharded, 0))
        # Fail-fast means the primary never even applied or audited it.
        assert len(sharded.shard(0).penguin.audit.records()) == audited
        sharded.close()

    def test_a_divergent_replica_is_not_counted_toward_the_quorum(self):
        """Both links reachable, one replica divergent: the refusal names
        the one replica that could ack, the count the check refused on."""
        sharded = build(replicas=2, quorum=2)
        replica_set = sharded.shard(0).replica_set
        replica_set.replicas[1].divergent = True
        with pytest.raises(
            ReplicationQuorumError,
            match=r"only 1 replica link\(s\) reachable, quorum is 2",
        ):
            sharded.insert(OBJECT, chart_on_shard(sharded, 0))
        sharded.close()

    def test_mid_write_quorum_loss_reverts_the_primary(self):
        sharded = build()
        replica_set = sharded.shard(0).replica_set

        def wedge(point, shard_id):
            for replica in replica_set.replicas:
                replica_set.link(replica.name).wedge()

        replica_set.failpoint = FaultHook(FaultPlan().call_at("post_apply", wedge))
        chart = chart_on_shard(sharded, 0)
        key = (chart["patient_id"],)
        with pytest.raises(ReplicationQuorumError):
            sharded.insert(OBJECT, chart)
        replica_set.failpoint = None
        assert sharded.get(OBJECT, key) is None
        assert sharded.shard(0).penguin.audit.records()[-1].state == (
            "rolled_back"
        )
        # Healing the links restores the write path, replicas converge.
        for replica in replica_set.replicas:
            replica_set.link(replica.name).heal()
        sharded.insert(OBJECT, chart)
        assert sharded.get(OBJECT, key) is not None
        for replica in replica_set.replicas:
            assert divergence(sharded.shard(0).engine, replica.engine) == []
        sharded.close()

    def test_quorum_revert_restores_primary_and_replica_through_one_routine(
        self, monkeypatch
    ):
        """One replica applied the record, the other never got it, the
        quorum is two: the replica's retract and the primary's revert
        both go through ``restore_images`` and both trails say
        ``rolled_back``."""
        import repro.replicate.replica as replica_module
        import repro.replicate.replicaset as replicaset_module
        from repro.relational.journal import restore_images

        restored = []

        def spy_for(who):
            def spy(engine, images, to_after, plan=None):
                restored.append((who, to_after))
                return restore_images(engine, images, to_after, plan=plan)

            return spy

        monkeypatch.setattr(replica_module, "restore_images", spy_for("replica"))
        monkeypatch.setattr(
            replicaset_module, "restore_images", spy_for("primary")
        )
        sharded = build(replicas=2, quorum=2)
        replica_set = sharded.shard(0).replica_set
        r1, r2 = replica_set.replicas

        replica_set.failpoint = FaultHook(FaultPlan().call_at(
            "post_apply", lambda point, shard: replica_set.link(r2.name).wedge()
        ))
        chart = chart_on_shard(sharded, 0)
        with pytest.raises(ReplicationQuorumError):
            sharded.insert(OBJECT, chart)
        assert restored == [("replica", False), ("primary", False)]
        assert sharded.get(OBJECT, (chart["patient_id"],)) is None
        assert divergence(sharded.shard(0).engine, r1.engine) == []
        assert r1.audit.records()[-1].state == "rolled_back"
        assert sharded.shard(0).penguin.audit.records()[-1].state == (
            "rolled_back"
        )
        sharded.close()

    def test_quorum_zero_ships_best_effort(self):
        sharded = build(replicas=1, quorum=0)
        replica_set = sharded.shard(0).replica_set
        replica_set.link(replica_set.replicas[0].name).wedge()
        chart = chart_on_shard(sharded, 0)
        sharded.insert(OBJECT, chart)  # acked without any replica
        assert sharded.get(OBJECT, (chart["patient_id"],)) is not None
        replica_set.link(replica_set.replicas[0].name).heal()
        replica_set.catch_up()
        assert divergence(
            sharded.shard(0).engine, replica_set.replicas[0].engine
        ) == []
        sharded.close()


class TestFailover:
    def test_promotion_preserves_acked_writes_and_repoints_routing(self):
        with obs.use():
            sharded = build()
            shard = sharded.shard(0)
            replica_set = shard.replica_set
            acked = []
            for i in range(4):
                chart = chart_on_shard(sharded, 0, f"pre-kill {i}", 91_000 + i * 10)
                sharded.insert(OBJECT, chart)
                acked.append((chart["patient_id"], f"pre-kill {i}"))
            old_serving = shard.serving
            replica_set.primary.kill()
            # Writes miss until the detector trips, then fail over inline.
            post = chart_on_shard(sharded, 0, "post-kill", 92_000)
            for _ in range(replica_set.detector.MISS_THRESHOLD):
                try:
                    sharded.insert(OBJECT, post)
                    break
                except PrimaryDownError:
                    continue
            assert replica_set.failovers == 1
            assert replica_set.epoch == 2
            assert shard.serving is not old_serving
            assert shard.serving is replica_set.primary.serving
            for pid, name in acked + [(post["patient_id"], "post-kill")]:
                assert sharded.get(OBJECT, (pid,)).to_dict()["name"] == name
            assert sharded.shard(0).penguin.replay_audit().ok
            assert sharded.check_integrity() == []
            health = sharded.health()
            assert health["replication"]["0"]["epoch"] == 2
            sharded.close()

    def test_promotion_drains_the_inbox_first(self):
        """An apply that fails leaves its record inboxed and the ship
        acked; promotion applies it before the stack serves."""
        sharded = build(
            engine_factory=lambda: FaultInjectingEngine(MemoryEngine())
        )
        replica_set = sharded.shard(0).replica_set
        chosen = replica_set.replicas[0]  # promoted: ties go by name
        charts = [
            chart_on_shard(sharded, 0, f"inbox {i}", 93_000 + i * 10)
            for i in range(3)
        ]
        for chart in charts[:-1]:
            sharded.insert(OBJECT, chart)
        chosen.engine.hook.plan = FaultPlan().add(fault("transient", times=1))
        sharded.insert(OBJECT, charts[-1])  # acked on receipt
        assert isinstance(chosen.apply_error, TransientEngineError)
        assert chosen.received_count == chosen.applied_count + 1
        assert replica_set.link(chosen.name).cursor == replica_set.stream_length
        replica_set.primary.kill()
        # Heartbeats, not reads: a stale read would drain the inbox itself.
        for _ in range(replica_set.detector.MISS_THRESHOLD):
            replica_set.probe()
        assert replica_set.failovers == 1
        assert replica_set.primary is chosen
        assert chosen.apply_error is None
        assert chosen.received_count == chosen.applied_count
        # Everything acked pre-kill is applied on the promoted stack.
        for chart in charts:
            instance = sharded.get(OBJECT, (chart["patient_id"],))
            assert instance.to_dict()["name"] == chart["name"]
        sharded.close()

    def test_a_stack_whose_drain_fails_is_not_promoted_yet(self):
        """No stack is promoted with an acked record still inboxed (the
        stream would be cut to what it applied): when every stack that
        holds the longest prefix fails its drain, the failover is a
        PrimaryDownError chained to the apply error, and a later one
        promotes the stack whole."""
        sharded = build(
            engine_factory=lambda: FaultInjectingEngine(MemoryEngine())
        )
        replica_set = sharded.shard(0).replica_set
        chosen, other = replica_set.replicas
        chart = chart_on_shard(sharded, 0, "stuck", 93_500)
        # One failure for the receive's drain, one for the promotion's.
        chosen.engine.hook.plan = FaultPlan().add(fault("transient", times=2))
        sharded.insert(OBJECT, chart)
        other.kill()  # fully applied, but it cannot serve
        stream = replica_set.stream_length
        old = replica_set.primary
        old.kill()
        for _ in range(replica_set.detector.MISS_THRESHOLD - 1):
            replica_set.probe()
        with pytest.raises(PrimaryDownError) as refused:
            sharded.insert(OBJECT, chart_on_shard(sharded, 0, "later", 93_600))
        assert isinstance(refused.value.__cause__, TransientEngineError)
        assert replica_set.failovers == 0 and replica_set.primary is old
        assert replica_set.stream_length == stream
        replica_set.probe()
        assert replica_set.failovers == 1 and replica_set.primary is chosen
        assert chosen.received_count == chosen.applied_count == stream
        instance = sharded.get(OBJECT, (chart["patient_id"],))
        assert instance.to_dict()["name"] == "stuck"
        sharded.close()

    def test_failover_tries_every_fully_received_replica(self):
        """The first candidate's drain fails; the next one holding the
        same prefix, fully applied, is promoted on the first failover."""
        sharded = build(
            engine_factory=lambda: FaultInjectingEngine(MemoryEngine())
        )
        replica_set = sharded.shard(0).replica_set
        first, second = replica_set.replicas  # ties go by name
        chart = chart_on_shard(sharded, 0, "stuck", 93_500)
        first.engine.hook.plan = FaultPlan().add(fault("transient", times=2))
        sharded.insert(OBJECT, chart)
        stream = replica_set.stream_length
        replica_set.primary.kill()
        for _ in range(replica_set.detector.MISS_THRESHOLD):
            replica_set.probe()
        assert replica_set.failovers == 1 and replica_set.primary is second
        assert second.received_count == second.applied_count == stream
        assert replica_set.stream_length == stream
        assert first in replica_set.replicas
        instance = sharded.get(OBJECT, (chart["patient_id"],))
        assert instance.to_dict()["name"] == "stuck"
        sharded.close()

    def test_a_shorter_prefix_is_never_promoted(self):
        """A live, fully applied replica that missed a ship is passed
        over: the stack holding the longest prefix is the only choice."""
        sharded = build(
            engine_factory=lambda: FaultInjectingEngine(MemoryEngine())
        )
        replica_set = sharded.shard(0).replica_set
        longest, behind = replica_set.replicas
        behind.kill()
        longest.engine.hook.plan = FaultPlan().add(fault("transient", times=2))
        sharded.insert(OBJECT, chart_on_shard(sharded, 0, "missed", 93_500))
        behind.killed = False  # back, one record short
        assert behind.received_count == longest.received_count - 1
        replica_set.primary.kill()
        for _ in range(replica_set.detector.MISS_THRESHOLD - 1):
            replica_set.probe()
        with pytest.raises(PrimaryDownError) as refused:
            sharded.insert(OBJECT, chart_on_shard(sharded, 0, "later", 93_600))
        assert isinstance(refused.value.__cause__, TransientEngineError)
        assert replica_set.failovers == 0
        replica_set.probe()
        assert replica_set.failovers == 1 and replica_set.primary is longest
        sharded.close()

    def test_all_replicas_dead_means_shard_down(self):
        sharded = build(miss_threshold=1)
        replica_set = sharded.shard(0).replica_set
        replica_set.primary.kill()
        for replica in replica_set.replicas:
            replica.kill()
        with pytest.raises(DegradedServiceError):
            sharded.insert(OBJECT, chart_on_shard(sharded, 0))
        sharded.close()

    def test_reads_blocked_while_failing_over(self):
        sharded = build()
        replica_set = sharded.shard(0).replica_set
        pid = pid_on_shard(sharded, 0, start=100)
        seen = {}

        def read(point, shard_id):
            try:
                replica_set.get_served(OBJECT, (pid,))
            except FailoverInProgressError:
                seen["blocked"] = True

        replica_set.failpoint = FaultHook(FaultPlan().call_at("post_drain", read))
        replica_set.primary.kill()
        for _ in range(replica_set.detector.MISS_THRESHOLD):
            try:
                sharded.insert(OBJECT, chart_on_shard(sharded, 0, start=94_000))
                break
            except PrimaryDownError:
                continue
        assert seen.get("blocked") is True
        sharded.close()


class TestDivergence:
    @pytest.mark.parametrize("backend, base", [
        ("memory", MemoryEngine),
        ("sqlite", SqliteEngine),
    ], ids=["memory", "sqlite"])
    def test_a_replica_that_lands_other_rows_diverges(self, backend, base):
        """A verbatim plan on a faithful engine always lands its
        after-images, so the replica's copy of the row is changed as the
        write touching it commits (a foreign writer, a lying disk): the
        byte-for-byte check is what catches it."""
        sharded = build(
            backend=backend,
            engine_factory=lambda: FaultInjectingEngine(base()),
        )
        replica_set = sharded.shard(0).replica_set
        r1, r2 = replica_set.replicas
        chart = chart_on_shard(sharded, 0, "before", 99_500)
        pid = chart["patient_id"]
        sharded.insert(OBJECT, chart)
        stored = r1.engine.base
        name_at = stored.schema("PATIENT").position("name")

        def tamper(point, shard_id):
            row = list(stored.get("PATIENT", (pid,)))
            row[name_at] = "tampered"
            stored.replace("PATIENT", (pid,), row)

        r1.engine.hook.plan = FaultPlan().call_at("commit", tamper)
        sharded.replace(OBJECT, (pid,), fresh_chart(pid, "after"))  # no raise

        assert r1.divergent is True
        assert isinstance(r1.apply_error, ReplicaDivergenceError)
        assert r1.received_count == r1.applied_count + 1  # still inboxed
        assert replica_set.link(r1.name).cursor == replica_set.stream_length
        # The other replica acked and applied; the primary committed.
        assert not r2.divergent and r2.apply_error is None
        assert divergence(sharded.shard(0).engine, r2.engine) == []
        assert sharded.get(OBJECT, (pid,)).to_dict()["name"] == "after"
        assert sharded.shard(0).penguin.audit.records()[-1].state == (
            "committed"
        )
        # A divergent stack applies nothing more, even when asked.
        assert r1.drain() == 0
        assert r1.received_count == r1.applied_count + 1

        # Not counted toward quorum: with r2 cut off, r1's link alone is
        # reachable and the write is refused before the primary is touched.
        replica_set.link(r2.name).wedge()
        with pytest.raises(
            ReplicationQuorumError,
            match=r"only 0 replica link\(s\) reachable, quorum is 1",
        ):
            sharded.insert(OBJECT, chart_on_shard(sharded, 0, start=99_600))
        replica_set.link(r2.name).heal()

        # Not promoted: r1 holds as much of the stream and wins ties by
        # name, yet the failover promotes r2.
        assert r1.received_count == r2.received_count
        replica_set.primary.kill()
        for _ in range(replica_set.detector.MISS_THRESHOLD):
            replica_set.probe()
        assert replica_set.failovers == 1
        assert replica_set.primary is r2
        assert replica_set.replicas == [r1]
        sharded.close()


class TestStaleReads:
    def test_replica_serves_marked_stale_when_primary_down(self):
        sharded = build(miss_threshold=50)
        shard = sharded.shard(0)
        chart = chart_on_shard(sharded, 0, "stale witness", 95_000)
        sharded.insert(OBJECT, chart)
        shard.replica_set.primary.kill()
        served = sharded.get_served(OBJECT, (chart["patient_id"],))
        assert served.stale is True
        assert str(served.source).startswith("replica:")
        assert served.meta()["source"] == served.source
        assert served.value.to_dict()["name"] == "stale witness"
        # Queries fall through to replicas the same way.
        served = sharded.shard(0).front.query_served(OBJECT, None)
        assert served.stale is True
        sharded.close()


class TestReplicaCaches:
    """A replica keeps no materialized cache while it follows; the
    promoted stack takes the old primary's views before it serves."""

    def test_replicas_hold_no_pending_records_after_writes(self):
        sharded = build()
        sharded.materialize(OBJECT)
        for n in range(12):
            chart = chart_on_shard(sharded, n % 2, f"w{n}", 94_000 + 10 * n)
            sharded.insert(OBJECT, chart)
            sharded.delete(OBJECT, (chart["patient_id"],))
        for shard in sharded.shards:
            assert shard.penguin.materialized_names == (OBJECT,)
            assert shard.replicas
            for replica in shard.replicas:
                assert replica.applied_count == shard.replica_set.stream_length
                assert replica.penguin.materialized_names == ()
                assert replica.penguin.cache_stats() == {}
        sharded.dematerialize(OBJECT)
        assert all(s.penguin.materialized_names == () for s in sharded.shards)
        sharded.close()

    def test_a_stale_read_from_a_replica_assembles_from_its_engine(self):
        sharded = build()
        sharded.materialize(OBJECT)
        chart = chart_on_shard(sharded, 0, "from the engine")
        sharded.insert(OBJECT, chart)
        replica_set = sharded.shard(0).replica_set
        replica_set.primary.kill()
        served = sharded.get_served(OBJECT, (chart["patient_id"],))
        assert served.stale and served.source.startswith("replica:")
        assert served.value.to_dict()["name"] == "from the engine"
        name = served.source.split(":", 1)[1]
        (answering,) = [r for r in replica_set.replicas if r.name == name]
        assert answering.penguin.materialized_names == ()
        sharded.close()

    def test_the_promoted_stack_serves_reads_from_its_own_view(self):
        sharded = build()
        sharded.materialize(OBJECT)
        chart = chart_on_shard(sharded, 0, "cached")
        sharded.insert(OBJECT, chart)
        replica_set = sharded.shard(0).replica_set
        replica_set.primary.kill()
        for _ in range(replica_set.detector.MISS_THRESHOLD):
            replica_set.probe()
        promoted = replica_set.primary
        assert replica_set.failovers == 1
        assert promoted.penguin.materialized_names == (OBJECT,)
        for _ in range(2):
            instance = sharded.get(OBJECT, (chart["patient_id"],))
            assert instance.to_dict()["name"] == "cached"
        stats = promoted.penguin.materialized(OBJECT).stats
        assert stats.misses >= 1 and stats.hits >= 1
        for replica in replica_set.replicas:
            assert replica.penguin.materialized_names == ()
        sharded.close()


class TestFencing:
    def test_zombie_ship_is_rejected(self):
        sharded = build()
        replica_set = sharded.shard(0).replica_set
        sharded.insert(OBJECT, chart_on_shard(sharded, 0, start=96_000))
        old_epoch = replica_set.epoch
        replica_set.primary.kill()
        for _ in range(replica_set.detector.MISS_THRESHOLD):
            try:
                sharded.insert(
                    OBJECT, chart_on_shard(sharded, 0, "fence", 96_500)
                )
                break
            except PrimaryDownError:
                continue
        survivor = replica_set.replicas[0]
        zombie = ShippingLink(survivor)
        zombie.cursor = survivor.received_count
        with pytest.raises(FencedWriteError):
            zombie.send(
                old_epoch,
                survivor.received_count + 1,
                replica_set._stream[-1],
            )
        assert survivor.fenced_ships == 1
        sharded.close()


    def test_a_promotion_announces_its_epoch(self):
        """Every surviving replica a link reaches learns the new epoch at
        the promotion, so the fenced primary's next ship is refused even
        before the new primary has shipped anything."""
        sharded = hospital_session(
            12, shards=2, replication=ReplicationConfig(replicas=2)
        )
        replica_set = sharded.shard(0).replica_set
        replica_set.primary.kill()
        for _ in range(replica_set.detector.MISS_THRESHOLD):
            replica_set.probe()
        assert replica_set.failovers == 1
        (survivor,) = replica_set.replicas
        assert survivor.epoch == replica_set.epoch == 2
        with pytest.raises(FencedWriteError):
            survivor.receive(
                1, survivor.received_count + 1,
                UpdateRecord(0, "committed", [], [], label=OBJECT),
            )
        assert survivor.fenced_ships == 1
        sharded.close()


class TestPartitionCatchUp:
    def test_replica_catches_up_after_a_partition(self):
        """Satellite: wedge, accumulate, heal — converge and lag -> 0."""
        with obs.use():
            sharded = build()
            shard = sharded.shard(0)
            replica_set = shard.replica_set
            lagging = replica_set.replicas[0]
            healthy = replica_set.replicas[1]
            replica_set.link(lagging.name).wedge()

            written = []
            for i in range(5):
                chart = chart_on_shard(sharded, 0, f"partition {i}", 97_000 + i * 7)
                sharded.insert(OBJECT, chart)  # quorum met by the healthy peer
                written.append(chart)
            assert replica_set.lag(lagging) >= len(written)
            assert replica_set.lag(healthy) == 0
            gauge = obs.metrics().gauge(
                "replication_lag", shard="0", replica=lagging.name
            )
            assert gauge.value >= len(written)
            assert divergence(shard.engine, lagging.engine) != []

            replica_set.link(lagging.name).heal()
            shipped = replica_set.catch_up()
            assert shipped >= len(written)
            assert divergence(shard.engine, lagging.engine) == []
            assert replica_set.lag(lagging) == 0
            assert gauge.value == 0
            sharded.close()

    def test_a_killed_primary_ships_nothing_on_catch_up(self):
        """A killed stack takes no further action. The primary dies at
        ``post_apply`` — committed, not shipped, the client told so —
        and ``catch_up()`` (the campaigns' own checker called it before
        comparing) used to hand the unacked chart to both replicas, so
        the promoted stack served a write nobody was acked for."""
        sharded = build(miss_threshold=2)
        replica_set = sharded.shard(0).replica_set
        doomed = replica_set.primary
        replica_set.failpoint = FaultHook(
            FaultPlan().call_at("post_apply", lambda point, shard: doomed.kill())
        )
        chart = chart_on_shard(sharded, 0, "never acked", 98_000)
        with pytest.raises(PrimaryDownError):
            sharded.insert(OBJECT, chart)
        held = [replica.received_count for replica in replica_set.replicas]
        sends = [replica_set.link(r.name).sends for r in replica_set.replicas]
        assert replica_set.catch_up() == 0
        assert [r.received_count for r in replica_set.replicas] == held
        assert [replica_set.link(r.name).sends for r in replica_set.replicas] == sends
        replica_set.probe()
        assert replica_set.failovers == 1 and replica_set.primary is not doomed
        assert sharded.get(OBJECT, (chart["patient_id"],)) is None
        sharded.insert(OBJECT, chart)  # the retry lands on the promoted stack
        assert replica_set.catch_up() == 0  # (nothing was left behind)
        for replica in replica_set.replicas:
            assert divergence(replica_set.primary.engine, replica.engine) == []
        sharded.close()

    def test_next_write_also_heals_the_backlog(self):
        sharded = build()
        replica_set = sharded.shard(0).replica_set
        lagging = replica_set.replicas[0]
        replica_set.link(lagging.name).wedge()
        sharded.insert(OBJECT, chart_on_shard(sharded, 0, "a", 98_000))
        replica_set.link(lagging.name).heal()
        # The next write re-ships the backlog through the same link.
        sharded.insert(OBJECT, chart_on_shard(sharded, 0, "b", 98_100))
        assert divergence(sharded.shard(0).engine, lagging.engine) == []
        sharded.close()


class TestCrossShard:
    @staticmethod
    def rehome(node, pid):
        out = {}
        for key, value in node.items():
            if key == "patient_id":
                out[key] = pid
            elif isinstance(value, list):
                out[key] = [TestCrossShard.rehome(child, pid) for child in value]
            else:
                out[key] = value
        return out

    def cross_pair(self, sharded):
        pids = sorted(row[0] for row in sharded.all_rows("PATIENT"))
        old = pids[0]
        new = next(
            c for c in range(99_000, 99_100)
            if sharded.router.shard_of((c,)) != sharded.router.shard_of((old,))
        )
        return old, new

    def test_cross_shard_commit_converges_all_replicas(self):
        sharded = build()
        old, new = self.cross_pair(sharded)
        moved = self.rehome(sharded.get(OBJECT, (old,)).to_dict(), new)
        sharded.replace(OBJECT, (old,), moved)
        assert sharded.get(OBJECT, (old,)) is None
        assert sharded.get(OBJECT, (new,)) is not None
        for shard in sharded.shards:
            shard.replica_set.catch_up()
            for replica in shard.replica_set.replicas:
                assert divergence(shard.engine, replica.engine) == []
        sharded.close()

    def test_each_participant_ships_its_own_record(self):
        """A participant's replicas land exactly that participant's
        record: one each, with its primary's plan and images; no
        cursor is left holding anything."""
        sharded = build()
        old, new = self.cross_pair(sharded)
        logs = [
            (shard.penguin.audit, replica.audit)
            for shard in sharded.shards
            for replica in shard.replicas
        ]
        marks = [(len(primary), len(replica)) for primary, replica in logs]
        moved = self.rehome(sharded.get(OBJECT, (old,)).to_dict(), new)
        sharded.replace(OBJECT, (old,), moved)
        for (primary, replica), (at, seen) in zip(logs, marks):
            (own,) = primary.records()[at:]
            (landed,) = replica.records()[seen:]
            assert (landed.label, landed.state) == (OBJECT, "committed")
            assert landed.plan_records == own.plan_records
            assert landed.image_records == own.image_records
        for shard in sharded.shards:
            assert shard.replica_set._cursor.pending() == []
        sharded.close()

    def test_a_participant_primary_dying_mid_ship_aborts_untorn(self):
        """The target's primary dies after its record reached one
        replica: the write is refused, and the record is taken off that
        replica too, so the promotion that follows does not bring the
        re-homed chart back beside the restored original."""
        sharded = build()
        old, new = self.cross_pair(sharded)
        target = sharded.shard(sharded.router.shard_of((new,))).replica_set
        sharded.failpoint = FaultHook(FaultPlan().call_at(
            "pre_ship", lambda point, shard: target.primary.kill(),
            at=2, shard=target.shard_id,
        ))
        moved = self.rehome(sharded.get(OBJECT, (old,)).to_dict(), new)
        with pytest.raises(PrimaryDownError):
            sharded.replace(OBJECT, (old,), moved)
        sharded.failpoint = None
        for _ in range(target.detector.MISS_THRESHOLD):
            target.probe()
        assert target.failovers == 1
        assert sharded.get(OBJECT, (old,)) is not None
        assert sharded.get(OBJECT, (new,)) is None
        assert target.primary.penguin.replay_audit().ok
        sharded.close()

    def test_cross_shard_aborts_when_a_participant_quorum_is_down(self):
        sharded = build()
        old, new = self.cross_pair(sharded)
        target = sharded.shard(sharded.router.shard_of((new,)))
        for replica in target.replica_set.replicas:
            target.replica_set.link(replica.name).wedge()
        moved = self.rehome(sharded.get(OBJECT, (old,)).to_dict(), new)
        with pytest.raises(ReplicationQuorumError):
            sharded.replace(OBJECT, (old,), moved)
        assert sharded.get(OBJECT, (old,)) is not None
        assert sharded.get(OBJECT, (new,)) is None
        for replica in target.replica_set.replicas:
            target.replica_set.link(replica.name).heal()
        for shard in sharded.shards:
            shard.replica_set.catch_up()
            for replica in shard.replica_set.replicas:
                assert divergence(shard.engine, replica.engine) == []
        sharded.close()
