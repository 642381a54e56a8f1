"""ShardedPenguin equivalence: 4 shards must behave like 1 engine.

The acceptance oracle for the sharding layer: the same deterministic
hospital workload — loads, inserts, replaces (including one forced
cross-shard pivot re-homing), deletes, and one rejected update — runs
against a single-engine ``Penguin`` and a 4-shard ``ShardedPenguin``,
and the logical relation states, query results, and audited
(op, outcome) multisets must match exactly.
"""

import pytest

import repro.obs as obs
from repro.errors import ReproError
from repro.obs.audit import MemoryAuditLog
from repro.penguin import Penguin
from repro.relational.journal import MemoryJournal
from repro.relational.memory_engine import MemoryEngine
from repro.shard import ShardedPenguin, sharded_loader
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from tests.journal_harness import audit_outcomes
from tests.obs.test_cluster import label_values

OBJECT = "patient_chart"
PATIENTS = 12


def fresh_chart(pid, visits=1):
    return {
        "patient_id": pid,
        "name": f"Chart {pid}",
        "birth_year": 1950 + (pid % 40),
        "ward_name": None,
        "VISIT": [
            {
                "patient_id": pid,
                "visit_no": v,
                "visit_date": "1991-05-29",
                "physician_id": 9000,
                "reason": "test",
                "DIAGNOSIS": [],
                "PRESCRIPTION": [],
                "LAB_RESULT": [],
                "PHYSICIAN": [],
            }
            for v in range(1, visits + 1)
        ],
    }


def rehome(chart, new_pid):
    """The chart with its pivot key changed everywhere it occurs."""

    def walk(node):
        out = {}
        for key, value in node.items():
            if key == "patient_id":
                out[key] = new_pid
            elif isinstance(value, list):
                out[key] = [walk(child) for child in value]
            else:
                out[key] = value
        return out

    return walk(chart)


def build_single():
    graph = hospital_schema()
    engine = MemoryEngine()
    graph.install(engine)
    populate_hospital(engine, HospitalConfig(patients=PATIENTS))
    session = Penguin(
        graph,
        engine=engine,
        install=False,
        journal=MemoryJournal(),
        audit=MemoryAuditLog(),
    )
    session.register_object(patient_chart_object(graph))
    return session


def build_sharded(num_shards=4):
    graph = hospital_schema()
    sharded = ShardedPenguin(graph, "PATIENT", num_shards=num_shards)
    populate_hospital(
        sharded_loader(sharded), HospitalConfig(patients=PATIENTS)
    )
    sharded.register_object(patient_chart_object(graph))
    return sharded


def cross_shard_pids(router, start=100, count=PATIENTS):
    """(old_pid, new_pid) with different owners under ``router``."""
    for pid in range(start, start + count):
        for candidate in range(60_000, 60_050):
            if router.shard_of((pid,)) != router.shard_of((candidate,)):
                return pid, candidate
    raise AssertionError("no cross-shard pair found")  # pragma: no cover


def run_workload(session, router):
    """The shared deterministic workload; works on either facade."""
    outcomes = []
    # Inserts: spread over the key space.
    for pid in (50_001, 50_002, 50_003, 50_004):
        session.insert(OBJECT, fresh_chart(pid, visits=2))
        outcomes.append(("insert", pid))
    # Same-key replace (stays on one shard).
    pid = 103
    chart = session.get(OBJECT, (pid,)).to_dict()
    chart["name"] = "Renamed In Place"
    session.replace(OBJECT, (pid,), chart)
    # Forced cross-shard re-home: the pivot key moves shards.
    old_pid, new_pid = cross_shard_pids(router)
    moved = rehome(session.get(OBJECT, (old_pid,)).to_dict(), new_pid)
    session.replace(OBJECT, (old_pid,), moved)
    # Deletes: one resident, one just-inserted.
    session.delete(OBJECT, (50_002,))
    session.delete(OBJECT, (104,))
    # A rejected update: duplicate pivot key.
    with pytest.raises(ReproError):
        session.insert(OBJECT, fresh_chart(105))
    return old_pid, new_pid


RELATIONS = (
    "PATIENT", "VISIT", "DIAGNOSIS", "PRESCRIPTION", "LAB_RESULT",
    "WARD", "PHYSICIAN", "MEDICATION",
)


class TestEquivalence:
    @pytest.fixture
    def pair(self):
        single = build_single()
        sharded = build_sharded()
        return single, sharded

    def test_initial_load_matches(self, pair):
        single, sharded = pair
        for relation in RELATIONS:
            assert sharded.all_rows(relation) == sorted(
                single.engine.scan(relation), key=repr
            ), relation

    def test_workload_states_and_audits_match(self, pair):
        single, sharded = pair
        run_workload(single, sharded.router)
        old_pid, new_pid = run_workload(sharded, sharded.router)

        # The re-homing really crossed shards.
        assert sharded.router.shard_of((old_pid,)) != sharded.router.shard_of(
            (new_pid,)
        )
        # Byte-equivalent relation states.
        for relation in RELATIONS:
            assert sharded.all_rows(relation) == sorted(
                single.engine.scan(relation), key=repr
            ), relation
        # Audit outcome multisets match (shard-agnostic).
        single_outcomes = sorted(
            (record.op, record.state) for record in single.audit.records()
        )
        assert audit_outcomes(sharded) == single_outcomes
        assert ("replace", "committed") in single_outcomes
        assert ("rolled_back" in {o for _, o in single_outcomes})

    def test_queries_merge_identically(self, pair):
        single, sharded = pair
        run_workload(single, sharded.router)
        run_workload(sharded, sharded.router)
        single_keys = sorted(
            repr(i.key) for i in single.query(OBJECT)
        )
        sharded_keys = [repr(i.key) for i in sharded.query(OBJECT)]
        assert sharded_keys == single_keys
        # Point reads agree too.
        for pid in (50_001, 103, 105):
            assert (
                sharded.get(OBJECT, (pid,)).to_dict()
                == single.get(OBJECT, (pid,)).to_dict()
            )
        assert sharded.get(OBJECT, (50_002,)) is None

    def test_cross_shard_rehoming_used_two_phase(self, pair):
        _, sharded = pair
        old_pid, new_pid = run_workload(sharded, sharded.router)
        labels = [
            entry.label
            for shard in sharded.shards
            for entry in shard.journal.entries()
        ]
        assert any(label.startswith("2pc:") for label in labels)
        # The moved patient lives only on its new owner.
        new_owner = sharded.router.shard_of((new_pid,))
        for shard in sharded.shards:
            rows = [
                row
                for row in shard.engine.scan("PATIENT")
                if row[0] == new_pid
            ]
            assert bool(rows) == (shard.shard_id == new_owner)
            assert not any(
                row[0] == old_pid for row in shard.engine.scan("PATIENT")
            )


class TestInvariants:
    def test_replicated_relations_stay_in_lockstep(self):
        sharded = build_sharded()
        run_workload(sharded, sharded.router)
        for relation in ("WARD", "PHYSICIAN", "MEDICATION"):
            reference = sorted(
                sharded.shard(0).engine.scan(relation), key=repr
            )
            for shard in sharded.shards[1:]:
                assert (
                    sorted(shard.engine.scan(relation), key=repr)
                    == reference
                ), f"{relation} diverged on shard {shard.shard_id}"

    def test_partitioned_rows_live_on_their_router_shard(self):
        sharded = build_sharded()
        run_workload(sharded, sharded.router)
        for shard in sharded.shards:
            for row in shard.engine.scan("PATIENT"):
                assert sharded.router.shard_of((row[0],)) == shard.shard_id

    def test_integrity_holds_per_shard(self):
        sharded = build_sharded()
        run_workload(sharded, sharded.router)
        assert sharded.check_integrity() == []

    def test_owner_of_matches_router(self):
        sharded = build_sharded()
        for pid in range(100, 100 + PATIENTS):
            assert sharded.owner_of(OBJECT, (pid,)) == (
                sharded.router.shard_of((pid,))
            )

    def test_range_router_deployment_works_too(self):
        graph = hospital_schema()
        from repro.shard import RangeRouter

        sharded = ShardedPenguin(
            graph, "PATIENT", router=RangeRouter([104, 108, 112])
        )
        populate_hospital(
            sharded_loader(sharded), HospitalConfig(patients=PATIENTS)
        )
        sharded.register_object(patient_chart_object(graph))
        assert sharded.num_shards == 4
        counts = [
            shard.engine.count("PATIENT") for shard in sharded.shards
        ]
        assert counts == [4, 4, 4, 0]  # pids 100..111 in ranges
        sharded.insert(OBJECT, fresh_chart(200))
        assert sharded.shard(3).engine.count("PATIENT") == 1


class TestMetricsLabels:
    def test_per_shard_series_stay_bounded(self):
        """Cardinality regression: shard labels come from topology, not
        request data — N shards can never mint more than N values."""
        with obs.use() as hub:
            sharded = build_sharded()
            run_workload(sharded, sharded.router)
            for _ in range(20):
                sharded.query(OBJECT)
            read_shards = label_values(hub.metrics, "serve_reads_total", "shard")
            write_shards = label_values(hub.metrics, "serve_writes_total", "shard")
            update_shards = label_values(hub.metrics, "shard_updates_total", "shard")
            all_ids = {str(i) for i in range(sharded.num_shards)}
            assert set(read_shards) == all_ids  # queries scatter everywhere
            assert set(write_shards) <= all_ids and write_shards
            assert set(update_shards) <= all_ids and update_shards
            text = hub.metrics.render_text()
            assert 'shard="0"' in text
            assert "serve_reads_total" in text
            # one registry: the shard is a label, never a namespace
            assert "component=" not in text

    def test_render_text_escapes_and_groups_shard_labels(self):
        with obs.use() as hub:
            hub.metrics.counter(
                "serve_reads_total", mode="engine", shard="0"
            ).inc(3)
            hub.metrics.counter(
                "serve_reads_total", mode="engine", shard="1"
            ).inc()
            text = hub.metrics.render_text()
            assert 'serve_reads_total{mode="engine",shard="0"} 3' in text
            assert 'serve_reads_total{mode="engine",shard="1"} 1' in text


class TestStaleness:
    """``staleness`` is the count of committed changes the answering
    cache has not applied: an int on every read path, merged or not."""

    @pytest.mark.parametrize(
        "path, pending",
        [("get", 0), ("get", 1), ("query", 0), ("query", 1)],
    )
    def test_stale_read_reports_unapplied_commits(self, path, pending):
        sharded = build_sharded(num_shards=2)
        sharded.materialize(OBJECT, "lazy")
        sharded.query(OBJECT)  # every cache filled and synced
        pid = 100
        owner = sharded.shard(sharded.owner_of(OBJECT, (pid,)))
        engine = owner.penguin.engine
        for _ in range(pending):
            row = list(engine.get("PATIENT", (pid,)))
            row[1] = "renamed while degraded"
            engine.replace("PATIENT", (pid,), row)
        for shard in sharded.shards:
            breaker = shard.serving.breaker
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
        if path == "get":
            served = sharded.get_served(OBJECT, (pid,))
        else:
            served = sharded.query_served(OBJECT)
        assert served.stale is True
        assert served.staleness == pending
        assert type(served.staleness) is int
