"""The one checker earns its place: every preset holds on the tier-1
seeds, a seed is a report, and the three drift bugs that slipped past the
retired campaigns — (10), (12) and (14) of ROADMAP "Recent" — are each
found from a cold seed when their parent's logic is put back, with a
printed prefix that replays to the same violation."""

import contextlib

import pytest

from repro.errors import ReplicationQuorumError
from repro.penguin import ViewObjectSession
from repro.replicate import ReplicaSet
from repro.shard import ShardedPenguin
from repro.shard.router import HashRouter
from repro.simulate import PRESETS, VERBS, replay, simulate

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(120)]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_holds_and_fires_every_fault_it_schedules(preset, seed):
    report = simulate(preset, seed)
    assert report.ok, report.summary()
    assert all(report.fired.values()), report.summary()
    assert "0 lost acked writes, 0 torn states" in report.summary()


@pytest.mark.slow
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_hold_on_a_longer_sweep(preset):
    for seed in range(5, 11):
        report = simulate(preset, seed, steps=60)
        assert report.ok, report.summary()


def test_one_seed_is_one_report_byte_for_byte():
    for preset in PRESETS:
        assert simulate(preset, 3).summary() == simulate(preset, 3).summary()
    assert simulate("race", 3).summary() != simulate("race", 4).summary()


def test_seed_0_reaches_the_promotion_kill_points_the_campaign_never_hit():
    """Finding (a): ``chaos-failover --seed 0`` printed ``9 kill points,
    6 kills injected`` — no write reached the victim shard."""
    report = simulate("failover", 0)
    for stage in ("pre_promote", "post_drain", "post_promote"):
        assert report.fired[f"kill_target@{stage}#1"] >= 1
    assert report.counts["failovers"] > 0
    assert report.counts["stale reads marked"] > 0
    # ...and the verbs under fault are not only ``insert``.
    assert dict(VERBS).keys() >= {
        "replace", "delete", "rekey", "update_where", "delete_where"
    }


def test_a_fault_no_operation_can_reach_fails_the_run(monkeypatch):
    """Every key routed away from the victim shard: the armed rule never
    fires, and that is a violation, not a quiet pass."""
    monkeypatch.setattr(HashRouter, "shard_of", lambda self, key: 1)
    for seed in range(3):
        report = simulate("quorum", seed)
        assert not report.ok
        assert "scheduled fault never fired" in report.violation, report.summary()
        assert "shard 0" in report.violation


def found_and_replayed(preset, seed=0):
    """The violation a cold seed reports within the default step budget;
    its printed prefix must replay to the same one."""
    report = simulate(preset, seed)
    assert not report.ok, f"{preset}: the re-introduced bug went unseen"
    assert 0 < len(report.prefix) <= report.steps
    summary = report.summary()
    assert f"seed={seed}" in summary and "shortest failing prefix" in summary
    assert replay(preset, report.prefix).violation == report.violation
    return report.violation


def test_bug_10_two_writers_between_translate_and_land(monkeypatch):
    """A null serialiser around the sharded translate half."""

    @contextlib.contextmanager
    def unguarded(self, shard_ids, op, name):
        yield

    monkeypatch.setattr(ShardedPenguin, "_admitted", unguarded)
    assert "neither serial order" in found_and_replayed("race")
    assert "neither serial order" in found_and_replayed("quorum", seed=1)


def test_bug_12_a_lost_update_under_sharded_update_where(monkeypatch):
    """``_select_apply`` without the coordinator held from select to commit."""
    monkeypatch.setattr(
        ShardedPenguin, "_select_apply", ViewObjectSession._select_apply
    )
    violation = found_and_replayed("race")
    assert "update_where" in violation and "neither serial order" in violation


def test_bug_14_a_write_translated_on_a_dead_primary(monkeypatch):
    """``admitted`` without ``_ensure_primary_up``: the detector is only
    consulted where the plan lands, after the translate half."""

    @contextlib.contextmanager
    def admitted(self, op="update", object_name=""):
        with self._mutex:
            if not self.quorum_reachable():
                raise ReplicationQuorumError("quorum unreachable")
            with self.primary.serving.admitted(op, object_name):
                yield

    landing = ReplicaSet.apply_plan

    def apply_plan(self, name, plan, op="update", items=1):
        with self._mutex:
            self._ensure_primary_up()
        return landing(self, name, plan, op=op, items=items)

    monkeypatch.setattr(ReplicaSet, "admitted", admitted)
    monkeypatch.setattr(ReplicaSet, "apply_plan", apply_plan)
    assert "the model: acked after 1" in found_and_replayed("failover")
