"""Query-driven bulk operations (delete_where / update_where).

The verbs are the session's (``ViewObjectSession``); the translator only
sees the labelled request batch they build."""

import pytest

from repro.core.updates.policy import RelationPolicy, TranslatorPolicy
from repro.errors import UpdateRejectedError
from repro.penguin import Penguin
from repro.structural.integrity import IntegrityChecker


def session_over(omega, engine, policy=None):
    """A Penguin over ``engine`` with ω registered (and ``policy`` bound)."""
    penguin = Penguin(omega.graph, engine=engine, install=False)
    penguin.register_object(omega)
    if policy is not None:
        penguin.set_policy(omega.name, policy)
    return penguin


@pytest.fixture
def penguin(omega, university_engine):
    return session_over(omega, university_engine)


class TestDeleteWhere:
    def test_deletes_all_matching(self, penguin, omega, university_engine):
        doomed = {
            v[0]
            for v in university_engine.scan("COURSES")
            if v[4] == "Philosophy"
        }
        assert doomed
        plan = penguin.delete_where(omega.name, "dept_name = 'Philosophy'")
        for cid in doomed:
            assert university_engine.get("COURSES", (cid,)) is None
        survivors = {v[0] for v in university_engine.scan("COURSES")}
        assert survivors  # other departments untouched
        assert plan.count("delete") >= len(doomed)

    def test_leaves_consistent_state(
        self, penguin, omega, university_engine, university_graph
    ):
        penguin.delete_where(omega.name, "units <= 2")
        assert IntegrityChecker(university_graph).is_consistent(
            university_engine
        )

    def test_no_matches_is_noop(self, penguin, omega, university_engine):
        before = university_engine.count("COURSES")
        plan = penguin.delete_where(omega.name, "units > 999")
        assert len(plan) == 0
        assert university_engine.count("COURSES") == before

    def test_batch_is_atomic(self, omega, university_engine):
        policy = TranslatorPolicy()
        from repro.core.updates.policy import ReferenceRepair

        policy.set_relation(
            "CURRICULUM",
            RelationPolicy(on_reference_delete=ReferenceRepair.PROHIBIT),
        )
        penguin = session_over(omega, university_engine, policy)
        before = sorted(university_engine.scan("COURSES"))
        # Some course in the batch has curriculum references -> the whole
        # batch must roll back, including earlier successful deletions.
        with pytest.raises(UpdateRejectedError):
            penguin.delete_where(omega.name, "units >= 1")
        assert sorted(university_engine.scan("COURSES")) == before


class TestUpdateWhere:
    def test_transforms_all_matching(self, penguin, omega, university_engine):
        def bump_units(data):
            data = dict(data)
            data["units"] = data["units"] + 10
            return data

        matched = [
            v[0] for v in university_engine.scan("COURSES") if v[3] == "graduate"
        ]
        plan = penguin.update_where(
            omega.name, "level = 'graduate'", bump_units
        )
        assert plan.count("replace") == len(matched)
        for cid in matched:
            assert university_engine.get("COURSES", (cid,))[2] > 10

    def test_identity_transform_is_noop(self, penguin, omega, university_engine):
        plan = penguin.update_where(
            omega.name, "level = 'graduate'", lambda data: data
        )
        assert len(plan) == 0

    def test_atomic_on_rejection(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation("DEPARTMENT", RelationPolicy(can_modify=False))
        penguin = session_over(omega, university_engine, policy)
        before = sorted(university_engine.scan("COURSES"))

        def reroute(data):
            data = dict(data)
            data["dept_name"] = "Nonexistent Dept"
            data["DEPARTMENT"] = []
            return data

        with pytest.raises(UpdateRejectedError):
            penguin.update_where(omega.name, "units >= 1", reroute)
        assert sorted(university_engine.scan("COURSES")) == before
