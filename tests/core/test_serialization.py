"""Serialization of definitions and policies ("only its definition is
saved")."""

import json

import pytest

from repro.errors import ViewObjectError
from repro.core.serialization import (
    policy_from_dict,
    policy_to_dict,
    view_object_from_dict,
    view_object_to_dict,
)
from repro.core.updates.operations import CompleteDeletion
from repro.core.updates.policy import (
    ReferenceRepair,
    RelationPolicy,
    TranslatorPolicy,
)
from repro.workloads.figures import alternate_course_object
from repro.workloads.university import university_schema


class TestViewObjectRoundTrip:
    def test_round_trip_preserves_structure(self, omega, university_graph):
        rebuilt = view_object_from_dict(
            university_graph, view_object_to_dict(omega)
        )
        assert rebuilt.name == omega.name
        assert rebuilt.complexity == omega.complexity
        assert rebuilt.pivot_relation == omega.pivot_relation
        assert sorted(rebuilt.tree.node_ids) == sorted(omega.tree.node_ids)
        for node_id in omega.tree.node_ids:
            assert (
                rebuilt.projection(node_id).attributes
                == omega.projection(node_id).attributes
            )

    def test_round_trip_preserves_edges(self, university_graph):
        omega_prime = alternate_course_object(university_graph)
        rebuilt = view_object_from_dict(
            university_graph, view_object_to_dict(omega_prime)
        )
        # The composite two-connection path survives.
        assert rebuilt.tree.node("STUDENT").path.describe() == (
            "COURSES --* GRADES *-- STUDENT"
        )

    def test_json_round_trip(self, omega, university_graph):
        text = json.dumps(view_object_to_dict(omega))
        rebuilt = view_object_from_dict(university_graph, json.loads(text))
        assert rebuilt.complexity == omega.complexity

    def test_rebuilt_object_is_fully_usable(self, omega, university_graph):
        from repro.core.dependency_island import analyze_island
        from repro.core.updates.translator import Translator
        from repro.relational.memory_engine import MemoryEngine
        from repro.workloads.university import populate_university

        rebuilt = view_object_from_dict(
            university_graph, view_object_to_dict(omega)
        )
        analysis = analyze_island(rebuilt)
        assert analysis.island_nodes == ["COURSES", "GRADES"]
        engine = MemoryEngine()
        university_graph.install(engine)
        populate_university(engine)
        translator = Translator(rebuilt)
        cid = next(iter(engine.scan("COURSES")))[0]
        translator.apply(engine, CompleteDeletion((cid,)))
        assert engine.get("COURSES", (cid,)) is None


class TestViewObjectErrors:
    def test_bad_format(self, university_graph):
        with pytest.raises(ViewObjectError, match="format"):
            view_object_from_dict(university_graph, {"format": 99})

    def test_missing_connection(self, omega):
        """Loading against a schema that lost a connection fails loudly."""
        stripped = university_schema()
        data = view_object_to_dict(omega)
        for entry in data["nodes"]:
            for hop in entry.get("path", []):
                hop["connection"] = hop["connection"].replace(
                    "curriculum_courses", "renamed_away"
                )
        from repro.errors import ConnectionError

        with pytest.raises(ConnectionError):
            view_object_from_dict(stripped, data)

    def test_orphan_nodes(self, omega, university_graph):
        data = view_object_to_dict(omega)
        for entry in data["nodes"]:
            if entry.get("parent") == "COURSES":
                entry["parent"] = "NOWHERE"
        with pytest.raises(ViewObjectError, match="orphan"):
            view_object_from_dict(university_graph, data)

    def test_two_roots(self, omega, university_graph):
        data = view_object_to_dict(omega)
        for entry in data["nodes"]:
            entry.pop("parent", None)
            entry.pop("path", None)
        with pytest.raises(ViewObjectError, match="one root"):
            view_object_from_dict(university_graph, data)


class TestPolicyRoundTrip:
    def test_round_trip(self):
        policy = TranslatorPolicy(allow_deletion=False)
        policy.set_relation(
            "DEPARTMENT",
            RelationPolicy(
                can_modify=False,
                can_insert=False,
                on_reference_delete=ReferenceRepair.PROHIBIT,
            ),
        )
        policy.set_relation(
            "COURSES", RelationPolicy(allow_merge_on_key_conflict=True)
        )
        rebuilt = policy_from_dict(policy_to_dict(policy))
        assert not rebuilt.allow_deletion
        assert rebuilt.allow_insertion
        dept = rebuilt.for_relation("DEPARTMENT")
        assert not dept.can_modify
        assert dept.on_reference_delete is ReferenceRepair.PROHIBIT
        assert rebuilt.for_relation("COURSES").allow_merge_on_key_conflict

    def test_bad_format(self):
        with pytest.raises(ViewObjectError):
            policy_from_dict({"format": 0})

    def test_authorized_users_round_trip(self):
        policy = TranslatorPolicy(authorized_users=["dba", "registrar"])
        rebuilt = policy_from_dict(policy_to_dict(policy))
        assert rebuilt.authorized_users == {"dba", "registrar"}
        open_policy = policy_from_dict(policy_to_dict(TranslatorPolicy()))
        assert open_policy.authorized_users is None


class TestPenguinCatalog:
    def test_catalog_round_trip(self, university_graph):
        from repro.penguin import Penguin
        from repro.workloads.figures import course_info_object
        from repro.workloads.university import populate_university

        first = Penguin(university_schema())
        populate_university(first.engine)
        first.register_object(course_info_object(first.graph))
        first.choose_translator(
            "course_info", {"modify.DEPARTMENT.allowed": False}
        )
        catalog = first.export_catalog()
        json.dumps(catalog)  # JSON-safe

        second = Penguin(university_schema())
        populate_university(second.engine)
        loaded = second.import_catalog(catalog)
        assert loaded == ["course_info"]
        translator = second.translator("course_info")
        assert not translator.policy.for_relation("DEPARTMENT").can_modify
        # And the loaded object still answers queries.
        assert second.query("course_info", "count(GRADES) >= 0")
