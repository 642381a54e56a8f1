"""Relation schemas: keys, positions, row validation, derived schemas."""

import pytest

from repro.errors import SchemaError, UnknownAttributeError
from repro.relational.domains import INTEGER, TEXT
from repro.relational.schema import Attribute, RelationSchema


@pytest.fixture
def grades():
    return RelationSchema(
        "GRADES",
        [
            Attribute("course_id", TEXT),
            Attribute("student_id", INTEGER),
            Attribute("grade", TEXT, nullable=True),
        ],
        key=("course_id", "student_id"),
    )


class TestConstruction:
    def test_attribute_names_in_order(self, grades):
        assert grades.attribute_names == ("course_id", "student_id", "grade")

    def test_key_and_nonkey(self, grades):
        assert grades.key == ("course_id", "student_id")
        assert grades.nonkey_names == ("grade",)

    def test_arity(self, grades):
        assert len(grades.attributes) == 3

    def test_key_attributes_forced_non_nullable(self):
        schema = RelationSchema(
            "R",
            [Attribute("k", TEXT, nullable=True), Attribute("v", TEXT)],
            key=("k",),
        )
        assert not schema.attribute("k").nullable

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("", [Attribute("a", TEXT)], key=("a",))

    def test_no_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", [], key=("a",))

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema(
                "R",
                [Attribute("a", TEXT), Attribute("a", TEXT)],
                key=("a",),
            )

    def test_missing_key_attribute_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", [Attribute("a", TEXT)], key=("b",))

    def test_empty_key_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", [Attribute("a", TEXT)], key=())

    def test_duplicate_key_attribute_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", [Attribute("a", TEXT)], key=("a", "a"))


class TestLookups:
    def test_position(self, grades):
        assert grades.position("student_id") == 1

    def test_positions(self, grades):
        assert grades.positions(("grade", "course_id")) == (2, 0)

    def test_unknown_attribute(self, grades):
        with pytest.raises(UnknownAttributeError):
            grades.position("professor")

    def test_is_key_attribute(self, grades):
        assert grades.is_key_attribute("course_id")
        assert not grades.is_key_attribute("grade")

    def test_domains_of(self, grades):
        assert grades.domains_of(("student_id",)) == (INTEGER,)


class TestRows:
    def test_row_from_mapping(self, grades):
        row = grades.row_from_mapping(
            {"course_id": "CS145", "student_id": 7, "grade": "A"}
        )
        assert row == ("CS145", 7, "A")

    def test_row_from_mapping_defaults_nullable(self, grades):
        row = grades.row_from_mapping({"course_id": "CS145", "student_id": 7})
        assert row == ("CS145", 7, None)

    def test_row_from_mapping_missing_required(self, grades):
        with pytest.raises(SchemaError):
            grades.row_from_mapping({"course_id": "CS145"})

    def test_row_from_mapping_unknown_attribute(self, grades):
        with pytest.raises(UnknownAttributeError):
            grades.row_from_mapping(
                {"course_id": "CS145", "student_id": 7, "gpa": 4.0}
            )

    def test_validate_row_wrong_arity(self, grades):
        with pytest.raises(SchemaError):
            grades.validate_row(("CS145", 7))

    def test_validate_row_null_in_non_nullable(self, grades):
        with pytest.raises(SchemaError):
            grades.validate_row((None, 7, "A"))

    def test_validate_row_wrong_domain(self, grades):
        from repro.errors import DomainError

        with pytest.raises(DomainError):
            grades.validate_row(("CS145", "seven", "A"))

    def test_key_of(self, grades):
        assert grades.key_of(("CS145", 7, "A")) == ("CS145", 7)

    def test_project(self, grades):
        assert grades.project(("CS145", 7, "A"), ("grade", "course_id")) == (
            "A",
            "CS145",
        )

    def test_as_mapping(self, grades):
        assert grades.as_mapping(("CS145", 7, "A")) == {
            "course_id": "CS145",
            "student_id": 7,
            "grade": "A",
        }


class TestDerived:
    def test_restricted_keeps_key_when_covered(self, grades):
        restricted = grades.restricted_to(("course_id", "student_id"))
        assert restricted.key == ("course_id", "student_id")

    def test_restricted_all_key_when_not_covered(self, grades):
        restricted = grades.restricted_to(("grade",))
        assert restricted.key == ("grade",)

    def test_restricted_rename(self, grades):
        restricted = grades.restricted_to(("grade",), new_name="G")
        assert restricted.name == "G"

    def test_equality_and_hash(self, grades):
        clone = RelationSchema(
            "GRADES",
            [
                Attribute("course_id", TEXT),
                Attribute("student_id", INTEGER),
                Attribute("grade", TEXT, nullable=True),
            ],
            key=("course_id", "student_id"),
        )
        assert clone == grades
        assert hash(clone) == hash(grades)
