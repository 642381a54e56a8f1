"""Instance assembly from base data (Figure 4 machinery)."""

import pytest

from repro.core.instantiation import Instantiator
from repro.relational.expressions import TRUE, Attr


@pytest.fixture
def instantiator(omega):
    return Instantiator(omega)


class TestByKey:
    def test_existing_key(self, instantiator, university_engine):
        course_id = next(iter(university_engine.scan("COURSES")))[0]
        instance = instantiator.by_key(university_engine, (course_id,))
        assert instance is not None
        assert instance.key == (course_id,)

    def test_missing_key(self, instantiator, university_engine):
        assert instantiator.by_key(university_engine, ("NOPE",)) is None

    def test_components_match_database(self, instantiator, university_engine):
        course_id = next(iter(university_engine.scan("COURSES")))[0]
        instance = instantiator.by_key(university_engine, (course_id,))
        expected_grades = university_engine.find_by(
            "GRADES", ("course_id",), (course_id,)
        )
        assert instance.count_at("GRADES") == len(expected_grades)
        bound = {
            (g["course_id"], g["student_id"])
            for g in instance.tuples_at("GRADES")
        }
        assert bound == {(v[0], v[1]) for v in expected_grades}

    def test_students_nested_under_their_grades(
        self, instantiator, university_engine
    ):
        course_id = next(iter(university_engine.scan("COURSES")))[0]
        instance = instantiator.by_key(university_engine, (course_id,))
        for grade in instance.tuples_at("GRADES"):
            students = grade.child_tuples("STUDENT")
            assert len(students) == 1
            assert students[0]["person_id"] == grade["student_id"]

    def test_projection_applied(self, instantiator, university_engine):
        course_id = next(iter(university_engine.scan("COURSES")))[0]
        instance = instantiator.by_key(university_engine, (course_id,))
        assert set(instance.root.values) == {
            "course_id", "title", "units", "level", "dept_name",
        }


class TestWhere:
    def test_predicate_filters(self, instantiator, university_engine):
        graduate = instantiator.where(
            university_engine, Attr("level") == "graduate"
        )
        assert graduate
        assert all(
            i.root.values["level"] == "graduate" for i in graduate
        )

    def test_all(self, instantiator, university_engine):
        everything = instantiator.all(university_engine)
        assert len(everything) == university_engine.count("COURSES")


class TestCompositePaths:
    def test_omega_prime_students_via_grades(
        self, omega_prime, university_engine
    ):
        instantiator = Instantiator(omega_prime)
        instance = instantiator.where(university_engine, TRUE)[0]
        course_id = instance.key[0]
        expected_students = {
            v[1]
            for v in university_engine.find_by(
                "GRADES", ("course_id",), (course_id,)
            )
        }
        bound = {s["person_id"] for s in instance.tuples_at("STUDENT")}
        assert bound == expected_students

    def test_composite_path_deduplicates(self, omega_prime, university_engine):
        instantiator = Instantiator(omega_prime)
        for instance in instantiator.all(university_engine):
            students = [s["person_id"] for s in instance.tuples_at("STUDENT")]
            assert len(students) == len(set(students))

    def test_nullable_reference_binds_empty(
        self, omega_prime, university_engine
    ):
        university_engine.insert(
            "COURSES",
            {
                "course_id": "X1",
                "title": "t",
                "units": 1,
                "level": "graduate",
                "dept_name": "Physics",
                "instructor_id": None,
            },
        )
        instantiator = Instantiator(omega_prime)
        instance = instantiator.by_key(university_engine, ("X1",))
        assert instance.count_at("FACULTY") == 0


class TestHospitalDepth:
    def test_three_level_chart(self, chart, hospital_engine):
        instantiator = Instantiator(chart)
        instance = instantiator.by_key(hospital_engine, (100,))
        assert instance.count_at("VISIT") == 3
        total_diagnoses = hospital_engine.count("DIAGNOSIS")
        assert instance.count_at("DIAGNOSIS") <= total_diagnoses
        for visit in instance.tuples_at("VISIT"):
            for diagnosis in visit.child_tuples("DIAGNOSIS"):
                assert diagnosis["visit_no"] == visit["visit_no"]
                assert diagnosis["patient_id"] == 100


class TestOneInstantiatorPerObject:
    """The plan is compiled once per definition and shared by every
    reader; a per-read compile cost durable-write +9 % read p50 when the
    prototype tried it (ISSUE 13)."""

    def test_accessor_returns_the_same_instantiator(self, omega):
        assert omega.instantiator is omega.instantiator
        assert omega.instantiator.view_object is omega

    def test_every_reader_shares_it(self, omega, university_engine, monkeypatch):
        from repro.core.updates.translator import Translator
        from repro.materialize.store import MaterializedView
        from repro.penguin import Penguin

        shared = omega.instantiator
        penguin = Penguin(omega.graph, engine=university_engine, install=False)
        penguin.register_object(omega)
        # Any further compile would be a second plan.
        monkeypatch.setattr(
            Instantiator, "__init__",
            lambda *a, **k: pytest.fail("compiled a second plan"),
        )
        course_id = next(iter(university_engine.scan("COURSES")))[0]
        assert penguin.get(omega.name, (course_id,)) is not None
        assert penguin.query(omega.name)
        assert penguin.query(omega.name, "units > 0")
        assert Translator(omega).instantiate(university_engine, (course_id,))
        view = MaterializedView(omega, university_engine)
        assert view.instantiator is shared
        view.close()
