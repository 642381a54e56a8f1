"""The university database of Figure 1.

Eight relations — DEPARTMENT, PEOPLE, STUDENT, FACULTY, STAFF,
CURRICULUM, COURSES, GRADES — connected exactly as the paper describes:
"courses and people relate to a department, a person is either a
student, a faculty, or a staff, a curriculum describes the required
courses for a given degree, and grades are associated with courses and
students".

Connection inventory (kind, paper rationale):

* ``PEOPLE --> DEPARTMENT`` (reference): people relate to a department.
* ``COURSES --> DEPARTMENT`` (reference): courses relate to a department.
* ``PEOPLE ==>o STUDENT / FACULTY / STAFF`` (subset): a person is either
  a student, a faculty, or a staff.
* ``COURSES --* GRADES`` and ``STUDENT --* GRADES`` (ownership): grades
  are associated with courses and students; a grade cannot outlive
  either.
* ``CURRICULUM --> COURSES`` (reference): a curriculum names required
  courses — the referencing peninsula of Section 5's example.
* ``COURSES --> FACULTY`` (reference, nullable): the course instructor;
  supports the alternate view object ω′ of Figure 3.

The data generator is deterministic (seeded) so tests and benchmarks
reproduce byte-identical databases.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.relational.ddl import relation
from repro.relational.engine import Engine
from repro.structural.schema_graph import StructuralSchema

__all__ = [
    "university_schema",
    "populate_university",
    "UniversityConfig",
]

_DEPARTMENTS = [
    ("Computer Science", "Gates", 1200000),
    ("Mathematics", "Sloan", 700000),
    ("Physics", "Varian", 900000),
    ("Medicine", "Lane", 2500000),
    ("Philosophy", "Main Quad", 300000),
]

_FIRST_NAMES = [
    "Alice", "Bob", "Carol", "David", "Erin", "Frank", "Grace", "Henry",
    "Iris", "Jack", "Karen", "Louis", "Mona", "Nathan", "Olga", "Peter",
    "Quinn", "Rosa", "Sam", "Tara", "Uma", "Victor", "Wendy", "Xavier",
    "Yuri", "Zoe",
]

_LAST_NAMES = [
    "Anderson", "Barsalou", "Chen", "Dayal", "ElMasri", "Furtado",
    "Garcia", "Hull", "Ioannidis", "Jones", "Keller", "Lee", "Miller",
    "Nguyen", "Olsen", "Pistor", "Quass", "Roth", "Siambela", "Tanaka",
    "Ullman", "Vianu", "Wiederhold", "Xu", "Yang", "Zdonik",
]

_COURSE_TOPICS = [
    "Databases", "Operating Systems", "Compilers", "Algorithms",
    "Networks", "Graphics", "Logic", "Statistics", "Anatomy", "Ethics",
    "Quantum Mechanics", "Topology", "Machine Learning", "Security",
]

_GRADE_VALUES = ["A", "A-", "B+", "B", "B-", "C+", "C", "D", "F"]

_DEGREES = ["BSCS", "MSCS", "PhDCS", "BSMath", "MSStat", "MD"]


def university_schema() -> StructuralSchema:
    """Build the structural schema of Figure 1."""
    graph = StructuralSchema("university")

    graph.add_relation(
        relation("DEPARTMENT")
        .text("dept_name")
        .text("building", nullable=True)
        .integer("budget", nullable=True)
        .key("dept_name")
        .build()
    )
    graph.add_relation(
        relation("PEOPLE")
        .integer("person_id")
        .text("name", nullable=True)
        .text("dept_name", nullable=True)
        .text("address", nullable=True)
        .key("person_id")
        .build()
    )
    graph.add_relation(
        relation("STUDENT")
        .integer("person_id")
        .text("degree_program")
        .integer("year")
        .key("person_id")
        .build()
    )
    graph.add_relation(
        relation("FACULTY")
        .integer("person_id")
        .text("rank")
        .text("office", nullable=True)
        .key("person_id")
        .build()
    )
    graph.add_relation(
        relation("STAFF")
        .integer("person_id")
        .text("position")
        .integer("salary")
        .key("person_id")
        .build()
    )
    graph.add_relation(
        relation("COURSES")
        .text("course_id")
        .text("title")
        .integer("units")
        .text("level")  # "undergraduate" | "graduate"
        .text("dept_name")
        .integer("instructor_id", nullable=True)
        .key("course_id")
        .build()
    )
    graph.add_relation(
        relation("CURRICULUM")
        .text("degree")
        .text("course_id")
        .text("category")  # "required" | "elective"
        .key("degree", "course_id")
        .build()
    )
    graph.add_relation(
        relation("GRADES")
        .text("course_id")
        .integer("student_id")
        .text("grade")
        .key("course_id", "student_id")
        .build()
    )

    # People and courses relate to a department.
    graph.reference(
        "people_department", "PEOPLE", "DEPARTMENT",
        ["dept_name"], ["dept_name"],
    )
    graph.reference(
        "courses_department", "COURSES", "DEPARTMENT",
        ["dept_name"], ["dept_name"],
    )
    # A person is either a student, a faculty, or a staff.
    graph.subset(
        "people_student", "PEOPLE", "STUDENT", ["person_id"], ["person_id"]
    )
    graph.subset(
        "people_faculty", "PEOPLE", "FACULTY", ["person_id"], ["person_id"]
    )
    graph.subset(
        "people_staff", "PEOPLE", "STAFF", ["person_id"], ["person_id"]
    )
    # Grades are associated with courses and students.
    graph.ownership(
        "courses_grades", "COURSES", "GRADES", ["course_id"], ["course_id"]
    )
    graph.ownership(
        "student_grades", "STUDENT", "GRADES", ["person_id"], ["student_id"]
    )
    # A curriculum describes the required courses for a given degree.
    graph.reference(
        "curriculum_courses", "CURRICULUM", "COURSES",
        ["course_id"], ["course_id"],
    )
    # The course instructor (supports Figure 3's alternate object).
    graph.reference(
        "courses_instructor", "COURSES", "FACULTY",
        ["instructor_id"], ["person_id"],
    )
    return graph


class UniversityConfig:
    """Sizing of the deterministic data generator: students, courses and
    enrollments are knobs; the rest are constants a test may set on one
    instance."""

    FACULTY = 10
    STAFF = 6
    CURRICULUM_ENTRIES = 30
    SEED = 1991

    def __init__(
        self,
        students: int = 40,
        courses: int = 20,
        enrollments_per_student: int = 4,
    ) -> None:
        self.students = students
        self.courses = courses
        self.enrollments_per_student = enrollments_per_student


def populate_university(
    engine: Engine, config: UniversityConfig = None
) -> Dict[str, int]:
    """Fill an installed university database with deterministic data.

    Returns a relation-name -> row-count summary. The engine must
    already hold the Figure 1 relations (see
    :meth:`StructuralSchema.install`).
    """
    config = config or UniversityConfig()
    rng = random.Random(config.SEED)

    for dept_name, building, budget in _DEPARTMENTS:
        engine.insert(
            "DEPARTMENT",
            {"dept_name": dept_name, "building": building, "budget": budget},
        )

    dept_names = [d[0] for d in _DEPARTMENTS]
    person_id = 1000
    faculty_ids: List[int] = []
    student_ids: List[int] = []

    def add_person(dept: str) -> int:
        nonlocal person_id
        person_id += 1
        name = f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}"
        engine.insert(
            "PEOPLE",
            {
                "person_id": person_id,
                "name": name,
                "dept_name": dept,
                "address": f"{rng.randint(1, 999)} Campus Dr",
            },
        )
        return person_id

    for __ in range(config.FACULTY):
        pid = add_person(rng.choice(dept_names))
        engine.insert(
            "FACULTY",
            {
                "person_id": pid,
                "rank": rng.choice(["assistant", "associate", "full"]),
                "office": f"Bldg {rng.randint(1, 9)}-{rng.randint(100, 499)}",
            },
        )
        faculty_ids.append(pid)

    for __ in range(config.students):
        pid = add_person(rng.choice(dept_names))
        engine.insert(
            "STUDENT",
            {
                "person_id": pid,
                "degree_program": rng.choice(_DEGREES),
                "year": rng.randint(1, 6),
            },
        )
        student_ids.append(pid)

    for __ in range(config.STAFF):
        pid = add_person(rng.choice(dept_names))
        engine.insert(
            "STAFF",
            {
                "person_id": pid,
                "position": rng.choice(["admin", "technician", "librarian"]),
                "salary": rng.randint(40000, 90000),
            },
        )

    course_ids: List[str] = []
    for i in range(config.courses):
        dept = rng.choice(dept_names)
        prefix = "".join(w[0] for w in dept.split())[:2].upper()
        level = "graduate" if rng.random() < 0.5 else "undergraduate"
        number = (300 if level == "graduate" else 100) + i
        course_id = f"{prefix}{number}"
        engine.insert(
            "COURSES",
            {
                "course_id": course_id,
                "title": f"{rng.choice(_COURSE_TOPICS)} {'I' * rng.randint(1, 3)}",
                "units": rng.randint(1, 5),
                "level": level,
                "dept_name": dept,
                "instructor_id": rng.choice(faculty_ids) if faculty_ids else None,
            },
        )
        course_ids.append(course_id)

    enrolled = set()
    for sid in student_ids:
        wanted = min(config.enrollments_per_student, len(course_ids))
        for course_id in rng.sample(course_ids, wanted):
            if (course_id, sid) in enrolled:
                continue
            enrolled.add((course_id, sid))
            engine.insert(
                "GRADES",
                {
                    "course_id": course_id,
                    "student_id": sid,
                    "grade": rng.choice(_GRADE_VALUES),
                },
            )

    curriculum = set()
    attempts = 0
    while len(curriculum) < config.CURRICULUM_ENTRIES and attempts < 10000:
        attempts += 1
        entry = (rng.choice(_DEGREES), rng.choice(course_ids))
        if entry in curriculum:
            continue
        curriculum.add(entry)
        engine.insert(
            "CURRICULUM",
            {
                "degree": entry[0],
                "course_id": entry[1],
                "category": rng.choice(["required", "elective"]),
            },
        )

    return {
        name: engine.count(name)
        for name in (
            "DEPARTMENT",
            "PEOPLE",
            "STUDENT",
            "FACULTY",
            "STAFF",
            "COURSES",
            "CURRICULUM",
            "GRADES",
        )
    }
