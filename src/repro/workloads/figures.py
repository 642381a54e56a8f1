"""Canonical view objects of the paper's figures.

* :func:`course_info_object` — ω of Figure 2(c): anchored on COURSES,
  including DEPARTMENT, CURRICULUM, GRADES, and STUDENT; complexity 5.
* :func:`alternate_course_object` — ω′ of Figure 3: still anchored on
  COURSES but with FACULTY and STUDENT only, the latter reached through
  the two-connection path ``COURSES --* GRADES *-- STUDENT`` since
  GRADES is not part of ω′.
"""

from __future__ import annotations

from repro.core.view_object import ViewObjectDefinition, define_view_object
from repro.structural.schema_graph import StructuralSchema

__all__ = ["course_info_object", "alternate_course_object"]


def course_info_object(graph: StructuralSchema) -> ViewObjectDefinition:
    """ω of Figure 2(c)."""
    return define_view_object(
        graph,
        "course_info",
        pivot="COURSES",
        selections={
            "COURSES": (
                "course_id", "title", "units", "level", "dept_name",
            ),
            "DEPARTMENT": ("dept_name", "building"),
            "CURRICULUM": ("degree", "course_id", "category"),
            "GRADES": ("course_id", "student_id", "grade"),
            "STUDENT": ("person_id", "degree_program", "year"),
        },
    )


def alternate_course_object(graph: StructuralSchema) -> ViewObjectDefinition:
    """ω′ of Figure 3."""
    return define_view_object(
        graph,
        "course_staffing",
        pivot="COURSES",
        selections={
            "COURSES": (
                "course_id", "title", "units", "level", "instructor_id",
            ),
            "FACULTY": ("person_id", "rank", "office"),
            "STUDENT": ("person_id", "degree_program", "year"),
        },
    )
