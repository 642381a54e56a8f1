"""Figure 4: the paper's instantiation example.

"An application's request to retrieve graduate courses with less than 5
students having enrolled produces one instance of ω."
"""

import pytest

from repro.core.query import execute_query


@pytest.fixture
def results(omega, university_engine):
    return execute_query(
        omega,
        university_engine,
        "level = 'graduate' and count(STUDENT) < 5",
    )


def test_at_least_one_instance(results):
    assert len(results) >= 1


def test_all_results_graduate(results):
    assert all(i.root.values["level"] == "graduate" for i in results)


def test_all_results_under_five_students(results):
    assert all(i.count_at("STUDENT") < 5 for i in results)


def test_instance_is_hierarchical(results):
    instance = results[0]
    # Atomic-valued attributes at the pivot...
    assert isinstance(instance.root.values["title"], str)
    # ...set-valued components below it...
    assert isinstance(instance.tuples_at("GRADES"), list)
    # ...and tuple-valued nesting (each grade carries its student).
    for grade in instance.tuples_at("GRADES"):
        assert len(grade.child_tuples("STUDENT")) == 1


def test_result_matches_manual_filter(omega, university_engine, results):
    from repro.core.instantiation import Instantiator
    from repro.relational.expressions import Attr

    manual = [
        i
        for i in Instantiator(omega).where(
            university_engine, Attr("level") == "graduate"
        )
        if i.count_at("STUDENT") < 5
    ]
    assert {i.key for i in manual} == {i.key for i in results}


def test_paper_rendering(results):
    text = results[0].describe()
    assert text.startswith("(COURSES:")
