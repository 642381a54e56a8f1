"""Per-tuple provenance: chains, image history, and key re-homing."""

import pytest

from repro.errors import UpdateError
from repro.obs.audit import MemoryAuditLog
from repro.obs.lineage import LineageIndex
from repro.penguin import Penguin
from repro.workloads.figures import course_info_object
from repro.workloads.university import populate_university, university_schema

pytestmark = pytest.mark.audit


def new_course(course_id="CS999", title="View Objects"):
    return {
        "course_id": course_id,
        "title": title,
        "units": 3,
        "level": "graduate",
        "dept_name": "Computer Science",
        "DEPARTMENT": [],
        "CURRICULUM": [],
        "GRADES": [],
    }


@pytest.fixture
def session():
    session = Penguin(university_schema(), audit=MemoryAuditLog())
    populate_university(session.engine)
    session.register_object(course_info_object(session.graph))
    return session


def test_why_terminates_in_the_originating_view_update(session):
    session.insert("course_info", new_course())
    session.replace("course_info", ("CS999",), new_course(title="Revised"))
    chain = session.why("COURSES", ("CS999",))
    assert [link.asn for link in chain] == [1, 2]
    origin = chain[0]
    assert origin.record.op == "insert"
    assert origin.before is None  # came from nothing: the true origin
    assert origin.after is not None
    assert chain[-1].after[1] == "Revised"
    # Every tuple the workload wrote has a non-empty chain.
    lineage = session.lineage()
    for cell in lineage.cells():
        links = lineage.why(*cell)
        assert links
        assert links[0].record.state == "committed"


def test_history_is_the_exact_cell_image_sequence(session):
    session.insert("course_info", new_course())
    session.replace("course_info", ("CS999",), new_course(title="Revised"))
    session.delete("course_info", ("CS999",))
    links = session.tuple_history("COURSES", ("CS999",))
    assert [link.asn for link in links] == [1, 2, 3]
    assert links[0].before is None
    assert links[-1].after is None  # ends in deletion
    # Consecutive images agree: each after is the next link's before.
    for previous, following in zip(links, links[1:]):
        assert previous.after == following.before


def test_why_follows_key_rehoming(session):
    session.insert("course_info", new_course("CS999"))
    session.replace(
        "course_info", ("CS999",), new_course("CS998", title="Rehomed")
    )
    # The tuple now lives under a different key; its provenance must
    # still reach the original insert through the key-changing replace.
    chain = session.why("COURSES", ("CS998",))
    assert [link.asn for link in chain] == [1, 2]
    assert chain[0].record.op == "insert"
    assert chain[0].cell == ("COURSES", ("CS999",))
    assert chain[-1].cell == ("COURSES", ("CS998",))
    # history() stays cell-exact: only the re-homed key's own images.
    assert [link.asn for link in session.tuple_history("COURSES", ("CS998",))] == [2]


def test_rolled_back_updates_never_enter_chains(session):
    session.insert("course_info", new_course())
    with pytest.raises(UpdateError):
        session.insert("course_info", new_course())  # duplicate key
    assert len(session.audit) == 2  # the failure *is* audited
    chain = session.why("COURSES", ("CS999",))
    assert [link.asn for link in chain] == [1]


def test_unknown_cell_has_empty_chain(session):
    assert session.why("COURSES", ("NOPE",)) == []
    assert session.tuple_history("COURSES", ("NOPE",)) == []


def test_index_refreshes_as_the_log_grows(session):
    lineage = LineageIndex(session.audit)
    assert lineage.chain("COURSES", ("CS999",)) == []
    session.insert("course_info", new_course())
    assert lineage.chain("COURSES", ("CS999",)) == [1]
    session.delete("course_info", ("CS999",))
    assert lineage.chain("COURSES", ("CS999",)) == [1, 2]


def test_links_describe_renders_absent_images_as_empty_set(session):
    session.insert("course_info", new_course())
    session.delete("course_info", ("CS999",))
    first, last = session.tuple_history("COURSES", ("CS999",))
    assert "∅ ->" in first.describe()
    assert "-> ∅" in last.describe()
