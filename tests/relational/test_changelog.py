"""Change log: counters, marks, truncation."""

from repro.relational.changelog import ChangeLog


def test_counters():
    log = ChangeLog()
    log.record_insert("T", ("a",), ("a", 1))
    log.record_delete("T", ("a",), ("a", 1))
    log.record_replace("T", ("b",), ("b", 1), ("b", 2))
    assert log.counters == {"insert": 1, "delete": 1, "replace": 1}
    assert len(log) == 3


def test_mark_and_since():
    log = ChangeLog()
    log.record_insert("T", ("a",), ("a", 1))
    mark = log.mark()
    log.record_insert("T", ("b",), ("b", 1))
    assert [r.key for r in log.since(mark)] == [("b",)]


def test_truncate_restores_counters():
    log = ChangeLog()
    log.record_insert("T", ("a",), ("a", 1))
    mark = log.mark()
    log.record_delete("T", ("a",), ("a", 1))
    log.record_replace("T", ("b",), ("b", 1), ("b", 2))
    log.truncate(mark)
    assert log.counters == {"insert": 1, "delete": 0, "replace": 0}
    assert len(log) == 1

