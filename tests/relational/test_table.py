"""In-memory table: mutation vocabulary, key discipline, lookups."""

import pytest

from repro.errors import DuplicateKeyError, NoSuchRowError
from repro.relational.domains import INTEGER, TEXT
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.table import Table


@pytest.fixture
def table():
    schema = RelationSchema(
        "GRADES",
        [
            Attribute("course_id", TEXT),
            Attribute("student_id", INTEGER),
            Attribute("grade", TEXT, nullable=True),
        ],
        key=("course_id", "student_id"),
    )
    return Table(schema)


class TestInsert:
    def test_insert_returns_key(self, table):
        assert table.insert(("CS1", 1, "A")) == ("CS1", 1)

    def test_duplicate_key_rejected(self, table):
        table.insert(("CS1", 1, "A"))
        with pytest.raises(DuplicateKeyError):
            table.insert(("CS1", 1, "B"))

    def test_len(self, table):
        table.insert(("CS1", 1, "A"))
        table.insert(("CS1", 2, "B"))
        assert len(table) == 2


class TestDelete:
    def test_delete_returns_old(self, table):
        table.insert(("CS1", 1, "A"))
        assert table.delete(("CS1", 1)) == ("CS1", 1, "A")
        assert len(table) == 0

    def test_delete_missing(self, table):
        with pytest.raises(NoSuchRowError):
            table.delete(("CS1", 9))


class TestReplace:
    def test_nonkey_replace(self, table):
        table.insert(("CS1", 1, "A"))
        old = table.replace(("CS1", 1), ("CS1", 1, "B"))
        assert old == ("CS1", 1, "A")
        assert table.get(("CS1", 1)) == ("CS1", 1, "B")

    def test_key_changing_replace(self, table):
        table.insert(("CS1", 1, "A"))
        table.replace(("CS1", 1), ("CS2", 1, "A"))
        assert table.get(("CS1", 1)) is None
        assert table.get(("CS2", 1)) == ("CS2", 1, "A")

    def test_key_changing_replace_collision(self, table):
        table.insert(("CS1", 1, "A"))
        table.insert(("CS2", 1, "B"))
        with pytest.raises(DuplicateKeyError):
            table.replace(("CS1", 1), ("CS2", 1, "A"))

    def test_replace_missing(self, table):
        with pytest.raises(NoSuchRowError):
            table.replace(("CS1", 1), ("CS1", 1, "A"))


class TestReads:
    def test_contains(self, table):
        table.insert(("CS1", 1, "A"))
        assert table.contains_key(("CS1", 1))
        assert ("CS1", 1) in table
        assert not table.contains_key(("CS1", 2))

    def test_scan_is_snapshot(self, table):
        table.insert(("CS1", 1, "A"))
        table.insert(("CS1", 2, "B"))
        scan = table.scan()
        table.delete(("CS1", 1))  # mutation during iteration is safe
        assert len(list(scan)) == 2

    def test_find_by_scan(self, table):
        table.insert(("CS1", 1, "A"))
        table.insert(("CS1", 2, "B"))
        table.insert(("CS2", 1, "A"))
        assert len(table.find_by(("course_id",), ("CS1",))) == 2


class TestIndexes:
    def test_indexed_find(self, table):
        table.insert(("CS1", 1, "A"))
        table.create_index(("course_id",))
        table.insert(("CS1", 2, "B"))
        assert len(table.find_by(("course_id",), ("CS1",))) == 2

    def test_index_updated_on_delete(self, table):
        table.create_index(("course_id",))
        table.insert(("CS1", 1, "A"))
        table.delete(("CS1", 1))
        assert table.find_by(("course_id",), ("CS1",)) == []

    def test_index_updated_on_replace(self, table):
        table.create_index(("course_id",))
        table.insert(("CS1", 1, "A"))
        table.replace(("CS1", 1), ("CS9", 1, "A"))
        assert table.find_by(("course_id",), ("CS1",)) == []
        assert len(table.find_by(("course_id",), ("CS9",))) == 1

    def test_create_index_idempotent(self, table):
        first = table.create_index(("course_id",))
        second = table.create_index(("course_id",))
        assert first is second
        assert table.index_count == 1

    def test_drop_index(self, table):
        table.create_index(("course_id",))
        table.drop_index(("course_id",))
        assert not table.has_index(("course_id",))

    def test_index_and_scan_agree(self, table):
        for sid in range(20):
            table.insert(("CS1" if sid % 2 else "CS2", sid, "A"))
        expected = table.find_by(("course_id",), ("CS1",))
        table.create_index(("course_id",))
        assert table.find_by(("course_id",), ("CS1",)) == expected
