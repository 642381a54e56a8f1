"""The primary key is its own index, and per-tuple projections are
compiled getters.

``find_by`` on exactly a relation's key attributes (in key order) is
answered from the row map on every memory configuration (indexes on or
off) and equals a filtered scan; no engine builds a secondary index
whose columns are the key. Every compiled projection — ``key_of``,
``key_from``, an index entry, an integrity-rule entry — gives a tuple,
a 1-tuple for one attribute.
"""

import pytest

from repro.core.updates.translator import Translator
from repro.errors import UpdateRejectedError
from repro.relational.domains import INTEGER, TEXT
from repro.relational.indexes import HashIndex
from repro.relational.memory_engine import MemoryEngine
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sqlite_engine import SqliteEngine
from repro.workloads.hospital import hospital_schema, patient_chart_object
from repro.workloads.synthetic import chain_object, chain_schema
from repro.workloads.university import populate_university, university_schema
from repro.workloads.figures import course_info_object


def pair_schema():
    return RelationSchema(
        "PAIR",
        [
            Attribute("a", INTEGER),
            Attribute("b", TEXT),
            Attribute("note", TEXT, nullable=True),
        ],
        key=("a", "b"),
    )


def scanned(engine, name, names, entry):
    schema = engine.schema(name)
    positions = schema.positions(names)
    return sorted(
        (
            values
            for values in engine.scan(name)
            if tuple(values[p] for p in positions) == tuple(entry)
        ),
        key=schema.key_of,
    )


@pytest.fixture(params=["indexed", "no-index"])
def memory(request):
    engine = MemoryEngine(use_indexes=request.param == "indexed")
    engine.create_relation(pair_schema())
    engine.create_index("PAIR", ("a", "b"))
    for a in range(3):
        for b in ("x", "y"):
            engine.insert("PAIR", (a, b, f"{a}{b}"))
    return engine


class TestKeyProbesEqualAScan:
    ENTRIES = [
        (1, "y"),  # present
        (7, "y"),  # absent
        (None, "y"),  # null-holding
    ]

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_find_by_on_the_key(self, memory, entry):
        assert memory.find_by("PAIR", ("a", "b"), entry) == scanned(
            memory, "PAIR", ("a", "b"), entry
        )

    def test_find_by_many_on_the_key(self, memory):
        found = memory.find_by_many("PAIR", ("a", "b"), self.ENTRIES)
        assert found == {
            entry: scanned(memory, "PAIR", ("a", "b"), entry)
            for entry in self.ENTRIES
        }
        assert found[(1, "y")] == [(1, "y", "1y")]

    def test_key_probes_build_no_index(self, memory):
        assert not memory._table("PAIR")._indexes

    def test_key_probe_follows_writes(self, memory):
        memory.replace("PAIR", (1, "y"), (1, "y", "edited"))
        assert memory.find_by("PAIR", ("a", "b"), (1, "y")) == [(1, "y", "edited")]
        memory.delete("PAIR", (1, "y"))
        assert memory.find_by("PAIR", ("a", "b"), (1, "y")) == []


def sqlite_indexes(engine):
    """{index name: (relation, column names)} of every ``idx_*`` index."""
    rows = engine._connection.execute(
        "SELECT name, tbl_name FROM sqlite_master "
        "WHERE type = 'index' AND name LIKE 'idx_%'"
    ).fetchall()
    return {
        name: (
            table,
            tuple(
                info[2]
                for info in engine._connection.execute(
                    f"PRAGMA index_info('{name}')"
                )
            ),
        )
        for name, table in rows
    }


WORKLOADS = {
    "hospital": (hospital_schema, patient_chart_object),
    "chain": (lambda: chain_schema(7), lambda graph: chain_object(graph, 7)),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_no_engine_indexes_the_key_twice(workload):
    make_schema, make_object = WORKLOADS[workload]
    graph = make_schema()
    translator = Translator(make_object(graph))
    memory, sqlite = MemoryEngine(), SqliteEngine()
    for engine in (memory, sqlite):
        graph.install(engine)
        translator.compiled().prepare_engine(engine)
    endpoints = {
        (name, tuple(attributes))
        for connection in graph.connections
        for name, attributes in (
            (connection.source, connection.source_attributes),
            (connection.target, connection.target_attributes),
        )
    }
    on_the_key = {
        (name, attributes)
        for name, attributes in endpoints
        if attributes == graph.relation(name).key
    }
    assert on_the_key  # the schema has endpoints that are keys
    for name in graph.relation_names:
        assert graph.relation(name).key not in memory._table(name)._indexes
    indexed = sqlite_indexes(sqlite)
    assert indexed
    for relation, columns in indexed.values():
        assert columns != graph.relation(relation).key
    # Every other endpoint is still indexed on both engines.
    for name, attributes in endpoints - on_the_key:
        assert tuple(attributes) in memory._table(name)._indexes
        assert (name, attributes) in indexed.values()


class TestOneAttributeKeysGiveOneTuples:
    def test_key_of(self):
        schema = university_schema().relation("COURSES")
        assert schema.key == ("course_id",)
        row = ("CS1", "Intro", 3, "CS")
        assert schema.key_of(row) == ("CS1",)

    def test_key_from(self):
        translator = Translator(course_info_object(university_schema()))
        root = translator.compiled().root
        assert root.key_names == ("course_id",)
        assert root.key_from({"course_id": "CS1", "title": "T"}) == ("CS1",)

    def test_key_from_names_the_missing_key_attribute(self):
        root = Translator(course_info_object(university_schema())).compiled().root
        with pytest.raises(
            UpdateRejectedError,
            match=r"component tuple for 'COURSES' lacks key attribute 'course_id'",
        ):
            root.key_from({"title": "T"})

    def test_index_entry(self):
        schema = pair_schema()
        index = HashIndex(schema, ("note",))
        index.add((1, "x", "n"))
        assert index.lookup(("n",)) == [(1, "x")]
        assert index._entry((1, "x", "n")) == ("n",)

    def test_rule_entries(self):
        graph = university_schema()
        engine = MemoryEngine()
        graph.install(engine)
        populate_university(engine)
        rules = Translator(course_info_object(graph)).compiled().rules
        single = 0
        for relation, relation_rules in rules.items():
            row = next(iter(engine.scan(relation)))
            key = graph.relation(relation).key_of(row)
            getters = [
                (rule[1], rule[2], row)
                for rule in relation_rules.cascade
                + relation_rules.incoming_refs
                + relation_rules.dependencies
            ] + [
                (rule[1], rule[2], key)
                for rule in relation_rules.retarget + relation_rules.propagate
            ]
            for names, entry_of, values in getters:
                entry = entry_of(values)
                assert type(entry) is tuple and len(entry) == len(names)
                single += len(names) == 1
        assert single
