"""The compiled read path against the readable Figure-4 walks.

``src/`` compiles instantiation into a plan of tuple positions and the
materialized view's dependency climb into a projection of the changed
tuple. ``tests/reference_walk.py`` keeps the walks they replaced. Over
seeded random members of the chain family — plain and ``adversarial=``
(shared peninsula, circuit), each as three view objects including one
whose intermediates are pruned into composite multi-connection paths —
these properties hold:

* the compiled instance ``==`` the reference instance, on the memory
  engine, on sqlite, and on a ``BufferedEngine`` with pending writes —
  with two pinned cases whose sibling lists of two or more tuples under
  a single-step edge are assembled through ``find_by_many``;
* for every committed record of a random write sequence (each write
  delivers at least one) the projected pivots contain every pivot whose
  instance really held the tuple, and contain the walked pivots; while
  every tuple has its owners the two are equal;
* a materialized view equals recomputation after ``sync``, sibling
  order included, on memory and on sqlite, over streams weighted
  towards in-place replaces (the records the maintainer patches into
  cached instances rather than evicting them), with reads, unread
  stretches (several records per round: a patch and an eviction of one
  pivot) and rollbacks, with and without a read of the uncommitted
  write; a rollback never drops a cached instance.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.projection import Projection
from repro.core.tree_builder import prune_tree
from repro.core.updates.bulk import BufferedEngine
from repro.core.view_object import ViewObjectDefinition
from repro.materialize.dependency import DependencyIndex
from repro.materialize.store import MaterializedView
from repro.relational.domains import INTEGER, TEXT
from repro.relational.memory_engine import MemoryEngine
from repro.structural.integrity import IntegrityChecker
from repro.workloads.synthetic import random_chain_case
from tests.conftest import Heard, make_engine
from tests.reference_walk import (
    ReferenceDependencyIndex,
    ReferenceInstantiator,
    connected_tuples,
)

OPS = ("insert", "delete", "touch", "move", "nullify")

cases = st.tuples(st.integers(min_value=0, max_value=5000), st.booleans())
# ``touch`` is the in-place replace, on whichever relation the indices
# pick — pivot, island, referenced, shared or pruned away: half of the
# stream, so most cached instances are patched before anything evicts.
write_sequences = st.lists(
    st.tuples(
        st.sampled_from(OPS + ("touch",) * 3),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
    ),
    min_size=1,
    max_size=8,
)


def view_objects(spanning):
    """Three view objects over one chain case.

    ``spanning`` is the generator's own object (with a circuit it
    already reaches R2 through a pruned copy of R1); ``everything``
    keeps every node of the maximal tree, so SHARER hangs under the
    shared PENINSULA and the circuit's second route to R1 is a node of
    its own; ``pruned`` keeps only the pivot and the leaves, so every
    intermediate relation sits inside a composite path.
    """
    graph, maximal = spanning.graph, spanning.maximal_tree
    pivot = maximal.root.relation

    def over(name, keep):
        tree = prune_tree(maximal, keep)
        projections = {
            node.node_id: Projection(
                node.relation, graph.relation(node.relation).attribute_names
            )
            for node in tree.nodes()
        }
        return ViewObjectDefinition(name, graph, tree, projections)

    # Definition 3.2: only the pivot's projection may sit on the pivot
    # relation, so a circuit's copies of it stay out.
    eligible = [
        n.node_id for n in maximal.nodes() if n.parent_id is None or n.relation != pivot
    ]
    leaves = [
        n.node_id
        for n in maximal.leaves()
        if n.node_id in eligible and n.parent_id is not None
    ]
    return [
        spanning,
        over("everything", eligible),
        over("pruned", [maximal.root_id] + leaves),
    ]


def apply_op(engine, op, a, b, c, counter):
    """One single-tuple write on some relation, chosen by index.

    Schema-generic on purpose: ``move`` overwrites any integer
    attribute, so it re-keys, re-parents and re-references; ``delete``
    takes any tuple, leaf or not, so owners disappear from under their
    tuples; ``nullify`` leaves composite references partially null. The
    read path must agree with its oracle on whatever state results.
    Returns whether it wrote anything.
    """
    names = sorted(engine.relation_names())
    name = names[a % len(names)]
    schema = engine.schema(name)
    rows = sorted(engine.scan(name), key=repr)
    if not rows:
        return False
    row = rows[b % len(rows)]
    key = schema.key_of(row)
    new = list(row)
    if op == "delete":
        engine.delete(name, key)
        return True
    if op == "insert":
        new[schema.position(schema.key[-1])] = 100 + counter
        engine.insert(name, new)
        return True
    if op == "touch":
        candidates = [
            i for i, attr in enumerate(schema.attributes)
            if attr.domain == TEXT and attr.name not in schema.key
        ]
        value = f"touched-{counter}"
    elif op == "move":
        candidates = [
            i for i, attr in enumerate(schema.attributes)
            if attr.domain == INTEGER
        ]
        value = c % 4
    else:  # nullify
        candidates = [
            i for i, attr in enumerate(schema.attributes) if attr.nullable
        ]
        value = None
    if not candidates:
        return False
    new[candidates[c % len(candidates)]] = value
    new_key = schema.key_of(new)
    if tuple(new) == row or (new_key != key and engine.contains(name, new_key)):
        return False
    engine.replace(name, key, new)
    return True


# -- instantiation ------------------------------------------------------------

# Depth 3, fan-out 2: every view object but ``pruned`` batches its
# sibling lists (test_pinned_cases_batch_sibling_lists holds that).
BATCHED_CASES = [(5, False), (5, True)]


@pytest.mark.parametrize("kind", ["memory", "sqlite", "buffered"])
@settings(max_examples=20, deadline=None)
@given(case=cases, writes=write_sequences)
@example(case=BATCHED_CASES[0], writes=[("touch", 0, 0, 0)])
@example(case=BATCHED_CASES[1], writes=[("move", 1, 2, 3)])
def test_compiled_instance_equals_reference_instance(kind, case, writes):
    seed, adversarial = case
    engine = make_engine("sqlite" if kind == "buffered" else kind)
    _, spanning, _ = random_chain_case(engine, seed, adversarial=adversarial)
    if kind == "buffered":
        engine = BufferedEngine(engine)  # the writes stay pending
    for counter, (op, a, b, c) in enumerate(writes):
        apply_op(engine, op, a, b, c, counter)
    for view_object in view_objects(spanning):
        compiled = view_object.instantiator
        reference = ReferenceInstantiator(view_object)
        # == on instances is exact: values, nesting and sibling order.
        assert compiled.all(engine) == reference.all(engine)
        for values in engine.scan(view_object.pivot_relation):
            key = engine.schema(view_object.pivot_relation).key_of(values)
            assert compiled.by_key(engine, key) == reference.by_key(engine, key)
        assert compiled.by_key(engine, (-1,)) is None


class _BatchCounting(MemoryEngine):
    """Counts the ``find_by_many`` calls that carried two or more entries."""

    batched = 0

    def find_by_many(self, name, attribute_names, entries):
        entries = list(entries)
        if len(entries) >= 2:
            self.batched += 1
        return super().find_by_many(name, attribute_names, entries)


@pytest.mark.parametrize("case", BATCHED_CASES)
def test_pinned_cases_batch_sibling_lists(case):
    seed, adversarial = case
    engine = _BatchCounting()
    _, spanning, _ = random_chain_case(engine, seed, adversarial=adversarial)
    for view_object in view_objects(spanning)[:2]:
        engine.batched = 0
        instances = view_object.instantiator.all(engine)
        assert engine.batched > 0
        assert instances == ReferenceInstantiator(view_object).all(engine)


# -- dependency climb ---------------------------------------------------------


def held_tuples(engine, view_object):
    """pivot key -> every (relation, key) its downward walk passes
    through, pruned intermediates included: by definition the tuples
    whose change can alter that instance."""
    tree = view_object.tree
    pivot = view_object.pivot_relation
    held = {}

    def walk(node_id, values, into):
        for child in tree.children(node_id):
            frontier = [values]
            for traversal in child.path:
                schema = engine.schema(traversal.end)
                reached = []
                for start in frontier:
                    for matched in connected_tuples(engine, traversal, start):
                        into.add((traversal.end, schema.key_of(matched)))
                        reached.append(matched)
                frontier = reached
            for reached in frontier:
                walk(child.node_id, reached, into)

    for values in engine.scan(pivot):
        key = engine.schema(pivot).key_of(values)
        held[key] = {(pivot, key)}
        walk(tree.root_id, values, held[key])
    return held


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@settings(max_examples=20, deadline=None)
@given(case=cases, writes=write_sequences)
def test_projected_pivots_cover_walked_and_held(backend, case, writes):
    seed, adversarial = case
    engine = make_engine(backend)
    graph, spanning, _ = random_chain_case(engine, seed, adversarial=adversarial)
    checker = IntegrityChecker(graph)
    objects = view_objects(spanning)
    compiled = [DependencyIndex(v) for v in objects]
    walked = [ReferenceDependencyIndex(v) for v in objects]
    heard = Heard(engine)
    for counter, (op, a, b, c) in enumerate(writes):
        before = [held_tuples(engine, v) for v in objects]
        owners_exist = checker.is_consistent(engine)
        wrote = apply_op(engine, op, a, b, c, counter)
        after = [held_tuples(engine, v) for v in objects]
        owners_exist = owners_exist and checker.is_consistent(engine)
        records = heard.take()
        assert len(records) == wrote  # a write commits one record at once
        for record in records:
            schema = engine.schema(record.relation)
            for n, (index, reference) in enumerate(zip(compiled, walked)):
                assert index.tracks(record.relation) == reference.tracks(
                    record.relation
                )
                for values, held in (
                    (record.old_values, before[n]),
                    (record.new_values, after[n]),
                ):
                    if values is None:
                        continue
                    tuple_id = (record.relation, schema.key_of(values))
                    projected = index.pivots_for(engine, record.relation, values)
                    assert projected >= {
                        pivot for pivot, tuples in held.items()
                        if tuple_id in tuples
                    }
                    climbed = reference.pivots_for(
                        engine, record.relation, values
                    )
                    if owners_exist:
                        assert projected == climbed
                    else:
                        # An owner is gone somewhere: the walk may stop
                        # short of a pivot the projection still names.
                        assert projected >= climbed
                assert index.affected_pivots(engine, record) >= (
                    reference.affected_pivots(engine, record)
                )


# -- cache maintenance --------------------------------------------------------


def extent(instances):
    """Each instance's ``to_dict``, by key: siblings are in key order on
    every engine, so two equal extents are equal as they are."""
    return {instance.key: instance.to_dict() for instance in instances}


# What becomes of one write: left unread (the next round sees several
# records), read back, rolled back unread, or read inside its transaction
# (the read shows the uncommitted write) and then rolled back.
FATES = ("unread", "unread", "read", "read", "rollback", "read+rollback")


streams = dict(
    case=cases,
    writes=write_sequences,
    fates=st.lists(st.sampled_from(FATES), min_size=8, max_size=8),
)


@settings(max_examples=15, deadline=None)
@given(**streams)
def test_cache_equals_recompute_after_sync(case, writes, fates):
    check_cache_equals_recompute("memory", case, writes, fates)


@settings(max_examples=15, deadline=None)
@given(**streams)
def test_cache_equals_recompute_after_sync_on_sqlite(case, writes, fates):
    check_cache_equals_recompute("sqlite", case, writes, fates)


def check_cache_equals_recompute(backend, case, writes, fates):
    seed, adversarial = case
    engine = make_engine(backend)
    _, spanning, _ = random_chain_case(engine, seed, adversarial=adversarial)
    views = [
        MaterializedView(view_object, engine)
        for view_object in view_objects(spanning)
    ]
    references = [ReferenceInstantiator(v.view_object) for v in views]

    def read(key):
        for view, reference in zip(views, references):
            cached, fresh = view.get(key), reference.by_key(engine, key)
            assert extent(filter(None, [cached])) == extent(filter(None, [fresh]))

    for view in views:
        view.all()  # warm the cache before the stream
    for counter, ((op, a, b, c), fate) in enumerate(zip(writes, fates)):
        aborted = fate.endswith("rollback")
        if aborted:
            engine.begin()
        apply_op(engine, op, a, b, c, counter)
        if fate.startswith("read"):
            read((a % 4,))
        if aborted:
            cached = [len(view) for view in views]
            engine.rollback()
            # A rollback never reaches a cache: no instance is dropped,
            # and what the cache holds still equals a recompute.
            assert [len(view) for view in views] == cached
            for view, reference in zip(views, references):
                assert extent(view.all()) == extent(reference.all(engine))
    for view, reference in zip(views, references):
        view.sync()
        assert extent(view.all()) == extent(reference.all(engine))
        assert view.staleness() == 0
