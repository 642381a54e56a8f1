"""Property tests on the synthetic chain: operation-count laws.

For the ownership chain R0 --* R1 --* ... the translation algorithms
have exact combinatorial behaviour that must hold for every (depth,
fanout) configuration:

* VO-CD on one root emits one delete per island tuple (Σ fanoutⁱ) plus
  one repair per peninsula reference;
* a key-change VO-R emits one replacement per island tuple;
* after a VO-CD, no tuple anywhere carries the deleted root's key.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.updates.operations import CompleteDeletion, Replacement
from repro.core.updates.translator import Translator
from repro.relational.memory_engine import MemoryEngine
from repro.structural.integrity import IntegrityChecker
from repro.workloads.synthetic import chain_object, chain_schema, populate_chain

configurations = st.tuples(
    st.integers(min_value=1, max_value=3),  # depth
    st.integers(min_value=1, max_value=3),  # fanout
    st.integers(min_value=0, max_value=3),  # peninsula refs per root
)


def build(depth, fanout, peninsula_refs):
    graph = chain_schema(depth=depth)
    engine = MemoryEngine()
    graph.install(engine)
    populate_chain(
        engine,
        depth=depth,
        roots=2,
        fanout=fanout,
        peninsula_refs=peninsula_refs,
    )
    return graph, engine, chain_object(graph, depth)


@given(config=configurations)
@settings(max_examples=25, deadline=None)
def test_deletion_operation_count(config):
    depth, fanout, peninsula_refs = config
    graph, engine, view_object = build(depth, fanout, peninsula_refs)
    translator = Translator(view_object)
    plan = translator.apply(engine, CompleteDeletion((0,)))
    island_tuples = sum(fanout ** level for level in range(depth + 1))
    assert plan.count("delete") == island_tuples + peninsula_refs
    assert plan.count("insert") == 0
    assert plan.count("replace") == 0


@given(config=configurations)
@settings(max_examples=25, deadline=None)
def test_deletion_leaves_no_orphans(config):
    depth, fanout, peninsula_refs = config
    graph, engine, view_object = build(depth, fanout, peninsula_refs)
    Translator(view_object).apply(engine, CompleteDeletion((0,)))
    for name in graph.relation_names:
        if name == "LOOKUP":
            continue
        schema = graph.relation(name)
        if not schema.has_attribute("k0"):
            continue
        assert engine.find_by(name, ("k0",), (0,)) == []
    assert IntegrityChecker(graph).is_consistent(engine)


@given(config=configurations)
@settings(max_examples=20, deadline=None)
def test_rekey_operation_count(config):
    depth, fanout, peninsula_refs = config
    graph, engine, view_object = build(depth, fanout, peninsula_refs)
    translator = Translator(view_object)
    old = translator.instantiate(engine, (0,))

    def rekey(node):
        if "k0" in node:
            node["k0"] = 77
        for value in node.values():
            if isinstance(value, list):
                for child in value:
                    if isinstance(child, dict):
                        rekey(child)
        return node

    plan = translator.apply(engine, Replacement(old, rekey(old.to_dict())))
    island_tuples = sum(fanout ** level for level in range(depth + 1))
    # One replacement per island tuple; the in-object peninsula tuples
    # are re-pointed by step 4 (replace or insert+drop, depending on
    # whether state I pre-created them).
    assert plan.count("replace") >= island_tuples
    assert engine.find_by("R0", ("k0",), (77,))
    assert IntegrityChecker(graph).is_consistent(engine)


@given(config=configurations)
@settings(max_examples=15, deadline=None)
def test_instance_covers_whole_island(config):
    depth, fanout, peninsula_refs = config
    graph, engine, view_object = build(depth, fanout, peninsula_refs)
    translator = Translator(view_object)
    instance = translator.instantiate(engine, (1,))
    deepest = f"R{depth}"
    assert instance.count_at(deepest) == fanout ** depth
    assert instance.count_at("PENINSULA") == peninsula_refs
