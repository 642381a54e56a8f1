"""The compiled program against its oracle: byte-identical plans, one
compile per translator, the fast paths, and the batch-path stragglers.

The central contract is the BIRDS-style equivalence discipline: for any
schema in the synthetic chain family and any operation — complete or
partial, accepted or rejected — the compiled program and the reference
walk of ``tests/reference_translate.py`` must produce the *same* outcome:
same operations, same order, same CASE reason strings, or the same error
class with the same message. Everything else (speed, prepared
statements, program sharing) rides on that guarantee.
"""

import copy
import datetime
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.updates.translator as translator_module
from repro.core.dependency_island import analyze_island
from repro.core.instance import build_instance
from repro.core.updates.bulk import BufferedEngine
from repro.core.updates.compiled import CompiledProgram
from repro.core.updates.context import TranslationContext
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    PartialDeletion,
    PartialInsertion,
    PartialUpdate,
    Replacement,
)
from repro.core.updates.translator import Translator
from repro.core.view_object import define_view_object
from repro.errors import ReproError
from repro.obs.audit import MemoryAuditLog
from repro.penguin import Penguin
from repro.relational.ddl import relation
from repro.relational.faults import FaultInjectingEngine, FaultPlan, FaultRule, SimulatedCrash
from repro.relational.journal import MemoryJournal
from repro.relational.memory_engine import MemoryEngine
from repro.shard.router import HashRouter, Placement, partition_plan
from repro.strategy.laws import random_policy
from repro.structural.schema_graph import StructuralSchema
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from repro.workloads.synthetic import random_chain_case
from repro.relational.domains import DATE
from tests import reference_translate
from tests.core.updates.test_global_integrity import lenient_completer
from tests.conftest import batch_write, completing

FRESH_ROOT = 4711
DANGLING_ROOT = 4712
REHOMED_ROOT = 7777


def rekey(node, new_root):
    """Set k0 to ``new_root`` throughout a nested instance dict."""
    if "k0" in node:
        node["k0"] = new_root
    for value in node.values():
        if isinstance(value, list):
            for child in value:
                if isinstance(child, dict):
                    rekey(child, new_root)
    return node


def snapshot(engine):
    return {name: set(engine.scan(name)) for name in engine.relation_names()}


def outcome(call):
    """What a translation did, comparably: the plan's operations and
    reasons in order, or the rejection's class and message."""
    try:
        plan = call()
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    return plan.operations, plan.reasons


class Twins:
    """Two identical databases over one schema and two translators with
    equal policies. Operations run on the ``compiled`` side as shipped
    and on the ``reference`` side under the oracle."""

    def __init__(self, build, policy_for=lambda view_object: None):
        self.engine_c, self.engine_r = MemoryEngine(), MemoryEngine()
        object_c, object_r = build(self.engine_c), build(self.engine_r)
        self.compiled = Translator(
            object_c, policy=policy_for(object_c), strictness="off"
        )
        self.reference = Translator(
            object_r, policy=policy_for(object_r), strictness="off"
        )
        self.view_object = object_c

    def same(self, call):
        """``call(translator, engine)`` on both sides must have the
        identical outcome, which is returned."""
        compiled = outcome(lambda: call(self.compiled, self.engine_c))
        with reference_translate.installed():
            reference = outcome(lambda: call(self.reference, self.engine_r))
        assert compiled == reference
        return compiled

    def same_databases(self):
        assert snapshot(self.engine_c) == snapshot(self.engine_r)


def chain_twins(seed, adversarial=False, policy_for=lambda view_object: None):
    return Twins(
        lambda engine: random_chain_case(engine, seed, adversarial)[1],
        policy_for,
    )


def run_complete_operations(twins):
    """Rejection, fresh insert, insert with a dangling reference,
    nonkey replace, key re-homing replace, delete — each compared."""
    template = twins.compiled.instantiate(twins.engine_c, (0,)).to_dict()

    # Re-inserting a resident island instance is CASE 1 on both.
    twins.same(
        lambda t, e: t.apply(e, CompleteInsertion(copy.deepcopy(template)))
    )

    # Fresh insert: the resident instance re-keyed to a new root.
    fresh = rekey(copy.deepcopy(template), FRESH_ROOT)
    twins.same(lambda t, e: t.apply(e, CompleteInsertion(copy.deepcopy(fresh))))

    # A referenced tuple nobody supplied: global integrity fabricates
    # the skeleton (or the completer refuses), identically.
    dangling = rekey(copy.deepcopy(template), DANGLING_ROOT)
    if "lookup_id" in dangling:
        dangling["lookup_id"] = 31337
        dangling["LOOKUP"] = []
    twins.same(
        lambda t, e: t.apply(e, CompleteInsertion(copy.deepcopy(dangling)))
    )

    # Nonkey replacement at the pivot (CASE R-2).
    renamed = dict(copy.deepcopy(fresh), payload="compiled check")
    twins.same(
        lambda t, e: t.apply(
            e, Replacement((FRESH_ROOT,), copy.deepcopy(renamed))
        )
    )

    # Replacement with key re-homing: root 0 moves to a new pivot key,
    # dragging the owned subtree and peninsula repairs along.
    rehomed = rekey(copy.deepcopy(template), REHOMED_ROOT)
    twins.same(
        lambda t, e: t.apply(e, Replacement((0,), copy.deepcopy(rehomed)))
    )

    # Deletion of the re-homed instance (island + peninsula repair); an
    # UpdateError on both sides when the re-homing was rejected.
    twins.same(lambda t, e: t.apply(e, CompleteDeletion((REHOMED_ROOT,))))
    twins.same_databases()


def rearranged(node, arrange):
    """A deep copy of a nested instance dict with every sibling list
    passed through ``arrange(node_id, siblings) -> siblings``."""
    return {
        name: (
            arrange(name, [rearranged(child, arrange) for child in value])
            if isinstance(value, list)
            else value
        )
        for name, value in node.items()
    }


def shuffled(node, rng, lists=None):
    """:func:`rearranged` into a seeded random order — every sibling
    list, or only those of the node ids in ``lists``."""

    def arrange(name, siblings):
        if lists is None or name in lists:
            rng.shuffle(siblings)
        return siblings

    return rearranged(node, arrange)


def without_outside(node, view_object, unless_changed_from=None):
    """A deep copy without the child lists of nodes outside the
    dependency island (what an HTTP client's payload leaves out). With
    ``unless_changed_from`` — the instance dict ``node`` was derived
    from, siblings in the same order — only the lists equal to its are
    left out."""
    analysis = analyze_island(view_object)
    before = unless_changed_from
    out = {}
    for name, value in node.items():
        if not isinstance(value, list):
            out[name] = value
        elif analysis.is_island(name):
            out[name] = [
                without_outside(
                    child, view_object, before and before[name][at]
                )
                for at, child in enumerate(value)
            ]
        elif before is not None and value != before[name]:
            out[name] = copy.deepcopy(value)
    return out


def nonkey_edits(template, view_object):
    """One replacement per node of the object: the first tuple there
    with one nonkey attribute changed. Yields ``(node_id, new)``."""

    def first_at(node, trail):
        for step in trail:
            children = node.get(step) or []
            if not children:
                return None
            node = children[0]
        return node

    for tree_node in view_object.tree.bfs():
        trail = [
            n.node_id
            for n in reversed(view_object.tree.path_to_root(tree_node.node_id))
        ][1:]
        new = copy.deepcopy(template)
        target = first_at(new, trail)
        key = view_object.graph.relation(tree_node.relation).key
        nonkey = next(
            (
                name
                for name in view_object.projection(tree_node.node_id).attributes
                if name not in key
            ),
            None,
        )
        if target is None or nonkey is None or isinstance(target[nonkey], int):
            continue
        target[nonkey] = f"edited at {tree_node.node_id}"
        yield tree_node.node_id, new


def run_replacement_variants(twins, seed):
    """Replacements as clients really send them — siblings in any order,
    unchanged references left out, ``old`` read before a concurrent
    write — previewed (database untouched) and then applied."""
    rng = random.Random(seed)
    view_object = twins.view_object
    template = twins.compiled.instantiate(twins.engine_c, (0,)).to_dict()
    payloads = [("identity", template)]
    payloads += list(nonkey_edits(template, view_object))
    payloads.append(("re-key", rekey(copy.deepcopy(template), REHOMED_ROOT)))
    # Re-keyed at the pivot only: everything below is stale (step 2).
    payloads.append(("stale re-key", dict(copy.deepcopy(template), k0=REHOMED_ROOT)))
    for _, new in payloads:
        for shape in (
            copy.deepcopy(new),
            shuffled(new, rng),
            without_outside(new, view_object),
            shuffled(without_outside(new, view_object), rng),
        ):
            twins.same(
                lambda t, e: t.explain_batch(
                    e, [Replacement((0,), copy.deepcopy(shape))]
                ).plan
            )
    # A stale ``old``: the database moved on after it was read.
    edits = dict(nonkey_edits(template, view_object))
    deepest = max(edits, default=None)
    if deepest is not None:
        twins.same(
            lambda t, e: t.apply(
                e, Replacement((0,), copy.deepcopy(edits[deepest]))
            )
        )
        for _, new in payloads:
            shape = shuffled(new, rng)
            twins.same(
                lambda t, e: t.explain_batch(
                    e,
                    [
                        Replacement(
                            copy.deepcopy(template), copy.deepcopy(shape)
                        ),
                    ],
                ).plan
            )
    rehomed = shuffled(payloads[-2][1], rng)
    twins.same(
        lambda t, e: t.apply(
            e, Replacement(copy.deepcopy(template), copy.deepcopy(rehomed))
        )
    )
    twins.same_databases()


def run_partial_operations(twins):
    """Every node of the object: partial insert (fresh, orphaned,
    identical, conflicting), partial update, partial delete."""
    view_object = twins.view_object
    roots = sorted(twins.engine_c.scan(view_object.pivot_relation))
    if not roots:
        return
    root = (roots[0][0],)
    for node in list(view_object.tree.bfs()):
        node_id = node.node_id
        schema = view_object.graph.relation(node.relation)
        instance = twins.compiled.instantiate(twins.engine_c, root)
        components = instance.tuples_at(node_id)
        if not components:
            continue
        values = dict(components[0].values)
        nonkey = next(
            (
                name
                for name in view_object.projection(node_id).attributes
                if name not in schema.key
            ),
            None,
        )
        fresh = dict(values, **{name: 99 for name in schema.key})
        orphan = dict(values, **{name: 88 for name in schema.key[1:]})
        variants = [fresh, orphan, values]
        if nonkey is not None:
            variants.append(dict(values, **{nonkey: "conflicting"}))
        for variant in variants:
            twins.same(
                lambda t, e: t.apply(
                    e, PartialInsertion(root, node_id, dict(variant))
                )
            )
        if nonkey is not None:
            twins.same(
                lambda t, e: t.apply(
                    e,
                    PartialUpdate(
                        root,
                        node_id,
                        dict(values),
                        dict(values, **{nonkey: "updated"}),
                    ),
                )
            )
        # A key-changing partial update is refused at step 1.
        twins.same(
            lambda t, e: t.apply(
                e, PartialUpdate(root, node_id, dict(values), dict(fresh))
            )
        )
        twins.same(
            lambda t, e: t.apply(
                e, PartialDeletion(root, node_id, dict(values))
            )
        )
        twins.same(
            lambda t, e: t.apply(
                e, PartialDeletion(root, node_id, dict(fresh))
            )
        )
    twins.same_databases()


def dated_case(engine):
    """WARD(ward, opened DATE) --* STAY(ward, day DATE, note): a node
    whose key holds a DATE (STAY) under one that merely carries one."""
    graph = StructuralSchema("dated")
    graph.add_relation(
        relation("WARD").text("ward").attribute("opened", DATE).key("ward").build()
    )
    graph.add_relation(
        relation("STAY")
        .text("ward")
        .attribute("day", DATE)
        .text("note", nullable=True)
        .key("ward", "day")
        .build()
    )
    graph.ownership("ward_stay", "WARD", "STAY", ["ward"], ["ward"])
    graph.install(engine)
    engine.insert("WARD", ("icu", datetime.date(2020, 1, 1)))
    engine.insert("STAY", ("icu", datetime.date(2020, 2, 2), "first"))
    return define_view_object(
        graph,
        "ward_stays",
        pivot="WARD",
        selections={"WARD": ["ward", "opened"], "STAY": ["ward", "day", "note"]},
    )


@pytest.mark.compares_translators
class TestCompiledEquivalence:
    """compiled ≡ reference over the randomized chain family, plain and
    adversarial. One example of the first property compares six complete
    operations, one of the second up to nine partial ones per node."""

    @given(seed=st.integers(min_value=0, max_value=100_000), adversarial=st.booleans())
    @settings(max_examples=70, deadline=None)
    def test_plans_and_rejections_identical(self, seed, adversarial):
        run_complete_operations(chain_twins(seed, adversarial))

    @given(seed=st.integers(min_value=0, max_value=100_000), adversarial=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_replacement_variants_identical(self, seed, adversarial):
        """Permuted siblings, omitted outside components and a stale
        ``old``: step 1 and step 2 of the oracle are its own full-instance
        passes, so a pairing bug in the program's shows here."""
        run_replacement_variants(chain_twins(seed, adversarial), seed)

    @given(seed=st.integers(min_value=0, max_value=100_000), adversarial=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_replacement_variants_reject_identically(self, seed, adversarial):
        twins = chain_twins(
            seed, adversarial, lambda view_object: random_policy(view_object, seed)
        )
        run_replacement_variants(twins, seed)

    @given(seed=st.integers(min_value=0, max_value=100_000), adversarial=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_partial_operations_identical(self, seed, adversarial):
        run_partial_operations(chain_twins(seed, adversarial))

    @given(seed=st.integers(min_value=0, max_value=100_000), adversarial=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_policies_reject_identically(self, seed, adversarial):
        """Switches off at random: most operations now reject, and the
        messages must match to the byte."""
        twins = chain_twins(
            seed, adversarial, lambda view_object: random_policy(view_object, seed)
        )
        run_complete_operations(twins)
        run_partial_operations(twins)

    @given(seed=st.integers(min_value=0, max_value=100_000), adversarial=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_custom_completer_identical(self, seed, adversarial):
        """A custom completer turns the fused row building and the fast
        insert off; the generic path must agree with the walk too."""
        twins = chain_twins(
            seed,
            adversarial,
            lambda view_object: completing(lenient_completer),
        )
        run_complete_operations(twins)
        run_partial_operations(twins)

    @pytest.mark.parametrize("as_datetime", [False, True])
    def test_date_keyed_relation_identical(self, as_datetime):
        """DATE keys take the checked mutators (the overlay must see the
        narrowed key); a ``datetime`` in the request narrows to the same
        stored ``date`` on both sides."""

        def day(year, month, dom):
            if as_datetime:
                return datetime.datetime(year, month, dom, 13, 30)
            return datetime.date(year, month, dom)

        twins = Twins(dated_case)
        fresh = {
            "ward": "er",
            "opened": day(2021, 3, 4),
            "STAY": [
                {"ward": "er", "day": day(2021, 3, 5), "note": "a"},
                {"ward": "er", "day": day(2021, 3, 6), "note": None},
            ],
        }
        twins.same(
            lambda t, e: t.apply(e, CompleteInsertion(copy.deepcopy(fresh)))
        )
        twins.same(
            lambda t, e: t.apply(e, CompleteInsertion(copy.deepcopy(fresh)))
        )
        twins.same(
            lambda t, e: batch_write(
                t,
                e,
                [
                    CompleteInsertion(rekey_ward(copy.deepcopy(fresh), ward))
                    for ward in ("b1", "b2")
                ],
                op="insert",
            )
        )
        twins.same(
            lambda t, e: t.apply(
                e,
                PartialInsertion(
                    ("er",), "STAY", {"day": day(2021, 3, 7), "note": "late"}
                ),
            )
        )
        twins.same(
            lambda t, e: t.apply(
                e,
                PartialUpdate(
                    ("er",),
                    "STAY",
                    {"ward": "er", "day": day(2021, 3, 5), "note": "a"},
                    {"ward": "er", "day": day(2021, 3, 5), "note": "b"},
                ),
            )
        )
        moved = rekey_ward(copy.deepcopy(fresh), "er2")
        twins.same(
            lambda t, e: t.apply(e, Replacement(("er",), copy.deepcopy(moved)))
        )
        twins.same(
            lambda t, e: t.apply(
                e,
                PartialDeletion(
                    ("er2",), "STAY", {"ward": "er2", "day": day(2021, 3, 6)}
                ),
            )
        )
        twins.same(
            lambda t, e: batch_write(
                t, e, [CompleteDeletion(k) for k in (("er2",), ("b1",))], op="delete"
            )
        )
        twins.same(lambda t, e: t.apply(e, CompleteDeletion(("icu",))))
        twins.same_databases()

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_cross_shard_partition_identical(self, seed):
        """The owner-shard fast path: partitioning a compiled plan (incl.
        a pivot-key re-home that crosses shards) equals partitioning the
        reference plan, shard by shard."""
        twins = chain_twins(seed)
        old = twins.compiled.instantiate(twins.engine_c, (0,))
        rehomed = rekey(old.to_dict(), REHOMED_ROOT)
        plan_c = twins.compiled.explain_batch(
            twins.engine_c, [Replacement(old, copy.deepcopy(rehomed))]
        ).plan
        with reference_translate.installed():
            plan_r = twins.reference.explain_batch(
                twins.engine_r, [Replacement((0,), copy.deepcopy(rehomed))]
            ).plan
        placement = Placement(twins.view_object.graph, "R0")
        router = HashRouter(4)
        parts_c = partition_plan(plan_c, placement, router)
        parts_r = partition_plan(plan_r, placement, router)
        assert sorted(parts_c) == sorted(parts_r)
        for shard in parts_c:
            assert parts_c[shard].operations == parts_r[shard].operations


def rekey_ward(chart, ward):
    chart["ward"] = ward
    for stay in chart["STAY"]:
        stay["ward"] = ward
    return chart


def hospital_translator(engine=None, patients=4):
    graph = hospital_schema()
    engine = engine if engine is not None else MemoryEngine()
    graph.install(engine)
    populate_hospital(engine, HospitalConfig(patients=patients))
    return engine, Translator(patient_chart_object(graph))


class TestCompiledOnHospital:
    """Spot checks on the richer hospital schema (multi-child tree,
    reference children, nullable foreign keys)."""

    @pytest.mark.compares_translators
    def test_explain_renders_identically(self):
        def renders(translator, engine):
            chart = translator.instantiate(engine, (100,))
            other = translator.instantiate(engine, (101,))
            renamed = dict(other.to_dict(), name="Compiled Check")
            fresh = dict(chart.to_dict(), patient_id=999, VISIT=[])
            return [
                translator.explain_batch(engine, [request]).render()
                for request in (
                    CompleteDeletion(chart),
                    Replacement(other, renamed),
                    CompleteInsertion(fresh),
                )
            ]

        compiled = renders(*reversed(hospital_translator()))
        with reference_translate.installed():
            reference = renders(*reversed(hospital_translator()))
        assert compiled == reference

    def test_program_describe_names_every_node(self):
        _, translator = hospital_translator()
        text = translator.compiled().describe()
        assert "PATIENT" in text
        assert "island" in text
        assert translator.compiled() is translator.program  # no wrapper

    def test_prepared_engine_plans_unchanged(self):
        """prepare_engine builds sqlite statements and hash indexes
        without changing the plans the translator produces."""
        from repro.relational.sqlite_engine import SqliteEngine

        engine, comp = hospital_translator(SqliteEngine(), patients=3)
        baseline = comp.explain_batch(engine, [CompleteDeletion((100,))]).plan
        comp.compiled().prepare_engine(engine)
        assert engine._sql_cache  # statements were built eagerly
        prepared = comp.explain_batch(engine, [CompleteDeletion((100,))]).plan
        assert baseline.operations == prepared.operations
        applied = comp.apply(engine, CompleteDeletion((100,)))
        assert applied.operations == baseline.operations
        assert engine.get("PATIENT", (100,)) is None


class TestCompiledCacheSharing:
    """One program per translator. (The class and its first test keep the
    names they had when a lazily filled cache object held the program.)"""

    def test_for_user_shares_the_cache_object(self):
        engine = MemoryEngine()
        _, view_object, _ = random_chain_case(engine, 11)
        translator = Translator(view_object)
        bound = translator.for_user("alice")
        assert bound.user == "alice" and translator.user is None
        # A bound copy carries every attribute of its base (none may be
        # forgotten when one is added), and shares the program by identity.
        assert vars(bound).keys() == vars(translator).keys()
        assert bound.program is translator.program
        assert bound.compiled() is translator.compiled()

    def test_compiles_once_all_share(self, monkeypatch):
        """Constructing a Translator compiles exactly once — there is no
        lazy first-use build left to race — and no later call, bound
        copy or thread compiles again."""
        builds = []
        real = CompiledProgram

        def counting(view_object, analysis):
            builds.append(view_object.name)
            return real(view_object, analysis)

        monkeypatch.setattr(translator_module, "CompiledProgram", counting)
        engine = MemoryEngine()
        _, view_object, _ = random_chain_case(engine, 23)
        translator = Translator(view_object)
        assert builds == [view_object.name]
        copies = [translator.for_user(f"user{i}") for i in range(8)]
        for bound in copies:
            assert bound.program is translator.program
            bound.explain_batch(engine, [CompleteDeletion((0,))])
            bound.compiled().describe()
        translator.apply(engine, CompleteDeletion((0,)))
        assert builds == [view_object.name]

    def test_concurrent_penguin_serves_compiled_updates(self):
        """Writer threads insert distinct charts through the serving
        lock, all through the one shared program."""
        import threading

        from repro.serve.concurrent import ConcurrentPenguin

        graph = hospital_schema()
        session = Penguin(graph)
        populate_hospital(session.engine, HospitalConfig(patients=2))
        session.register_object(patient_chart_object(graph))
        serving = ConcurrentPenguin(session)
        base = {
            "name": "Threaded",
            "birth_year": 1980,
            "ward_name": None,
            "VISIT": [],
        }
        errors = []

        def writer(pid):
            try:
                serving.insert(
                    "patient_chart", dict(base, patient_id=pid)
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(60_000 + i,))
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for i in range(6):
            assert serving.get("patient_chart", (60_000 + i,)) is not None


class _Checked:
    """An overlay that hides the fast mutators: the program falls back
    to the checked ``ctx.insert`` / ``ctx.delete`` everywhere."""

    def __init__(self, base):
        self._inner = BufferedEngine(base)

    def __getattr__(self, name):
        if name in ("insert_validated", "delete_validated"):
            raise AttributeError(name)
        return getattr(self._inner, name)


class _Spy(BufferedEngine):
    """An overlay that records which relations the program wrote through
    a fast mutator (a write ``TranslationContext`` was told is proved)."""

    def __init__(self, base):
        super().__init__(base)
        self.fast_inserts, self.fast_deletes = [], []

    def insert_validated(self, name, row, key):
        self.fast_inserts.append(name)
        super().insert_validated(name, row, key)

    def delete_validated(self, name, key):
        self.fast_deletes.append(name)
        super().delete_validated(name, key)


def overlay_state(overlay):
    return (
        copy.deepcopy(overlay._pending),
        {name: sorted(overlay.scan(name), key=repr) for name in overlay.relation_names()},
    )


def translate_over(overlay, translator, run, *instances):
    ctx = TranslationContext(
        translator.view_object, overlay, translator.policy, translator.analysis
    )
    getattr(translator.program, run)(ctx, *instances)
    return ctx.plan.operations, ctx.plan.reasons, overlay_state(overlay)


@pytest.mark.compares_translators
class TestFastPaths:
    """Each shortcut of the compiled program against the checked path it
    skips (ROADMAP item 3: a fast path keeps a named test or goes)."""

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_fast_insert_matches_checked_insert(self, seed):
        """``insert_validated`` skips the duplicate probe and the row
        re-validation ``BufferedEngine.insert`` would repeat: same plan,
        same reasons, same pending map without it."""
        engine = MemoryEngine()
        _, view_object, _ = random_chain_case(engine, seed)
        translator = Translator(view_object)
        fresh = build_instance(
            view_object,
            rekey(translator.instantiate(engine, (0,)).to_dict(), FRESH_ROOT),
        )
        spy = _Spy(engine)
        fast = translate_over(spy, translator, "run_insertion", fresh)
        checked = translate_over(_Checked(engine), translator, "run_insertion", fresh)
        assert fast == checked
        assert "R0" in spy.fast_inserts

    def test_fast_insert_leaves_date_keys_and_custom_completers_checked(self):
        engine = MemoryEngine()
        view_object = dated_case(engine)
        fresh = {
            "ward": "er",
            "opened": datetime.datetime(2021, 3, 4, 9, 0),
            "STAY": [{"ward": "er", "day": datetime.datetime(2021, 3, 5, 9, 0), "note": None}],
        }
        for policy, expected in (
            # WARD carries a DATE (normalized, then fast); STAY is keyed
            # by one, so the overlay key must come from the checked path.
            (None, ["WARD"]),
            # A custom completer may rewrite key attributes: never fast.
            (completing(lenient_completer), []),
        ):
            translator = Translator(view_object, policy=policy)
            instance = build_instance(view_object, copy.deepcopy(fresh))
            spy = _Spy(engine)
            fast = translate_over(spy, translator, "run_insertion", instance)
            checked = translate_over(
                _Checked(engine), translator, "run_insertion", instance
            )
            assert fast == checked
            assert spy.fast_inserts == expected
            assert spy.get("STAY", ("er", datetime.date(2021, 3, 5))) is not None

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_fast_delete_matches_checked_delete(self, seed):
        """``delete_validated`` skips the re-read inside ``ctx.delete``
        (the existence probe just returned the row): same plan, reasons,
        pending map — also for rows the overlay itself holds."""
        engine = MemoryEngine()
        _, view_object, _ = random_chain_case(engine, seed)
        translator = Translator(view_object)
        resident = translator.instantiate(engine, (0,))
        fresh = build_instance(
            view_object, rekey(resident.to_dict(), FRESH_ROOT)
        )
        results = []
        for overlay in (_Spy(engine), _Checked(engine)):
            translate_over(overlay, translator, "run_insertion", fresh)
            buffered = translate_over(overlay, translator, "run_deletion", fresh)
            based = translate_over(overlay, translator, "run_deletion", resident)
            results.append((buffered, based))
            if isinstance(overlay, _Spy):
                assert overlay.fast_deletes.count("R0") == 2
        assert results[0] == results[1]

    def test_fast_delete_leaves_date_keys_checked(self):
        engine = MemoryEngine()
        view_object = dated_case(engine)
        translator = Translator(view_object)
        resident = translator.instantiate(engine, ("icu",))
        spy = _Spy(engine)
        fast = translate_over(spy, translator, "run_deletion", resident)
        checked = translate_over(
            _Checked(engine), translator, "run_deletion", resident
        )
        assert fast == checked
        assert spy.fast_deletes == ["WARD"]

    @given(seed=st.integers(min_value=0, max_value=100_000), adversarial=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_key_probe_matches_find_by_probe(self, seed, adversarial):
        """Where a dependency probe's attributes are exactly the probed
        relation's key, the program asks ``get`` instead of ``find_by``
        (``probes_by_key``): same plans and rejections with the elision
        switched off, and it is only on where the attributes are the key."""
        engine = MemoryEngine()
        graph, view_object, _ = random_chain_case(engine, seed, adversarial)
        elided = Translator(view_object, strictness="off")
        probing = Translator(view_object, strictness="off")
        for rules in probing.program.rules.values():
            for target, attributes, *_, by_key in rules.dependencies:
                assert by_key == (
                    tuple(attributes) == tuple(graph.relation(target).key)
                )
            rules.dependencies = tuple(
                entry[:-1] + (False,) for entry in rules.dependencies
            )
        template = elided.instantiate(engine, (0,)).to_dict()
        dangling = rekey(copy.deepcopy(template), DANGLING_ROOT)
        if "lookup_id" in dangling:
            dangling["lookup_id"] = 31337
            dangling["LOOKUP"] = []
        requests = [
            CompleteInsertion(rekey(copy.deepcopy(template), FRESH_ROOT)),
            CompleteInsertion(dangling),
            Replacement((0,), rekey(copy.deepcopy(template), REHOMED_ROOT)),
        ]
        for request in requests:
            assert outcome(
                lambda: elided.explain_batch(engine, [request]).plan
            ) == outcome(lambda: probing.explain_batch(engine, [request]).plan)


class TestWhereBatchSemantics:
    """delete_where / update_where ride the batch write pipeline:
    one plan, one journal intent, one audit record, all-or-nothing."""

    def build_session(self, journal=None, audit=None, engine=None):
        graph = hospital_schema()
        own_engine = engine is None
        if own_engine:
            session = Penguin(graph, journal=journal, audit=audit)
            populate_hospital(session.engine, HospitalConfig(patients=4))
        else:
            session = Penguin(
                graph, engine=engine, install=False,
                journal=journal, audit=audit,
            )
        session.register_object(patient_chart_object(graph))
        return session

    def test_update_where_coalesces_per_instance_plans(self):
        audit = MemoryAuditLog()
        session = self.build_session(audit=audit)
        matched = len(session.query("patient_chart"))

        def rename(chart):
            chart["name"] = f"Batch {chart['patient_id']}"
            return chart

        plan = session.update_where("patient_chart", "birth_year > 0", rename)
        assert plan.count("replace") == matched
        records = audit.records()
        assert len(records) == 1
        assert records[0].op == "update_where"
        for instance in session.query("patient_chart"):
            assert instance.to_dict()["name"].startswith("Batch ")

    def test_crash_mid_delete_where_recovers_all_or_nothing(self):
        graph = hospital_schema()
        engine = MemoryEngine()
        graph.install(engine)
        populate_hospital(engine, HospitalConfig(patients=4))
        before = snapshot(engine)
        faulty = FaultInjectingEngine(
            engine, FaultPlan().add(FaultRule("crash", ("mutation",), at=3))
        )
        session = Penguin(
            graph, engine=faulty, install=False, journal=MemoryJournal()
        )
        session.register_object(patient_chart_object(graph))
        with pytest.raises(SimulatedCrash):
            session.delete_where("patient_chart", "birth_year > 0")
        report = session.recover()
        assert report.conflicts == []
        # All-or-nothing: the torn flush was rolled back entirely.
        assert snapshot(engine) == before
        assert len(session.query("patient_chart")) == 4
