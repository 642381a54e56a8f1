"""The compiled translator: byte-identical plans, shared cache, and the
batch-path stragglers.

The central contract is the BIRDS-style equivalence discipline: for any
schema in the synthetic chain family and any complete operation, the
compiled program and the interpreted tree walk must produce the *same*
plan — same operations, same order, same CASE reason strings — and
reject the same requests with the same messages. Everything else
(speed, prepared statements, cache sharing) rides on that guarantee.
"""

import copy
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.updates.compiled as compiled_mod
from repro.core.updates.compiled import CompiledProgram
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    Replacement,
)
from repro.core.updates.translator import Translator
from repro.errors import UpdateRejectedError
from repro.obs.audit import MemoryAuditLog
from repro.penguin import Penguin
from repro.relational.faults import FaultInjectingEngine, FaultPlan, SimulatedCrash
from repro.relational.journal import MemoryJournal
from repro.relational.memory_engine import MemoryEngine
from repro.shard.router import HashRouter, Placement, partition_plan
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from repro.workloads.synthetic import random_chain_case

FRESH_ROOT = 4711
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


def assert_same_plan(interpreted, compiled):
    assert interpreted.operations == compiled.operations
    assert interpreted.reasons == compiled.reasons


def twin_setups(seed):
    """Two identical engines over the same seeded random schema, one
    translator interpreted, one compiled."""
    engine_i, engine_c = MemoryEngine(), MemoryEngine()
    _, object_i, params = random_chain_case(engine_i, seed)
    _, object_c, _ = random_chain_case(engine_c, seed)
    interp = Translator(object_i, compile_plans=False)
    comp = Translator(object_c, compile_plans=True)
    return engine_i, engine_c, interp, comp, params


class TestCompiledEquivalence:
    """compiled ≡ interpreted over the randomized chain family.

    Each Hypothesis example runs four comparisons — rejection parity,
    fresh insert, key re-homing replace, delete — so 70 examples cover
    280 schema/op cases (the acceptance floor is 200).
    """

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=70, deadline=None)
    def test_plans_and_rejections_identical(self, seed):
        engine_i, engine_c, interp, comp, params = twin_setups(seed)

        # Rejection parity: re-inserting a resident island instance is
        # CASE 1 on both paths, with the identical message.
        template = interp.instantiate(engine_i, (0,)).to_dict()
        with pytest.raises(UpdateRejectedError) as rej_i:
            interp.insert(engine_i, copy.deepcopy(template))
        with pytest.raises(UpdateRejectedError) as rej_c:
            comp.insert(engine_c, copy.deepcopy(template))
        assert str(rej_i.value) == str(rej_c.value)

        # Fresh insert: the resident instance re-keyed to a new root.
        fresh = rekey(copy.deepcopy(template), FRESH_ROOT)
        assert_same_plan(
            interp.insert(engine_i, copy.deepcopy(fresh)),
            comp.insert(engine_c, copy.deepcopy(fresh)),
        )

        # Replacement with key re-homing: root 0 moves to a new pivot
        # key, dragging the owned subtree and peninsula repairs along.
        old_i = interp.instantiate(engine_i, (0,))
        rehomed = rekey(old_i.to_dict(), REHOMED_ROOT)
        old_c = comp.instantiate(engine_c, (0,))
        assert_same_plan(
            interp.replace(engine_i, old_i, copy.deepcopy(rehomed)),
            comp.replace(engine_c, old_c, copy.deepcopy(rehomed)),
        )

        # Deletion of the re-homed instance (island + peninsula repair).
        assert_same_plan(
            interp.delete(engine_i, key=(REHOMED_ROOT,)),
            comp.delete(engine_c, key=(REHOMED_ROOT,)),
        )

        # After identical plans, the databases are byte-identical too.
        assert snapshot(engine_i) == snapshot(engine_c)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_cross_shard_partition_identical(self, seed):
        """The owner-shard fast path: partitioning a compiled plan (incl.
        a pivot-key re-home that crosses shards) equals partitioning the
        interpreted plan, shard by shard."""
        engine_i, engine_c, interp, comp, _ = twin_setups(seed)
        old_i = interp.instantiate(engine_i, (0,))
        rehomed = rekey(old_i.to_dict(), REHOMED_ROOT)
        plan_i = interp.preview_replace(engine_i, old_i, copy.deepcopy(rehomed))
        old_c = comp.instantiate(engine_c, (0,))
        plan_c = comp.preview_replace(engine_c, old_c, copy.deepcopy(rehomed))

        graph = interp.view_object.graph
        placement = Placement(graph, "R0")
        router = HashRouter(4)
        parts_i = partition_plan(plan_i, placement, router, num_shards=4)
        parts_c = partition_plan(plan_c, placement, router, num_shards=4)
        assert sorted(parts_i) == sorted(parts_c)
        for shard in parts_i:
            assert parts_i[shard].operations == parts_c[shard].operations


class TestCompiledOnHospital:
    """Spot checks on the richer hospital schema (multi-child tree,
    reference children, nullable foreign keys)."""

    def setups(self):
        engine_i, engine_c = MemoryEngine(), MemoryEngine()
        graph_i, graph_c = hospital_schema(), hospital_schema()
        graph_i.install(engine_i)
        graph_c.install(engine_c)
        populate_hospital(engine_i, HospitalConfig(patients=4))
        populate_hospital(engine_c, HospitalConfig(patients=4))
        interp = Translator(patient_chart_object(graph_i), compile_plans=False)
        comp = Translator(patient_chart_object(graph_c), compile_plans=True)
        return engine_i, engine_c, interp, comp

    def test_explain_renders_identically(self):
        engine_i, engine_c, interp, comp = self.setups()

        def requests_for(translator, engine):
            chart = translator.instantiate(engine, (100,))
            renamed = dict(
                translator.instantiate(engine, (101,)).to_dict(),
                name="Compiled Check",
            )
            fresh = dict(chart.to_dict(), patient_id=999, VISIT=[])
            return [
                CompleteDeletion(chart),
                Replacement(
                    translator.instantiate(engine, (101,)), renamed
                ),
                CompleteInsertion(fresh),
            ]

        for req_i, req_c in zip(
            requests_for(interp, engine_i), requests_for(comp, engine_c)
        ):
            explain_i = interp.explain(engine_i, req_i)
            explain_c = comp.explain(engine_c, req_c)
            assert explain_i.render() == explain_c.render()

    def test_program_describe_names_every_node(self):
        _, _, _, comp = self.setups()
        front = comp.compiled()
        text = front.describe()
        assert "PATIENT" in text
        assert "island" in text
        assert front.program is comp.compiled().program  # cached

    def test_prepared_engine_plans_unchanged(self):
        """prepare_engine builds sqlite statements and hash indexes
        without changing the plans the translator produces."""
        from repro.relational.sqlite_engine import SqliteEngine

        graph = hospital_schema()
        engine = SqliteEngine()
        graph.install(engine)
        populate_hospital(engine, HospitalConfig(patients=3))
        comp = Translator(patient_chart_object(graph), compile_plans=True)
        baseline = comp.preview_delete(engine, key=(100,))
        comp.compiled().prepare_engine(engine)
        assert engine._sql_cache  # statements were built eagerly
        prepared = comp.preview_delete(engine, key=(100,))
        assert baseline.operations == prepared.operations
        applied = comp.delete(engine, key=(100,))
        assert applied.operations == baseline.operations
        assert engine.get("PATIENT", (100,)) is None


class TestCompiledCacheSharing:
    def test_for_user_shares_the_cache_object(self):
        engine = MemoryEngine()
        _, view_object, _ = random_chain_case(engine, 11)
        translator = Translator(view_object, compile_plans=True)
        bound = translator.for_user("alice")
        assert bound.user == "alice" and translator.user is None
        # A bound copy carries every attribute of its base (none may be
        # forgotten when one is added), and shares the cache by identity.
        assert vars(bound).keys() == vars(translator).keys()
        assert bound._compiled is translator._compiled
        # The program built through either handle is the same object.
        assert bound.compiled().program is translator.compiled().program

    def test_concurrent_first_compile_builds_once(self, monkeypatch):
        """Eight threads race the first translation through for_user
        copies; the program must be compiled exactly once (the
        ConcurrentPenguin reader/writer regression)."""
        builds = []
        real = CompiledProgram

        def counting(view_object, analysis):
            builds.append(threading.get_ident())
            return real(view_object, analysis)

        monkeypatch.setattr(compiled_mod, "CompiledProgram", counting)
        seeds = list(range(8))
        engines = []
        for _ in seeds:
            engine = MemoryEngine()
            random_chain_case(engine, 23)
            engines.append(engine)
        shared_engine = MemoryEngine()
        _, view_object, _ = random_chain_case(shared_engine, 23)
        translator = Translator(view_object, compile_plans=True)
        barrier = threading.Barrier(len(seeds))
        plans = [None] * len(seeds)
        errors = []

        def worker(index):
            bound = translator.for_user(f"user{index}")
            barrier.wait()
            try:
                plans[index] = bound.preview_delete(
                    engines[index], key=(0,)
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in seeds
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(builds) == 1
        reference = plans[0]
        for plan in plans[1:]:
            assert plan.operations == reference.operations

    def test_concurrent_penguin_serves_compiled_updates(self):
        """Writer threads insert distinct charts through the serving
        lock while the shared compiled cache is warm."""
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
            thread.join()
        assert not errors
        for i in range(6):
            assert serving.get("patient_chart", (60_000 + i,)) is not None


class TestWhereBatchSemantics:
    """delete_where / update_where now ride the _run_batch pipeline:
    coalesced plan, one journal intent, one audit record, all-or-nothing."""

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
            engine, FaultPlan().crash_at("mutation", at=3)
        )
        session = Penguin(
            graph, engine=faulty, install=False, journal=MemoryJournal()
        )
        session.register_object(patient_chart_object(graph))
        with pytest.raises(SimulatedCrash):
            session.delete_where("patient_chart", "birth_year > 0")
        report = session.recover()
        assert report.clean
        # All-or-nothing: the torn flush was rolled back entirely.
        assert snapshot(engine) == before
        assert len(session.query("patient_chart")) == 4
