"""VO-R is delta-driven (§5.3, CASE R-1 taken seriously).

Steps 1 and 2 of a replacement align ``old`` and ``new`` once — siblings
by key, leftovers in key order — and hand step 3 only the pairs that
differ. These tests pin what that buys (a leaf edit costs one probe and
one visit per node on its trail, whatever the size of the chart), what it
must not lose (re-keys still rewrite the island; a subtree is skipped
only when nothing in it could produce an operation), and the bug the
by-key alignment fixes: Figure 4's components are sets, so the order a
client lists siblings in is not a key change.

Every test runs against the compiled program and, through the directory's
sweep, against the full-instance oracle — except the ones marked
``compares_translators``, which look inside the program (the oracle
visits every node by design).
"""

import collections
import copy
import itertools

import pytest

from repro.core.instance import build_instance
from repro.core.updates.compiled import CompiledProgram
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    Replacement,
)
from repro.core.updates.policy import TranslatorPolicy
from repro.core.updates.translator import Translator
from repro.errors import LocalValidationError, ReproError, UpdateRejectedError
from repro.obs.audit import MemoryAuditLog
from repro.relational.memory_engine import MemoryEngine
from repro.relational.operations import Replace
from repro.workloads.figures import course_info_object
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from repro.workloads.synthetic import chain_object, chain_schema, populate_chain
from repro.workloads.university import populate_university, university_schema
from tests.conftest import batch_write, make_engine
from tests.journal_harness import RecordingJournal
from tests.core.updates.test_compiled import rearranged

CHAIN_DEPTH = 7
PATIENT = 5000


class CountingEngine(MemoryEngine):
    """Records every read the translation makes."""

    def __init__(self):
        super().__init__()
        self.reads = []

    def get(self, name, key):
        self.reads.append(("get", name, tuple(key)))
        return super().get(name, key)

    def find_by(self, name, attribute_names, entry):
        self.reads.append(("find_by", name, tuple(entry)))
        return super().find_by(name, attribute_names, entry)

    def find_by_many(self, name, attribute_names, entries):
        entries = [tuple(entry) for entry in entries]
        self.reads.extend(("find_by_many", name, entry) for entry in entries)
        return super().find_by_many(name, attribute_names, entries)

    def contains(self, name, key):
        self.reads.append(("contains", name, tuple(key)))
        return super().contains(name, key)

    def scan(self, name):
        self.reads.append(("scan", name))
        return super().scan(name)


def deep_chart(pid=PATIENT, visits=6, leaves=3):
    """1 + 6 + 6 x 3 x 3 = 61 island tuples; PHYSICIAN and MEDICATION
    are left out, as an HTTP client's payload leaves them out."""
    chart = {
        "patient_id": pid,
        "name": f"Patient #{pid}",
        "birth_year": 1970,
        "ward_name": None,
        "VISIT": [],
    }
    for visit_no in range(1, visits + 1):
        base = {"patient_id": pid, "visit_no": visit_no}
        chart["VISIT"].append(
            {
                **base,
                "visit_date": f"1990-01-{visit_no:02d}",
                "physician_id": 9000 + visit_no % 3,
                "reason": "checkup",
                "DIAGNOSIS": [
                    {**base, "diag_no": n, "code": "flu", "severity": "mild"}
                    for n in range(1, leaves + 1)
                ],
                "PRESCRIPTION": [
                    {**base, "rx_no": n, "med_id": f"MED-0{n}", "days": 7}
                    for n in range(1, leaves + 1)
                ],
                "LAB_RESULT": [
                    {**base, "test_no": n, "test_name": "CBC", "value": 1.5}
                    for n in range(1, leaves + 1)
                ],
            }
        )
    return chart


def deep_chain(k0=1000):
    """One root of the depth-7 chain: two children at level 1, one below."""

    def level(depth, prefix):
        node = {f"k{i}": v for i, v in enumerate(prefix)}
        node["payload"] = f"seed:{depth}"
        if depth == 0:
            node["lookup_id"] = 1
        if depth < CHAIN_DEPTH:
            node[f"R{depth + 1}"] = [
                level(depth + 1, prefix + (child,))
                for child in range(2 if depth == 0 else 1)
            ]
        return node

    return level(0, (k0,))


def hospital(engine=None, policy=None):
    """A translator and an engine holding the 61-tuple chart."""
    graph = hospital_schema()
    engine = engine if engine is not None else CountingEngine()
    graph.install(engine)
    populate_hospital(engine, HospitalConfig(patients=1))
    translator = Translator(patient_chart_object(graph), policy=policy)
    translator.apply(engine, CompleteInsertion(deep_chart()), "insert")
    return translator, engine


def chain():
    graph = chain_schema(CHAIN_DEPTH)
    engine = CountingEngine()
    graph.install(engine)
    populate_chain(engine, depth=CHAIN_DEPTH, roots=0)
    translator = Translator(chain_object(graph, CHAIN_DEPTH))
    translator.apply(engine, CompleteInsertion(deep_chain()), "insert")
    return translator, engine


def reorder(node, arrange):
    """A deep copy of a nested instance dict with every sibling list
    rearranged by ``arrange(siblings) -> siblings``."""
    return rearranged(node, lambda _, siblings: arrange(siblings))


def reverse(siblings):
    return siblings[::-1]


def rotate(siblings):
    return siblings[1:] + siblings[:1]


def rekey_chart(chart, pid):
    def rekey(node):
        if isinstance(node, dict):
            return {
                name: pid if name == "patient_id" else rekey(item)
                for name, item in node.items()
            }
        if isinstance(node, list):
            return [rekey(item) for item in node]
        return node

    return rekey(chart)


def steps(plan):
    return list(zip(plan.operations, plan.reasons))


def spy_on_cases(monkeypatch):
    """Which nodes the R and I case analyses were entered at."""
    visits = collections.Counter()
    for name in ("_replace_case", "_insert_case"):
        real = getattr(CompiledProgram, name)

        def recording(program, ctx, cn, old, new, real=real):
            visits[cn.node_id] += 1
            return real(program, ctx, cn, old, new)

        monkeypatch.setattr(CompiledProgram, name, recording)
    return visits


class TestSiblingOrderIsNotAKeyChange:
    """The satellite bugfix. Step 1 used to pair siblings by list
    position while step 3 paired them by key, and the engine returns
    siblings in whatever order it likes: a payload that listed the visits
    in another order than ``find_by`` was rejected as re-keying them."""

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_island_siblings_in_any_order(self, backend, order):
        policy = TranslatorPolicy.permissive()
        policy.for_relation("VISIT").allow_key_replacement = False
        translator, engine = hospital(make_engine(backend), policy)
        payload = deep_chart(visits=3, leaves=1)
        translator.apply(
            engine, Replacement((PATIENT,), copy.deepcopy(payload)), "replace"
        )
        stored = translator.instantiate(engine, (PATIENT,)).to_dict()
        renamed = dict(copy.deepcopy(stored), name="Renamed")
        renamed["VISIT"] = [renamed["VISIT"][at] for at in order]
        plan = translator.apply(engine, Replacement((PATIENT,), renamed), "replace")
        assert steps(plan) == [
            (
                Replace("PATIENT", (PATIENT,), (PATIENT, "Renamed", 1970, None)),
                "CASE R-2 replacement at node 'PATIENT' (VO-R)",
            )
        ]

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_peninsula_siblings_in_any_order(self, backend, order):
        """The "inherently ambiguous and prohibited" rule misfired the
        same way on CURRICULUM, ω's referencing peninsula."""
        graph = university_schema()
        engine = make_engine(backend)
        graph.install(engine)
        populate_university(engine)
        translator = Translator(course_info_object(graph))
        course = next(
            values
            for values in sorted(engine.scan("COURSES"))
            if len(engine.find_by("CURRICULUM", ("course_id",), values[:1])) == 3
        )
        stored = translator.instantiate(engine, course[:1]).to_dict()
        renamed = dict(copy.deepcopy(stored), title="Renamed")
        renamed["CURRICULUM"] = [renamed["CURRICULUM"][at] for at in order]
        plan = translator.apply(engine, Replacement(course[:1], renamed), "replace")
        assert steps(plan) == [
            (
                Replace("COURSES", course[:1], course[:1] + ("Renamed",) + course[2:]),
                "CASE R-2 replacement at node 'COURSES' (VO-R)",
            )
        ]

    def test_a_real_sibling_key_change_is_still_refused(self):
        policy = TranslatorPolicy.permissive()
        policy.for_relation("VISIT").allow_key_replacement = False
        translator, engine = hospital(policy=policy)
        old = translator.instantiate(engine, (PATIENT,))
        renumbered = reorder(deep_chart(), reverse)
        moved = next(v for v in renumbered["VISIT"] if v["visit_no"] == 2)
        moved["visit_no"] = 9
        for leaf_kind in ("DIAGNOSIS", "PRESCRIPTION", "LAB_RESULT"):
            for leaf in moved[leaf_kind]:
                leaf["visit_no"] = 9
        with pytest.raises(LocalValidationError, match=r"\(5000, 2\) -> \(5000, 9\)"):
            translator.apply(engine, Replacement(old, renumbered), "replace")


class TestLeafEdit:
    """One nonkey edit of one leaf: the cost is the trail, not the chart."""

    def test_chart_leaf_edit_is_one_probe_one_replace(self):
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        new = deep_chart()
        new["VISIT"][3]["DIAGNOSIS"][1]["severity"] = "severe"
        engine.reads.clear()
        plan = translator.explain_batch(engine, [Replacement(old, new)]).plan
        assert engine.reads == [("get", "DIAGNOSIS", (PATIENT, 4, 2))]
        assert steps(plan) == [
            (
                Replace(
                    "DIAGNOSIS", (PATIENT, 4, 2), (PATIENT, 4, 2, "flu", "severe")
                ),
                "CASE R-2 replacement at node 'DIAGNOSIS' (VO-R)",
            )
        ]

    def test_chain_leaf_edit_is_one_probe_one_replace(self):
        translator, engine = chain()
        old = translator.instantiate(engine, (1000,))
        new = deep_chain()
        leaf = new
        for depth in range(CHAIN_DEPTH):
            leaf = leaf[f"R{depth + 1}"][-1]
        leaf["payload"] = "edited"
        key = (1000, 1) + (0,) * (CHAIN_DEPTH - 1)
        engine.reads.clear()
        plan = translator.explain_batch(engine, [Replacement(old, new)]).plan
        assert engine.reads == [("get", f"R{CHAIN_DEPTH}", key)]
        assert steps(plan) == [
            (
                Replace(f"R{CHAIN_DEPTH}", key, key + ("edited",)),
                f"CASE R-2 replacement at node 'R{CHAIN_DEPTH}' (VO-R)",
            )
        ]

    def test_applied_leaf_edit_reads_only_the_edited_tuple(self):
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        new = deep_chart()
        new["VISIT"][0]["LAB_RESULT"][2]["value"] = 9.5
        engine.reads.clear()
        translator.apply(engine, Replacement(old, new), "replace")
        assert set(engine.reads) == {("get", "LAB_RESULT", (PATIENT, 1, 3))}
        assert engine.get("LAB_RESULT", (PATIENT, 1, 3))[-1] == 9.5

    @pytest.mark.compares_translators
    def test_cases_are_entered_once_per_node_of_the_trail(self, monkeypatch):
        visits = spy_on_cases(monkeypatch)
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        new = deep_chart()
        new["VISIT"][5]["PRESCRIPTION"][0]["days"] = 30
        translator.explain_batch(engine, [Replacement(old, new)])
        assert visits == {"PATIENT": 1, "VISIT": 1, "PRESCRIPTION": 1}

        visits.clear()
        translator, engine = chain()
        old = translator.instantiate(engine, (1000,))
        new = deep_chain()
        new["R1"][0]["R2"][0]["R3"][0]["payload"] = "edited"
        translator.explain_batch(engine, [Replacement(old, new)])
        assert visits == {"R0": 1, "R1": 1, "R2": 1, "R3": 1}


class TestIdentityReplacement:
    """CASE R-1 all the way down: nothing emitted, nothing probed."""

    @pytest.mark.parametrize("arrange", [list, reverse, rotate])
    @pytest.mark.parametrize("references", ["omitted", "present"])
    def test_nothing_emitted_nothing_probed(self, arrange, references):
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        same = deep_chart() if references == "omitted" else old.to_dict()
        engine.reads.clear()
        plan = translator.explain_batch(
            engine, [Replacement(old, reorder(same, arrange))]
        ).plan
        assert len(plan) == 0
        assert engine.reads == []

    @pytest.mark.compares_translators
    def test_skipped_subtrees_ask_the_policy_nothing(self):
        """The full walk enters I-1 for every equal PHYSICIAN pair and so
        leaves a default entry for PHYSICIAN in a policy that does not
        mention it; the program never visits the pair."""
        loader, engine = hospital()
        translator = Translator(loader.view_object)  # a policy nobody asked yet
        old = translator.instantiate(engine, (PATIENT,))
        plan = translator.explain_batch(
            engine, [Replacement(old, dict(old.to_dict(), name="N"))]
        ).plan
        assert len(plan) == 1
        assert translator.policy.relations == {}

    @pytest.mark.compares_translators
    def test_no_case_is_entered(self, monkeypatch):
        visits = spy_on_cases(monkeypatch)
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        translator.explain_batch(
            engine, [Replacement(old, reorder(deep_chart(), reverse))]
        )
        assert not visits


class TestWhatIsNotSkipped:
    """Soundness of the skip rule: a subtree is passed over only if every
    tuple in it equals its by-key partner, no island list in it gained or
    lost a member, and each child agrees with its new parent on the
    connecting attributes."""

    def test_pivot_rekey_rewrites_every_island_tuple(self):
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        plan = translator.apply(
            engine, Replacement(old, rekey_chart(deep_chart(), 6000)), "replace"
        )
        assert plan.count("replace") == len(plan) == 61
        assert translator.instantiate(engine, (6000,)).count_at("LAB_RESULT") == 18

    def test_subtree_equal_to_old_under_a_rekeyed_parent_is_not_skipped(self):
        """The payload re-keys only the pivot; every tuple below still
        equals its partner in ``old`` — and disagrees with its new
        parent, so step 2 rewrites it and step 3 visits it. (Leftovers
        pair in key order, and within one list the key's inherited part
        is shared, so the pairs of the re-key are the equal ones.)"""
        stale = dict(deep_chart(), patient_id=6000)
        consistent = rekey_chart(deep_chart(), 6000)
        plans = []
        for payload in (stale, consistent):
            translator, engine = hospital()
            old = build_instance(translator.view_object, deep_chart())
            plans.append(steps(translator.apply(
                engine, Replacement(old, payload), "replace"
            )))
        assert plans[0] == plans[1]
        assert {reason.split(" at ")[0] for _, reason in plans[0]} == {
            "CASE R-3 key-changing replacement"
        }
        assert len(plans[0]) == 61

    def test_dropped_island_member_is_deleted_with_its_subtree(self):
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        new = deep_chart()
        del new["VISIT"][2]
        plan = translator.apply(engine, Replacement(old, new), "replace")
        assert plan.count("delete") == len(plan) == 10
        assert plan.operations[0].relation == "VISIT"

    def test_added_island_member_is_inserted_with_its_subtree(self):
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        new = deep_chart(visits=7)
        plan = translator.apply(engine, Replacement(old, new), "replace")
        assert plan.count("insert") == len(plan) == 10

    def test_added_subtree_inherits_the_parents_key(self):
        """Step 2 reaches a component the replacement adds."""
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        new = deep_chart(visits=7)
        for leaf in new["VISIT"][6]["DIAGNOSIS"]:
            leaf["visit_no"] = 99  # stale: the visit is number 7
        translator.apply(engine, Replacement(old, new), "replace")
        assert len(engine.find_by("DIAGNOSIS", ("visit_no",), (7,))) == 3

    def test_changed_reference_outside_the_island_is_visited(self):
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        new = old.to_dict()
        new["VISIT"][1]["PHYSICIAN"][0]["specialty"] = "rewritten"
        plan = translator.apply(engine, Replacement(old, new), "replace")
        assert [reason for _, reason in steps(plan)] == [
            "CASE I-1 nonkey replacement at node 'PHYSICIAN' (VO-R)"
        ]

    def test_omitted_reference_outside_the_island_survives(self):
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        physicians = engine.count("PHYSICIAN")
        assert old.count_at("PHYSICIAN") == 6
        plan = translator.apply(
            engine, Replacement(old, dict(deep_chart(), name="Kept")), "replace"
        )
        assert len(plan) == 1
        assert engine.count("PHYSICIAN") == physicians

    def test_new_is_never_mutated(self):
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        stale = build_instance(
            translator.view_object, dict(deep_chart(), patient_id=6000)
        )
        sent = copy.deepcopy(stale.to_dict())
        translator.apply(engine, Replacement(old, stale), "replace")
        assert stale.to_dict() == sent


class TestMalformedInstances:
    """Duplicate sibling keys, keyless components and keys of another
    kind behave as they did before the walk learned to skip."""

    def test_component_lacking_a_key_attribute(self):
        translator, engine = hospital()
        message = "component tuple for 'DIAGNOSIS' lacks key attribute 'diag_no'"
        for side in ("old", "new"):
            old = translator.instantiate(engine, (PATIENT,))
            new = build_instance(translator.view_object, old.to_dict())
            broken = old if side == "old" else new
            del broken.tuples_at("DIAGNOSIS")[4].values["diag_no"]
            with pytest.raises(UpdateRejectedError) as rejection:
                translator.apply(engine, Replacement(old, new), "replace")
            assert str(rejection.value) == message

    @pytest.mark.parametrize("value,error", [
        (None, "attribute 'visit_no' is not nullable"),
        ("seven", "value 'seven' is not in domain 'integer'"),
    ])
    def test_sibling_key_of_another_kind_is_refused_not_mis_sorted(
        self, value, error
    ):
        """Siblings pair in key order, and a payload's key may hold a
        null or a value of another domain, which no stored key compares
        with: it ranks by kind and is refused where it always was, by
        domain validation — never a ``TypeError`` from the sort."""
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        new = deep_chart(visits=7)
        new["VISIT"][0]["visit_no"] = value
        with pytest.raises(ReproError, match=error):
            translator.apply(engine, Replacement(old, new), "replace")

    def test_duplicate_sibling_key_in_new(self):
        """The first duplicate pairs with the old tuple; the second has
        no partner and is reconciled against the database (I-3 when it
        says the same, I-4 when it does not)."""
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        new = deep_chart()
        new["VISIT"][0]["DIAGNOSIS"].append(dict(new["VISIT"][0]["DIAGNOSIS"][0]))
        assert len(translator.explain_batch(
            engine, [Replacement(old, new)]
        ).plan) == 0
        new["VISIT"][0]["DIAGNOSIS"][-1]["severity"] = "other"
        plan = translator.explain_batch(engine, [Replacement(old, new)]).plan
        assert steps(plan) == [
            (
                Replace("DIAGNOSIS", (PATIENT, 1, 1), (PATIENT, 1, 1, "flu", "other")),
                "CASE I-4 replacement at node 'DIAGNOSIS' (VO-R)",
            )
        ]

    def test_duplicate_sibling_key_in_old(self):
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        visit = old.tuples_at("VISIT")[0]
        visit.children["LAB_RESULT"].append(visit.children["LAB_RESULT"][0])
        assert len(translator.explain_batch(
            engine, [Replacement(old, deep_chart())]
        ).plan) == 0


@pytest.mark.compares_translators
class TestReadsPerRequest:
    """What one applied request of the 61-tuple chart reads, end to end
    (assembly, translation and the plan check), on the eager path.

    A row the translation has just read is handed to the mutation that
    removes or rewrites it instead of being read again, and one
    insertion pass proves each referenced parent once, however many of
    the chart's tuples name it."""

    def test_insert(self):
        graph = hospital_schema()
        engine = CountingEngine()
        graph.install(engine)
        populate_hospital(engine, HospitalConfig(patients=1))
        translator = Translator(patient_chart_object(graph))
        translator.apply(engine, CompleteInsertion(deep_chart()), "insert")
        reads = collections.Counter(read[:2] for read in engine.reads)
        assert len(engine.reads) == 80
        # One dependency probe per distinct parent: 6 visits, the patient,
        # 3 physicians and 3 medications (again in the plan check).
        assert reads[("get", "VISIT")] == 6 + 6
        assert reads[("get", "PATIENT")] == 1 + 1
        assert reads[("get", "PHYSICIAN")] == 3 + 3
        assert reads[("get", "MEDICATION")] == 3 + 3

    def test_replace(self):
        translator, engine = hospital()
        old = translator.instantiate(engine, (PATIENT,))
        new = deep_chart()
        new["name"] = "Renamed"
        for visit in new["VISIT"]:
            visit["physician_id"] = 9001
            visit["reason"] = "follow-up"
        engine.reads.clear()
        plan = translator.apply(engine, Replacement(old, new), "replace")
        assert len(plan) == 7
        assert engine.reads == (
            # CASE R-2 probes of the pivot and the six visits, each row
            # read once: the probe's row is the one the replace records.
            [("get", "PATIENT", (PATIENT,))]
            + [("get", "VISIT", (PATIENT, n)) for n in range(1, 7)]
            # The re-pointed visits' parents, proven once for all six.
            + [("get", "PATIENT", (PATIENT,)), ("get", "PHYSICIAN", (9001,))]
            # The plan check.
            + [("get", "PHYSICIAN", (9001,))]
        )

    def test_delete(self):
        translator, engine = hospital()
        engine.reads.clear()
        plan = translator.apply(engine, CompleteDeletion((PATIENT,)), "delete")
        assert len(plan) == 61
        island_gets = [
            read
            for read in engine.reads
            if read[0] == "get" and read[1] != "PATIENT"
        ]
        assert len(island_gets) == len(set(island_gets)) == 60
        assert len(engine.reads) == 143


def _rename(chart):
    chart["name"] = "Renamed"
    return chart


# write -> what it does to a hospital holding the charts of PATIENT and
# PATIENT + 1 (the session verb each stands for, through its door).
LOGGED_WRITES = {
    "insert": lambda t, e: t.apply(
        e, CompleteInsertion(deep_chart(PATIENT + 2)), "insert"
    ),
    "replace": lambda t, e: t.apply(
        e,
        Replacement(t.instantiate(e, (PATIENT,)), _rename(deep_chart())), "replace",
    ),
    "re-key": lambda t, e: t.apply(
        e,
        Replacement(
            t.instantiate(e, (PATIENT,)), rekey_chart(deep_chart(), PATIENT + 9)
        ), "replace",
    ),
    "delete": lambda t, e: t.apply(e, CompleteDeletion((PATIENT,)), "delete"),
    "insert_many": lambda t, e: batch_write(
        t,
        e,
        [CompleteInsertion(deep_chart(PATIENT + n)) for n in (2, 3, 4)],
        op="insert",
    ),
    "delete_many": lambda t, e: batch_write(
        t,
        e,
        [CompleteDeletion((PATIENT + n,)) for n in (0, 1)],
        op="delete",
    ),
}


def logged_write_reads(write, audited_before):
    """``write``'s engine reads unlogged and logged (journal and audit
    log), over the charts of PATIENT and PATIENT + 1 — inserted through
    the logged translator when ``audited_before``, so its audit log
    already holds records when ``write`` runs."""
    reads = {}
    for logged in (False, True):
        graph = hospital_schema()
        engine = CountingEngine()
        graph.install(engine)
        populate_hospital(engine, HospitalConfig(patients=1))
        logs = (
            dict(journal=RecordingJournal(), audit=MemoryAuditLog())
            if logged else {}
        )
        translator = Translator(patient_chart_object(graph), **logs)
        seeder = translator if audited_before else Translator(
            patient_chart_object(graph)
        )
        for pid in (PATIENT, PATIENT + 1):
            seeder.apply(engine, CompleteInsertion(deep_chart(pid)), "insert")
        engine.reads.clear()
        LOGGED_WRITES[write](translator, engine)
        reads[logged] = engine.reads
        if logged:
            assert translator.journal.journaled()[-1].image_records
    return reads, engine.relation_names()


@pytest.mark.parametrize("write", LOGGED_WRITES)
def test_journaling_adds_no_engine_reads(write):
    """A journal and an audit log take a write's images from what the
    translation recorded: once the audit log holds a record, a write
    reads exactly what it reads unlogged."""
    reads, _ = logged_write_reads(write, audited_before=True)
    assert reads[True] == reads[False]


@pytest.mark.parametrize("write", LOGGED_WRITES)
def test_an_empty_audit_log_reads_its_seed_once(write):
    """The first write an audit log records first reads the whole base
    once — one scan per relation, the digest ``replay`` holds
    ``as_of(0)`` to — before it changes anything; every other read is
    the unlogged write's."""
    reads, relations = logged_write_reads(write, audited_before=False)
    seed = [("scan", name) for name in relations]
    at = reads[True].index(seed[0])
    assert reads[True][at:at + len(seed)] == seed
    assert reads[True][:at] + reads[True][at + len(seed):] == reads[False]
    assert not any(read[0] == "scan" for read in reads[False])
