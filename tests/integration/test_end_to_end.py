"""End-to-end scenarios across workloads and backends."""

import copy


from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    PartialInsertion,
    Replacement,
)
from repro.core.updates.translator import Translator
from repro.dialog.answers import ConstantAnswers
from repro.dialog.drivers import choose_translator
from repro.structural.integrity import IntegrityChecker


class TestHospitalScenario:
    """A patient chart evolves through a sequence of updates."""

    def test_chart_lifecycle(self, chart, hospital_engine, hospital_graph):
        translator = Translator(chart)
        checker = IntegrityChecker(hospital_graph)

        # 1. Admit a new patient with one visit and a diagnosis.
        translator.apply(
            hospital_engine,
            CompleteInsertion(
                {
                    "patient_id": 9001,
                    "name": "New Patient",
                    "birth_year": 1970,
                    "ward_name": "ICU",
                    "VISIT": [
                        {
                            "patient_id": 9001,
                            "visit_no": 1,
                            "visit_date": "1991-05-29",
                            "physician_id": 9000,
                            "reason": "checkup",
                            "DIAGNOSIS": [
                                {
                                    "patient_id": 9001,
                                    "visit_no": 1,
                                    "diag_no": 1,
                                    "code": "hypertension",
                                    "severity": "mild",
                                }
                            ],
                            "PRESCRIPTION": [],
                            "LAB_RESULT": [],
                            "PHYSICIAN": [
                                {
                                    "physician_id": 9000,
                                    "name": "Dr. #9000",
                                    "specialty": "cardiology",
                                }
                            ],
                        }
                    ],
                },
            ), "insert",
        )
        assert hospital_engine.get("PATIENT", (9001,)) is not None
        assert checker.is_consistent(hospital_engine)

        # 2. Add a prescription through a partial insertion.
        translator.apply(
            hospital_engine,
            PartialInsertion(
                (9001,),
                "PRESCRIPTION",
                {
                    "patient_id": 9001,
                    "visit_no": 1,
                    "rx_no": 1,
                    "med_id": "MED-01",
                    "days": 10,
                },
            ), "partial_insert",
        )
        assert hospital_engine.get("PRESCRIPTION", (9001, 1, 1)) is not None

        # 3. Replace: second visit appended via full replacement.
        old = translator.instantiate(hospital_engine, (9001,))
        new = copy.deepcopy(old.to_dict())
        new["VISIT"].append(
            {
                "patient_id": 9001,
                "visit_no": 2,
                "visit_date": "1991-06-15",
                "physician_id": 9001,
                "reason": "followup",
                "DIAGNOSIS": [],
                "PRESCRIPTION": [],
                "LAB_RESULT": [],
                "PHYSICIAN": [],
            }
        )
        translator.apply(hospital_engine, Replacement(old, new), "replace")
        assert hospital_engine.get("VISIT", (9001, 2)) is not None
        assert checker.is_consistent(hospital_engine)

        # 4. Discharge: complete deletion cascades the whole chart.
        translator.apply(hospital_engine, CompleteDeletion((9001,)), "delete")
        assert hospital_engine.get("PATIENT", (9001,)) is None
        assert hospital_engine.find_by("VISIT", ("patient_id",), (9001,)) == []
        assert checker.is_consistent(hospital_engine)


class TestCadScenario:
    def test_assembly_rekey(self, bom, cad_engine, cad_graph):
        """Renaming an assembly propagates to components and the
        released-assembly subset tuple."""
        translator = Translator(bom)
        released = next(iter(cad_engine.scan("RELEASED_ASSEMBLY")))[0]
        old = translator.instantiate(cad_engine, (released,))
        new = copy.deepcopy(old.to_dict())
        new["asm_id"] = "ASM-RENAMED"
        for component in new.get("COMPONENT", []):
            component["asm_id"] = "ASM-RENAMED"
        for release in new.get("RELEASED_ASSEMBLY", []):
            release["asm_id"] = "ASM-RENAMED"
        translator.apply(cad_engine, Replacement(old, new), "replace")
        assert cad_engine.get("ASSEMBLY", (released,)) is None
        assert cad_engine.get("ASSEMBLY", ("ASM-RENAMED",)) is not None
        assert cad_engine.get("RELEASED_ASSEMBLY", ("ASM-RENAMED",)) is not None
        assert cad_engine.find_by("COMPONENT", ("asm_id",), (released,)) == []
        assert IntegrityChecker(cad_graph).is_consistent(cad_engine)

    def test_dialog_then_update(self, bom, cad_engine):
        translator, __ = choose_translator(bom, ConstantAnswers(True))
        asm = next(iter(cad_engine.scan("ASSEMBLY")))[0]
        old = translator.instantiate(cad_engine, (asm,))
        new = copy.deepcopy(old.to_dict())
        new["project"] = "renamed-project"
        translator.apply(cad_engine, Replacement(old, new), "replace")
        assert cad_engine.get("ASSEMBLY", (asm,))[2] == "renamed-project"


class TestCrossBackendEquivalence:
    def test_same_final_state(
        self, university_graph, university_engine, university_sqlite
    ):
        """An identical update sequence leaves both backends in the same
        logical state."""
        from repro.workloads.figures import course_info_object

        omega = course_info_object(university_graph)
        for engine in (university_engine, university_sqlite):
            translator = Translator(omega)
            cid = sorted(v[0] for v in engine.scan("COURSES"))[0]
            old = translator.instantiate(engine, (cid,))
            new = copy.deepcopy(old.to_dict())
            new["title"] = "Cross Backend"
            translator.apply(engine, Replacement(old, new), "replace")
            translator.apply(
                engine,
                CompleteInsertion(
                    {
                        "course_id": "XB1",
                        "title": "t",
                        "units": 1,
                        "level": "graduate",
                        "dept_name": "Physics",
                    },
                ), "insert",
            )
            translator.apply(
                engine,
                CompleteDeletion(
                    (sorted(v[0] for v in engine.scan("COURSES"))[1],)
                ), "delete",
            )
        for relation in university_graph.relation_names:
            assert sorted(university_engine.scan(relation)) == sorted(
                university_sqlite.scan(relation)
            ), relation
