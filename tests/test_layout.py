"""Where things live: the oracles stay in the test tree, the switch that
once selected between two translators stays gone."""

import ast
import inspect
import pathlib
import re

import repro
from repro.core.updates.translator import Translator

SRC = pathlib.Path(repro.__file__).resolve().parent


def imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""


def test_nothing_under_src_imports_from_tests():
    """``tests/reference_walk.py``, ``tests/reference_translate.py`` and
    ``tests/reference_predicate.py`` are oracles, not fallbacks:
    production code cannot reach them — nor the bench fleet, which
    measures ``src/`` from outside."""
    offenders = [
        f"{path.relative_to(SRC)}: {module}"
        for path in sorted(SRC.rglob("*.py"))
        for module in imported_modules(path)
        if module.split(".")[0] in ("tests", "benchmarks")
    ]
    assert offenders == []


def test_translator_has_one_implementation_and_no_switch():
    # Spelled in two halves so a grep for the removed option stays empty.
    removed_option = "compile" + "_plans"
    assert removed_option not in inspect.signature(Translator).parameters
    assert not hasattr(
        inspect.getmodule(Translator), removed_option.upper() + "_DEFAULT"
    )


# -- selection is compiled (DESIGN.md "Read path") ----------------------------


def test_a_predicate_is_written_once_and_never_handed_a_dictionary_per_row():
    """One ``compile`` per node carries the null / ``In`` / ``Like``
    semantics; ``evaluate`` is its by-name spelling, declared once on
    the base class; the scan-based selections bind and filter."""
    assert source("relational/expressions.py").count("def evaluate") == 1
    for scanning in ("relational/engine.py", "relational/algebra.py"):
        assert ".as_mapping(" not in source(scanning), scanning
    like_translations = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if '".*"' in path.read_text(encoding="utf-8")
    ]
    assert like_translations == ["relational/expressions.py"]
    assert source("relational/expressions.py").count('".*"') == 1


# -- one write surface (DESIGN.md "One surface") ------------------------------

VERBS = (
    "insert", "delete", "replace", "insert_many", "delete_many",
    "apply_plan_batch", "delete_where", "update_where", "coerce",
    "metrics_text", "metrics_snapshot",
)
SESSION_CLASSES = (
    "ViewObjectSession", "Penguin", "ConcurrentPenguin", "ShardedPenguin",
)


def source(relative):
    return (SRC / relative).read_text(encoding="utf-8")


def test_each_verb_is_defined_in_exactly_one_session_class():
    """The verbs are request construction, declared once; a session
    supplies primitives, never a verb of its own."""
    defined = {verb: [] for verb in VERBS}
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name in SESSION_CLASSES:
                found.add(node.name)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in defined:
                        defined[item.name].append(node.name)
    assert found == set(SESSION_CLASSES)
    assert defined == {verb: ["ViewObjectSession"] for verb in VERBS}


WRITE_VERBS = (
    "insert", "delete", "replace", "insert_many", "delete_many",
    "delete_where", "update_where",
)


def test_a_write_verb_is_declared_on_the_session_and_nowhere_else():
    """Request construction exists once. Outside the engine primitives
    (``relational/``) and Keller's flat-view baseline (``keller/``), a
    method with a write verb's name belongs to ``ViewObjectSession`` —
    or is itself engine-shaped: an ``Engine`` overlay, or a method whose
    first argument is a relation."""
    declared = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] in ("relational", "keller"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            engine_shaped = "Engine" in [ast.unparse(b) for b in node.bases]
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in WRITE_VERBS:
                    first = [a.arg for a in item.args.args[1:2]]
                    if not engine_shaped and first != ["relation"]:
                        declared.append((node.name, item.name))
        assert not [
            node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in WRITE_VERBS
        ], path
    assert sorted(declared) == sorted(
        ("ViewObjectSession", verb) for verb in WRITE_VERBS
    )


def test_the_translator_takes_requests_through_three_doors():
    """``apply`` (eager), ``explain_batch`` (the overlay translate half,
    nothing committed) and ``apply_plan`` (the commit half) — plus the
    definition-time accessors; no verb of its own. A batch write is the
    last two, composed by the session."""
    public = {
        name for name, value in vars(Translator).items()
        if not name.startswith("_") and callable(value)
    }
    assert public == {
        "apply", "apply_plan", "explain_batch",
        "compiled", "risk", "for_user", "instantiate", "audit_update",
    }
    # explains_total is the one "what would this do" counter.
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8").lower()
        assert "preview" not in text, path.relative_to(SRC)


def test_the_overlay_half_is_built_in_one_place():
    """The translator's overlay half, and the one a transaction block's
    verbs translate over (``penguin._Block``)."""
    assert source("core/updates/translator.py").count("BufferedEngine(") == 1
    assert source("penguin.py").count("BufferedEngine(") == 1


def reads_of_in_transaction(tree):
    """``(statement, enclosing function or None)`` per read of
    ``in_transaction`` (an attribute or a ``getattr`` name) in ``tree``."""
    def walk(node, function, statement):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node
        if isinstance(node, ast.stmt):
            statement = node
        read = (
            isinstance(node, ast.Attribute) and node.attr == "in_transaction"
        ) or (
            isinstance(node, ast.Constant) and node.value == "in_transaction"
        )
        if read:
            yield statement, function
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function, statement)

    yield from walk(tree, None, None)


def test_nothing_decides_from_in_transaction_whether_to_journal_or_audit():
    """Every update a verb makes is journaled and audited, whatever
    transaction the engine has open: a read of ``in_transaction`` either
    discards a transaction a crash left open (``while ...: rollback()``)
    or sits in code that names no journal and no audit log."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for statement, function in reads_of_in_transaction(tree):
            if isinstance(statement, ast.While) and "rollback()" in ast.unparse(
                statement.body[0]
            ):
                continue
            text = ast.unparse(function or tree).lower()
            if "journal" in text or "audit" in text:
                offenders.append(
                    f"{path.relative_to(SRC)}:{statement.lineno}"
                )
    assert offenders == []


def test_no_private_reach_into_the_translator_or_the_session():
    """``shard/``, ``serve/`` and ``replicate/`` use the translator's and
    the sessions' public names; the HTTP server asks its session, it
    does not probe it."""
    offenders = []
    for package in ("shard", "serve", "replicate"):
        for path in sorted((SRC / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and ast.unparse(node.value).endswith(
                        ("translator", "translator(name)", "serving")
                    )
                ):
                    offenders.append(f"{path.relative_to(SRC)}: .{node.attr}")
    assert offenders == []
    assert "getattr(self.session" not in source("serve/http.py")


# -- one write guard (DESIGN.md "One guard") -----------------------------------


def test_sharding_admits_through_the_guard_and_takes_no_shard_lock():
    """No second copy of the refusal half, and no hand-taken side of a
    shard's readers-writer lock outside the two-phase participants'."""
    for path in sorted((SRC / "shard").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "breaker.allow(" not in text, path.name
        assert "audit_refusal(" not in text, path.name
        if path.name != "twophase.py":
            assert ".lock.write_locked(" not in text, path.name
            assert ".lock.read_locked(" not in text, path.name
    assert source("shard/twophase.py").count(".lock.write_locked(") == 1


def test_the_breaker_hears_outcomes_from_the_two_guards_only():
    reporters = set()
    for package in ("serve", "shard", "replicate"):
        for path in sorted((SRC / package).rglob("*.py")):
            for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(function, ast.FunctionDef) and any(
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("record_failure", "record_success")
                    for node in ast.walk(function)
                ):
                    reporters.add(f"{path.relative_to(SRC)}: {function.name}")
    assert reporters == {
        "serve/concurrent.py: _read_traced",  # the read guard
        "serve/concurrent.py: admitted",  # the write guard
    }


def test_the_guard_has_one_name_and_one_signature_on_both_fronts():
    from repro.replicate import ReplicaSet
    from repro.serve.concurrent import ConcurrentPenguin

    assert inspect.signature(ReplicaSet.admitted) == inspect.signature(
        ConcurrentPenguin.admitted
    )


def test_the_minimal_chart_is_spelled_once():
    """One hospital scaffold: the one-visit chart literal (``"reason"``
    beside ``"visit_no": 1``) occurs once under ``src/``."""
    literals = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Dict)
        for keys in [{
            key.value: value for key, value in zip(node.keys, node.values)
            if isinstance(key, ast.Constant)
        }]
        if "reason" in keys
        and isinstance(keys.get("visit_no"), ast.Constant)
        and keys["visit_no"].value == 1
    ]
    assert len(literals) == 1 and literals[0].startswith("workloads/hospital.py")


# -- one record, one file, one restore (DESIGN.md "One record") ---------------


def test_one_class_holds_an_update_as_the_logs_record_it():
    """The journal entry, the audit record and the shipped record are
    one type: a second class with ``plan_records`` in its slots is a
    second declaration of the same update."""
    holders = [
        f"{path.relative_to(SRC)}: {node.name}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.Assign)
        and any(ast.unparse(target) == "__slots__" for target in item.targets)
        and "plan_records" in ast.unparse(item.value)
    ]
    assert holders == ["relational/journal.py: UpdateRecord"]


def test_the_durable_logs_flush_in_one_place():
    """``write + flush + fsync`` of a log line exists once, in the file
    both durable logs are built on."""
    text = source("relational/journal.py") + source("obs/audit.py")
    assert text.count("os.fsync") == 1
    assert text.count("class JsonLinesFile") == 1
    # FileJournal and FileAuditLog: the file plus their own fold.
    assert text.count("JsonLinesFile(path, self._fold, ") == 2


def test_replication_does_not_reach_up_into_sharding():
    """``replicate/`` sits below ``shard/``, with no exception: the
    harness over the whole deployment is ``repro/simulate.py``."""
    offenders = [
        f"{path.relative_to(SRC)}: {module}"
        for path in sorted((SRC / "replicate").rglob("*.py"))
        for module in imported_modules(path)
        if module.startswith("repro.shard")
    ]
    assert offenders == []
    assert not (SRC / "replicate" / "campaign.py").exists()
    assert not (SRC / "chaos.py").exists()


# -- one fault surface, one checker (DESIGN.md) ---------------------------------

REPO = SRC.parent.parent


def python_files(*roots):
    return [path for root in roots for path in sorted(root.rglob("*.py"))]


def test_a_replica_applies_on_the_thread_that_delivered_it():
    """Replication starts no thread of its own (DESIGN.md "A replica
    applies on receipt"), and the switch that once chose one is gone."""
    threads = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in python_files(SRC / "replicate")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] == "Thread"
    ]
    assert threads == []
    # Spelled in two halves so a grep for the removed option stays empty.
    removed_option = "apply" + "_inline"
    mentions = [
        str(path.relative_to(REPO))
        for path in python_files(SRC, REPO / "tests", REPO / "benchmarks")
        if removed_option in path.read_text(encoding="utf-8")
    ]
    assert mentions == []


def test_one_failpoint_attribute_with_one_call_signature():
    """Every yield point outside an engine fires through an attribute
    called ``failpoint`` holding the one hook, as ``tick(point, shard=)``;
    no second hook attribute, callback type or parameter of its own."""
    names, calls = set(), []
    for path in python_files(SRC):
        text = path.read_text(encoding="utf-8")
        names |= set(re.findall(r"\b\w*failpoint\w*\b", text))
        calls += re.findall(r"failpoint\.(\w+)\(([^)]*)\)", text)
    assert names == {"failpoint", "_failpoint"}  # the property and its slot
    assert calls and all(
        method == "tick" and "shard=" in arguments for method, arguments in calls
    )
    from repro.replicate import ShippingLink
    from repro.shard.twophase import two_phase_apply

    assert "FaultHook" in str(
        inspect.signature(two_phase_apply).parameters["failpoint"].annotation
    )
    assert "hook" not in vars(ShippingLink(None))


def test_the_crash_type_and_the_tick_body_exist_once_in_the_repository():
    files = python_files(SRC, REPO / "tests", REPO / "benchmarks")
    texts = {path: path.read_text(encoding="utf-8") for path in files}
    here = pathlib.Path(__file__).resolve()
    crash = [p.name for p, text in texts.items()
             if "class SimulatedCrash" in text and p != here]
    assert crash == ["faults.py"]
    # The tick body: the one place a plan is consulted and a fired rule
    # turned into its effect.
    ticking = [p.name for p, text in texts.items()
               if ".decide(operation" in text and p != here]
    assert ticking == ["faults.py"]
    assert texts[SRC / "relational" / "faults.py"].count(".decide(operation") == 1
    for path, text in texts.items():
        if REPO / "tests" in path.parents and path != here:
            # No test brings a fault-injecting engine, a crash exception or
            # a patch of the translator's private translate step of its own.
            assert not re.search(r"class \w*(Fault|Crash)\w*\(", text), path
            assert 'Translator, "_translate"' not in text, path


def test_no_campaign_report_hierarchy_is_left():
    for path in python_files(SRC):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = [ast.unparse(base) for base in node.bases]
                assert "CampaignReport" not in bases + [node.name], path


def test_no_private_name_is_imported_across_a_package_boundary():
    """In the log layer and the layers built on it a ``_name`` stays in
    the package that defines it."""
    files = [SRC / "obs" / "audit.py"]
    for package in ("shard", "replicate", "relational"):
        files += sorted((SRC / package).rglob("*.py"))
    offenders = []
    for path in files:
        here = path.relative_to(SRC).parts[0]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            parts = (node.module or "").split(".")
            if parts[0] != "repro" or parts[1:2] == [here]:
                continue
            offenders += [
                f"{path.relative_to(SRC)}: {node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []
