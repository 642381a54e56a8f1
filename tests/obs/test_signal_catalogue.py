"""Every signal the library emits, held to its readers.

A *signal* is the literal first argument of a ``counter``, ``gauge`` or
``histogram`` call (a metric family), of an ``anomaly`` call (an anomaly
kind) or of a ``span`` call (a span name), found by walking the AST of
every module under ``src/repro``. A ``_count`` helper emits metric
families too, so its call sites pass literal names and the scan sees
them; a non-literal name anywhere else fails the scan.

A metric family or anomaly kind needs a reader: an occurrence of its
name, outside the call that emits it, in a test (this file excepted) or
a golden file under ``tests/``, in the command line
(``src/repro/__main__.py``, which also holds ``TRACE_LEGS``), in the
server's SLO table (``SLOS`` in ``obs/cluster.py``), or in
``README.md``, ``docs/TUTORIAL.md`` or ``DESIGN.md``. A signal nothing
reads is deleted with the code that emits it; it does not go on the
allow-list.

Span names are listed but not pruned: layers are named by their spans,
and a parent span frames the children readers do walk.
"""

import ast
import re
import shutil
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from repro.__main__ import TRACE_LEGS

REPO = Path(__file__).resolve().parents[2]
SOURCE = REPO / "src" / "repro"
CLI = SOURCE / "__main__.py"
DOCS = (REPO / "README.md", REPO / "docs" / "TUTORIAL.md", REPO / "DESIGN.md")

#: The call names that emit a signal, and the kind of signal each emits.
EMITTERS = {
    "counter": "metric",
    "gauge": "metric",
    "histogram": "metric",
    "_count": "metric",
    "anomaly": "anomaly",
    "span": "span",
}

#: Signal name -> why it stays without a reader (at most 3).
ALLOWED = {}


class Emission(NamedTuple):
    kind: str
    name: str
    path: Path
    first: int
    last: int


def callee(call):
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def scan(root):
    """``(emissions, non-literal call sites)`` under ``root``."""
    found, opaque = [], []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        helpers = {
            node
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            and function.name in EMITTERS
            for node in ast.walk(function)
        }
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or not call.args:
                continue
            kind = EMITTERS.get(callee(call))
            if kind is None:
                continue
            name = call.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                found.append(Emission(
                    kind, name.value, path, call.lineno, call.end_lineno,
                ))
            elif call not in helpers:
                opaque.append(f"{path.relative_to(root)}:{call.lineno}")
    return found, opaque


def slo_families(root):
    """The strings of every ``SLOS`` table declared under ``root``."""
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "SLOS"
                for target in node.targets
            ):
                for constant in ast.walk(node.value):
                    if isinstance(constant, ast.Constant) and isinstance(
                        constant.value, str
                    ):
                        yield constant.value


@lru_cache(maxsize=None)
def reader_texts():
    """``path -> text`` of every file a reader may live in."""
    texts = {
        path: path.read_text(encoding="utf-8", errors="replace")
        for path in sorted((REPO / "tests").rglob("*"))
        if path.is_file()
        and path.suffix != ".pyc"
        and path != Path(__file__).resolve()
    }
    texts[CLI] = CLI.read_text(encoding="utf-8")
    for doc in DOCS:
        texts[doc] = doc.read_text(encoding="utf-8")
    return texts


def mentions(name, text):
    pattern = rf"(?<!\w){re.escape(name)}(?:_bucket|_sum|_count)?(?!\w)"
    return re.search(pattern, text) is not None


def unread(root=SOURCE):
    """Metric families and anomaly kinds emitted under ``root`` that no
    reader names, sorted."""
    found, _ = scan(root)
    slo = set(slo_families(root))
    # The command line both reads and may emit: its emitting calls are
    # no readers of themselves.
    emitting = {
        number
        for e in found
        if e.path == root / CLI.name
        for number in range(e.first, e.last + 1)
    }
    texts = dict(reader_texts())
    texts[CLI] = "\n".join(
        line
        for number, line in enumerate(texts[CLI].splitlines(), 1)
        if number not in emitting
    )
    names = {e.name for e in found if e.kind != "span"}
    return sorted(
        name
        for name in names
        if name not in slo
        and not any(mentions(name, text) for text in texts.values())
    )


def test_every_metric_family_and_anomaly_kind_has_a_reader():
    assert [name for name in unread() if name not in ALLOWED] == []


def test_every_signal_name_is_a_literal():
    _, opaque = scan(SOURCE)
    assert opaque == []


def test_the_allow_list_is_short_and_every_entry_is_needed():
    assert len(ALLOWED) <= 3
    assert all(reason for reason in ALLOWED.values())
    assert set(ALLOWED) <= set(unread())


def test_the_scan_sees_every_trace_leg():
    spans = {e.name for e in scan(SOURCE)[0] if e.kind == "span"}
    assert [legs for legs in TRACE_LEGS if not spans & set(legs)] == []


def test_an_unread_counter_is_reported(tmp_path):
    copy = tmp_path / "repro"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "penguin.py", "a", encoding="utf-8") as handle:
        handle.write(
            "\n\ndef _probe():\n"
            '    obs.metrics().counter("catalogue_probe_total").inc()\n'
        )
    assert "catalogue_probe_total" in unread(copy)
    assert "catalogue_probe_total" not in unread()


if __name__ == "__main__":
    # The catalogue itself: PYTHONPATH=src python tests/obs/test_signal_catalogue.py
    for emission in sorted(scan(SOURCE)[0], key=lambda e: (e.kind, e.name)):
        where = f"{emission.path.relative_to(REPO)}:{emission.first}"
        print(f"{emission.kind:8} {emission.name:34} {where}")
