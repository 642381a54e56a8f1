"""``tools/measure_coverage.py --drivers``: the function lister and the
driver list it reads off the CI file, checked without running a driver."""

import importlib.util
import pathlib
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "measure_coverage", REPO / "tools" / "measure_coverage.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load_tool()

FIXTURE = textwrap.dedent('''\
    """A module whose functions a hand-made hit set reaches or not."""


    def reached(x):
        y = x + 1

        def inner():
            return y

        return y


    def missed():
        return 2


    class Box:
        def __init__(self):
            self.value = 1

        @property
        def label(self):
            return "box"

        def opened(self):
            return self.value


    def stub():
        """Nothing to run."""


    async def waited():
        return 3
    ''')


def test_lists_each_function_whose_body_no_hit_reached(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    # Importing the module runs every def and class line; calling
    # reached() and Box.opened() runs their bodies, nothing else.
    hits = {1, 4, 13, 17, 18, 21, 22, 25, 29, 33}
    hits |= {5, 7, 10}  # reached(): inner is defined, never called
    hits |= {26}  # Box.opened()
    assert tool.unreached_functions(str(path), hits) == [
        ("reached.inner", 7),
        ("missed", 13),
        ("Box.label", 22),
        ("waited", 33),
    ]


def test_a_nested_call_counts_for_the_function_around_it(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    listed = [name for name, _ in tool.unreached_functions(str(path), {8})]
    assert "reached" not in listed and "reached.inner" not in listed
    assert "Box.__init__" not in listed  # dunders are never listed
    assert "stub" not in listed  # a docstring alone runs nothing


def test_the_drivers_are_the_ci_commands_outside_the_test_suites():
    drivers = tool.drivers(tool.ci_commands())
    repro = [args for kind, args in drivers if kind == "repro"]
    assert ["simulate", "--preset", "all", "--seed", "0"] in repro
    assert ["audit", "why", "--relation", "PATIENT", "--key", "77001"] in repro
    assert ["check", "hospital-dump"] in repro  # the && chain is split
    benches = [path for kind, paths in drivers if kind == "bench" for path in paths]
    assert "benchmarks/bench_vs_keller.py" in benches
    assert not [path for path in benches if not path.startswith("benchmarks/bench_")]
    e2e = [args for kind, args in drivers if kind == "e2e"]
    assert ["--trace", "1", "--ops-scale", "0.01", "--seconds", "1"] in e2e


EXCLUDED = textwrap.dedent('''\
    from typing import TYPE_CHECKING

    if TYPE_CHECKING:
        import os


    class Engine:
        def scan(self):
            raise NotImplementedError

        def __repr__(self):  # pragma: no cover
            return "engine"

        def count(self):
            return 0
    ''')


def test_the_exclusions_are_read_from_pyproject(monkeypatch):
    patterns = tool.exclude_patterns()
    assert patterns == (
        "pragma: no cover", "if TYPE_CHECKING:", "raise NotImplementedError",
    )
    # The reader for Pythons without tomllib finds the same list.
    monkeypatch.setitem(sys.modules, "tomllib", None)
    tool.exclude_patterns.cache_clear()
    try:
        assert tool.exclude_patterns() == patterns
    finally:
        tool.exclude_patterns.cache_clear()


def test_excluded_lines_and_blocks_are_not_executable(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(EXCLUDED, encoding="utf-8")
    excluded = tool.excluded_lines(EXCLUDED, tool.exclude_patterns())
    assert excluded == {3, 4, 9, 11, 12}
    assert not tool.executable_lines(str(path)) & excluded
    # A stub whose only line is excluded has no body left to reach.
    assert tool.unreached_functions(str(path), set()) == [("Engine.count", 14)]
