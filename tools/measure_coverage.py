"""Zero-dependency line-coverage measurement for offline environments.

CI measures coverage with ``pytest-cov`` (see ``.github/workflows/ci.yml``),
but the offline container this reproduction targets has neither
``coverage`` nor ``pytest-cov``.  This tool fills the gap with the
stdlib only: a ``sys.settrace`` hook records every executed line in
``src/repro`` while the test suite runs, and the denominator comes from
compiling each source file and walking its code objects' ``co_lines``
tables — the same definition of "executable line" coverage.py uses —
less the lines that ``pyproject.toml``'s ``[tool.coverage.report]
exclude_lines`` patterns drop from CI's figure (a matched line that
opens a block drops the block), so both readings share one definition.

Usage::

    PYTHONPATH=src python tools/measure_coverage.py              # full suite
    PYTHONPATH=src python tools/measure_coverage.py tests/obs    # a subset
    PYTHONPATH=src python tools/measure_coverage.py --fail-under 80
    PYTHONPATH=src python tools/measure_coverage.py --drivers    # no tests

``--drivers`` is the census of what the system's own drivers reach:
instead of the test suite it runs, in one process, every command line
the CI runs outside pytest (read off ``ci.yml``), the examples, the
CI's benchmark smokes and the four end-to-end workloads at the CI
smoke's settings, then prints driver coverage and every ``src/repro``
function (dunders aside) whose body no driver reached. DESIGN.md
"Every line earns a run" says why each listed function stays.

Tracing costs roughly a 2-4x slowdown; expect the full suite to take a
few minutes.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dis
import functools
import io
import os
import re
import runpy
import shlex
import sys
import tempfile
import threading
import traceback
from types import CodeType

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")
CI = os.path.join(REPO, ".github", "workflows", "ci.yml")
PYPROJECT = os.path.join(REPO, "pyproject.toml")
EXAMPLES = os.path.join(REPO, "examples")


@functools.lru_cache(maxsize=None)
def exclude_patterns(path: str = PYPROJECT) -> tuple:
    """The ``[tool.coverage.report] exclude_lines`` regexes of ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        import tomllib
    except ImportError:  # Python < 3.11: the array holds plain strings
        section = text.split("[tool.coverage.report]", 1)[1]
        array = re.search(r"^exclude_lines\s*=\s*(\[.*?\])", section, re.M | re.S)
        return tuple(ast.literal_eval(array.group(1)))
    return tuple(tomllib.loads(text)["tool"]["coverage"]["report"]["exclude_lines"])


def excluded_lines(source: str, patterns: tuple) -> set:
    """Lines a pattern matches, and the indented block under each
    matched line that opens one (``if TYPE_CHECKING:`` and its body), as
    coverage.py excludes them."""
    if not patterns:
        return set()
    matcher = re.compile("|".join(f"(?:{pattern})" for pattern in patterns))
    lines = source.splitlines()
    excluded = set()
    for number, text in enumerate(lines, start=1):
        if number in excluded or not matcher.search(text):
            continue
        excluded.add(number)
        if re.search(r":\s*(#.*)?$", text):
            indent = len(text) - len(text.lstrip())
            for after, line in enumerate(lines[number:], start=number + 1):
                if not line.strip():
                    continue
                if len(line) - len(line.lstrip()) <= indent:
                    break
                excluded.add(after)
    return excluded


def executable_lines(path: str) -> set:
    """Every line number the compiler can attribute bytecode to, less
    the lines ``pyproject.toml``'s ``exclude_lines`` drop."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    lines = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        if hasattr(code, "co_lines"):
            lines.update(lineno for _, _, lineno in code.co_lines())
        else:  # Python 3.9
            lines.update(lineno for _, lineno in dis.findlinestarts(code))
        stack += [const for const in code.co_consts if isinstance(const, CodeType)]
    # the compiler attributes module setup to line 0 on some versions
    lines.discard(0)
    lines.discard(None)
    return lines - excluded_lines(source, exclude_patterns())


def function_lines(path: str) -> list:
    """``(qualname, def line, body lines)`` for every function in ``path``.

    A body line is an executable line between the function's first
    statement after its docstring and its end; a nested function's
    lines count for it and for every function around it (the outer one
    ran to define it).
    """
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    executable = executable_lines(path)
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                statements = child.body[1:] if ast.get_docstring(child) else child.body
                first = statements[0].lineno if statements else child.end_lineno + 1
                body = {n for n in executable if first <= n <= child.end_lineno}
                found.append((name, child.lineno, body))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def unreached_functions(path: str, hits: set) -> list:
    """``(qualname, def line)`` of each non-dunder function in ``path``
    none of whose body lines is in ``hits``, in source order. A function
    whose body is a docstring alone has no line to reach and is not
    listed."""
    return [
        (name, line)
        for name, line, body in function_lines(path)
        if body and not body & hits and not _dunder(name.rsplit(".", 1)[-1])
    ]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def source_files() -> list:
    found = []
    for root, _dirs, names in os.walk(SRC):
        for name in sorted(names):
            if name.endswith(".py"):
                found.append(os.path.join(root, name))
    return found


class LineCollector:
    """A trace function that records executed (file, line) pairs.

    The global hook prunes at call granularity: frames outside
    ``src/repro`` return ``None`` so their lines are never traced,
    which keeps the slowdown tolerable.
    """

    def __init__(self) -> None:
        self.hits = {}

    def _local(self, frame, event, _arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def global_trace(self, frame, event, _arg):
        if event != "call":
            return None
        filename = frame.f_code.co_filename
        if not filename.startswith(SRC):
            return None
        if filename not in self.hits:
            self.hits[filename] = set()
        return self._local

    def install(self) -> None:
        threading.settrace(self.global_trace)
        sys.settrace(self.global_trace)

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]


def ci_commands(path: str = CI) -> list:
    """Every shell command a ``run:`` step of the CI file runs, one
    string each (a folded ``>-`` block joined, ``&&`` chains split)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    commands = []
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped.startswith("run:"):
            continue
        value = stripped[len("run:"):].strip()
        if value in (">-", ">", "|"):
            indent = len(line) - len(line.lstrip())
            block = []
            for follow in lines[index + 1:]:
                if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                    break
                block.append(follow.strip())
            value = " ".join(part for part in block if part)
        commands += [part.strip() for part in value.split("&&")]
    return commands


def drivers(commands: list) -> list:
    """The CI commands the census runs, as ``(kind, arguments)``:
    ``repro`` (a ``python -m repro`` argv), ``bench`` (the benchmark
    files a pytest step names) and ``e2e`` (``run.py``'s options). Test
    suites, installs and lint are not drivers."""
    found = []
    for command in commands:
        words = shlex.split(command)
        while words and "=" in words[0]:  # leading VAR=value assignments
            words = words[1:]
        if words[:3] == ["python", "-m", "repro"]:
            found.append(("repro", words[3:]))
        elif words[:3] == ["python", "-m", "pytest"]:
            benches = [w for w in words if w.startswith("benchmarks/bench_")]
            if benches:
                found.append(("bench", benches))
        elif len(words) > 1 and words[1] == "benchmarks/e2e/run.py":
            found.append(("e2e", words[2:]))
    return found


def run_drivers(workdir: str) -> list:
    """Run every driver in this process with ``workdir`` as the current
    directory; returns ``(label, ok)`` per driver."""
    import pytest

    from repro.__main__ import main as repro_main

    if REPO not in sys.path:
        sys.path.insert(0, REPO)
    from benchmarks.e2e import workloads as e2e
    from benchmarks.e2e.catalogue import WORKLOADS

    e2e.OUT_DIR = os.path.join(workdir, "e2e-out")  # nothing under benchmarks/e2e/
    runs = []
    for kind, args in drivers(ci_commands()):
        if kind == "repro":
            runs.append((f"python -m repro {' '.join(args)}", lambda a=args: repro_main(a)))
        elif kind == "bench":
            paths = [os.path.join(REPO, a) for a in args]
            runs.append((f"pytest {' '.join(args)}", lambda p=paths: pytest.main(
                p + ["-q", "-p", "no:cacheprovider", "--benchmark-disable"])))
        else:
            runs += [
                (f"e2e {name} {' '.join(args)}",
                 lambda n=name, a=args: _e2e(e2e.run_workload, n, a))
                for name, _ in WORKLOADS
            ]
    for name in sorted(os.listdir(EXAMPLES)):
        if name.endswith(".py"):
            path = os.path.join(EXAMPLES, name)
            runs.append((f"examples/{name}", lambda p=path: _example(p)))
    results = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for label, run in runs:
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    status = run()
            except SystemExit as stop:
                status = stop.code
            except Exception:  # a driver's failure is reported, not fatal
                out.write(traceback.format_exc())
                status = "raised"
            ok = status in (0, None)
            results.append((label, ok))
            print(f"{'ok  ' if ok else 'FAIL'} {label}"
                  + ("" if ok else f" ({status})"), flush=True)
            if not ok:
                for line in out.getvalue().splitlines()[-5:]:
                    print(f"     {line}")
    finally:
        os.chdir(cwd)
    return results


def _example(path: str) -> int:
    runpy.run_path(path, run_name="__main__")
    return 0


def _e2e(run_workload, name: str, args: list) -> int:
    """One end-to-end workload at ``run.py``'s options, as it checks it."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--ops-scale", type=float, default=1.0)
    options = parser.parse_args(args)
    result, _ = run_workload(name, options.seed, options.seconds,
                             bool(options.trace), options.ops_scale,
                             log=lambda _line: None)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "pytest_args",
        nargs="*",
        default=[],
        help="arguments forwarded to pytest (default: the whole suite)",
    )
    parser.add_argument(
        "--fail-under",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero if total coverage is below PCT",
    )
    parser.add_argument(
        "--show-files",
        action="store_true",
        help="print per-file coverage, worst first",
    )
    parser.add_argument(
        "--drivers",
        action="store_true",
        help="run the CI's drivers instead of the tests and list every "
        "function they leave unreached",
    )
    args = parser.parse_args(argv)

    import pytest

    collector = LineCollector()
    failed = []
    if args.drivers:
        with tempfile.TemporaryDirectory(prefix="census-") as workdir:
            collector.install()
            try:
                failed = [label for label, ok in run_drivers(workdir) if not ok]
            finally:
                collector.uninstall()
    else:
        collector.install()
        try:
            exit_code = pytest.main(list(args.pytest_args) + ["-q", "-p", "no:cacheprovider"])
        finally:
            collector.uninstall()
        if exit_code != 0:
            print(f"test run failed (exit {exit_code}); coverage not reported")
            return int(exit_code)

    total_lines = 0
    total_hit = 0
    rows = []
    for path in source_files():
        lines = executable_lines(path)
        hit = collector.hits.get(path, set()) & lines
        total_lines += len(lines)
        total_hit += len(hit)
        if lines:
            rows.append((len(hit) / len(lines), path, len(hit), len(lines)))

    percent = 100.0 * total_hit / total_lines if total_lines else 100.0
    if args.drivers:
        unreached = [
            (os.path.relpath(path, REPO), name, line)
            for path in source_files()
            for name, line in unreached_functions(path, collector.hits.get(path, set()))
        ]
        for rel, name, line in unreached:
            print(f"unreached  {rel}:{line}  {name}")
        print(f"{len(unreached)} functions no driver reached")
    if args.show_files:
        for ratio, path, hit, count in sorted(rows):
            rel = os.path.relpath(path, REPO)
            print(f"{100 * ratio:6.1f}%  {hit:4d}/{count:<4d}  {rel}")
    print(
        f"TOTAL {percent:.1f}% line coverage "
        f"({total_hit}/{total_lines} lines, {len(rows)} files)"
        + (" under the drivers" if args.drivers else "")
    )
    timed = [label for label in failed if label.startswith("pytest ")]
    if timed:
        # A bench's timing bar measures the tracer, not the program.
        print(f"not held under the tracer (timing bars): {', '.join(timed)}")
    failed = [label for label in failed if label not in timed]
    if failed:
        print(f"FAIL: {len(failed)} drivers failed: {', '.join(failed)}")
        return 1
    if args.fail_under is not None and percent < args.fail_under:
        print(f"FAIL: coverage {percent:.1f}% is under the floor {args.fail_under}%")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
