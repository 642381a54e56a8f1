"""Every script under ``examples/`` runs to completion, and prints the
same bytes whatever the interpreter's hash seed.

The examples are the library's first callers a reader meets, so each
one is run as a reader would run it — a fresh interpreter with
``PYTHONPATH=src`` — from a temporary working directory (which is also
where an example's own temporary files go), and must exit 0. Each runs
under two hash seeds, as does ``python -m repro demo``: siblings come in
primary-key order on every engine (``Engine.find_by``), so nothing a
reader sees may depend on how Python happens to hash a string.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def run(arguments, tmp_path, seed):
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        PYTHONHASHSEED=str(seed),
        TMPDIR=str(tmp_path),
    )
    done = subprocess.run(
        [sys.executable, *arguments],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def assert_hash_seed_independent(arguments, tmp_path):
    first, second = (run(arguments, tmp_path, seed) for seed in (0, 1))
    assert first == second


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    assert_hash_seed_independent([str(script)], tmp_path)


def test_demo_is_hash_seed_independent(tmp_path):
    assert_hash_seed_independent(["-m", "repro", "demo"], tmp_path)
