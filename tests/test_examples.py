"""Every script under ``examples/`` runs to completion.

The examples are the library's first callers a reader meets, so each
one is run as a reader would run it — a fresh interpreter with
``PYTHONPATH=src`` — from a temporary working directory (which is also
where an example's own temporary files go), and must exit 0.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        PYTHONHASHSEED="0",
        TMPDIR=str(tmp_path),
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
