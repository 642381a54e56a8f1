"""Run every update-translation test against BOTH the compiled program
and its oracle.

``src/`` has one translator, the compiled program; the readable tree
walk it replaced is ``tests/reference_translate.py``. Sweeping the whole
directory across the two turns each semantic test into its own small
equivalence check — anything the program gets wrong fails the same test
that pins the walk's behaviour. For the ``reference`` parameter
:func:`tests.reference_translate.install` patches the walk over
``CompiledProgram.run_*`` / ``maintain_*`` and the partial operations.
Tests that compare the two themselves carry the ``compares_translators``
mark: the sweep leaves them alone and they enter
:func:`tests.reference_translate.installed` for their reference half.

The reference parameter keeps the test id ``interpreted`` it has had
since the walk lived in ``src/``, so test ids stay comparable across
commits.
"""

import pytest

from tests import reference_translate


@pytest.fixture(
    autouse=True,
    params=["compiled", pytest.param("reference", id="interpreted")],
)
def translation_mode(request, monkeypatch):
    if request.param == "reference" and not request.node.get_closest_marker(
        "compares_translators"
    ):
        reference_translate.install(monkeypatch)
    return request.param
