"""Answer sources."""

import io

import pytest

from repro.errors import AnswerError
from repro.dialog.answers import (
    CallableAnswers,
    ConstantAnswers,
    InteractiveAnswers,
    MappingAnswers,
    ScriptedAnswers,
)
from repro.dialog.questions import Question

Q = Question("x.y", "A question?")


def test_scripted_in_order():
    source = ScriptedAnswers([True, False, True])
    assert source.answer(Q) is True
    assert source.answer(Q) is False
    assert source.answer(Q) is True


def test_scripted_exhaustion():
    source = ScriptedAnswers([True])
    source.answer(Q)
    with pytest.raises(AnswerError, match="exhausted"):
        source.answer(Q)


def test_mapping_with_default():
    source = MappingAnswers({"x.y": False}, default=True)
    assert source.answer(Q) is False
    assert source.answer(Question("other", "?")) is True


def test_constant():
    assert ConstantAnswers(True).answer(Q) is True
    assert ConstantAnswers(False).answer(Q) is False


def test_callable():
    source = CallableAnswers(lambda q: q.qid.startswith("x"))
    assert source.answer(Q) is True
    assert source.answer(Question("z", "?")) is False


class TestInteractive:
    def test_yes_variants(self):
        source = InteractiveAnswers(io.StringIO("y\n"), io.StringIO())
        assert source.answer(Q) is True

    def test_no_variants(self):
        source = InteractiveAnswers(io.StringIO("NO\n"), io.StringIO())
        assert source.answer(Q) is False

    def test_reprompts_on_garbage(self):
        out = io.StringIO()
        source = InteractiveAnswers(io.StringIO("maybe\nyes\n"), out)
        assert source.answer(Q) is True
        assert "Please answer YES or NO" in out.getvalue()

    def test_eof_raises(self):
        source = InteractiveAnswers(io.StringIO(""), io.StringIO())
        with pytest.raises(AnswerError):
            source.answer(Q)

    def test_prompt_contains_question(self):
        out = io.StringIO()
        InteractiveAnswers(io.StringIO("y\n"), out).answer(Q)
        assert "A question?" in out.getvalue()
