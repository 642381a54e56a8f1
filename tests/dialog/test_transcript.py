"""Transcript recording and rendering."""

from repro.dialog.questions import Question
from repro.dialog.transcript import Transcript
from tests.conftest import asked


def test_render_format():
    transcript = Transcript()
    transcript.record(Question("a", "First?", section="s1"), True)
    transcript.record(Question("b", "Second?", section="s2"), False)
    assert transcript.render() == "First? <YES>\nSecond? <NO>"


def test_render_section_filter():
    transcript = Transcript()
    transcript.record(Question("a", "First?", section="s1"), True)
    transcript.record(Question("b", "Second?", section="s2"), False)
    assert transcript.render(section="s2") == "Second? <NO>"


def test_questions_asked():
    transcript = Transcript()
    transcript.record(Question("a", "First?", section="s1"), True)
    transcript.record(Question("b", "Second?", section="s2"), False)
    assert asked(transcript) == ["a", "b"]
    assert asked(transcript, section="s1") == ["a"]


def test_len():
    transcript = Transcript()
    assert len(transcript) == 0
    transcript.record(Question("a", "?"), True)
    assert len(transcript) == 1
