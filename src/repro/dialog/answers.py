"""Answer sources: where the DBA's yes/no answers come from.

The paper's dialog is interactive; for a library we also need scripted
(fixed sequence), mapping (by question id), and constant sources, plus
an interactive one reading from stdin for the example application.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, TextIO

from repro.errors import AnswerError
from repro.dialog.questions import Question

__all__ = [
    "AnswerSource",
    "ScriptedAnswers",
    "MappingAnswers",
    "ConstantAnswers",
    "CallableAnswers",
    "InteractiveAnswers",
]


class AnswerSource:
    """Interface: produce a yes/no answer for each question asked."""

    def answer(self, question: Question) -> bool:
        raise NotImplementedError


class ScriptedAnswers(AnswerSource):
    """A fixed sequence of answers, consumed in dialog order.

    Mirrors the paper's transcript: the DBA's inputs are just a
    sequence of YES/NO. Raises :class:`AnswerError` if the dialog asks
    more questions than the script provides (a sign the script was
    written for a different object or the skipping logic diverged).
    """

    def __init__(self, answers: Iterable[bool]) -> None:
        self._answers: List[bool] = list(answers)
        self._position = 0

    def answer(self, question: Question) -> bool:
        if self._position >= len(self._answers):
            raise AnswerError(
                f"scripted answers exhausted at question {question.qid!r} "
                f"(provided {len(self._answers)})"
            )
        value = self._answers[self._position]
        self._position += 1
        return bool(value)


class MappingAnswers(AnswerSource):
    """Answers by question id, with a default for unlisted questions."""

    def __init__(self, mapping: Dict[str, bool], default: bool = True) -> None:
        self._mapping = dict(mapping)
        self._default = default

    def answer(self, question: Question) -> bool:
        return bool(self._mapping.get(question.qid, self._default))


class ConstantAnswers(AnswerSource):
    """Always the same answer (fully permissive / fully restrictive)."""

    def __init__(self, value: bool) -> None:
        self._value = bool(value)

    def answer(self, question: Question) -> bool:
        return self._value


class CallableAnswers(AnswerSource):
    """Delegate to a callable ``f(question) -> bool``."""

    def __init__(self, function: Callable[[Question], bool]) -> None:
        self._function = function

    def answer(self, question: Question) -> bool:
        return bool(self._function(question))


class InteractiveAnswers(AnswerSource):
    """Prompt a human on a terminal, accepting y/yes/n/no."""

    def __init__(
        self,
        input_stream: Optional[TextIO] = None,
        output_stream: Optional[TextIO] = None,
    ) -> None:
        self._input = input_stream
        self._output = output_stream

    def answer(self, question: Question) -> bool:
        import sys

        out = self._output or sys.stdout
        src = self._input or sys.stdin
        while True:
            out.write(f"{question.text} <YES/NO> ")
            out.flush()
            line = src.readline()
            if not line:
                raise AnswerError("input stream closed mid-dialog")
            lowered = line.strip().lower()
            if lowered in ("y", "yes"):
                return True
            if lowered in ("n", "no"):
                return False
            out.write("Please answer YES or NO.\n")
