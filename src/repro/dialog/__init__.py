"""The translator-choosing dialog of Section 6.

"The DBA enters in a dialog with the object-definition facility; the
sequence of answers to the system's questions defines the desired
translator for the object at hand."
"""

from repro.dialog.answers import (
    AnswerSource,
    CallableAnswers,
    ConstantAnswers,
    InteractiveAnswers,
    MappingAnswers,
    ScriptedAnswers,
)
from repro.dialog.drivers import (
    choose_translator,
    run_definition_dialog,
    run_replacement_dialog,
)
from repro.dialog.questions import Question
from repro.dialog.transcript import Transcript

__all__ = [
    "Question",
    "Transcript",
    "AnswerSource",
    "ScriptedAnswers",
    "MappingAnswers",
    "ConstantAnswers",
    "CallableAnswers",
    "InteractiveAnswers",
    "choose_translator",
    "run_definition_dialog",
    "run_replacement_dialog",
]
