"""Update translation: the paper's Section 5 algorithms.

The four logical steps of a view-object update — local validation,
propagation within the object, translation into database operations,
global validation against the structural model — live here, along with
the translator policies that the Section 6 dialog configures. The
steps are compiled once per view object
(:class:`~repro.core.updates.compiled.CompiledProgram`; of step 1 the
gates stay in :mod:`~repro.core.updates.local_validation`); the readable
full-instance passes they are checked against are
``tests/reference_translate.py``.
"""

from repro.core.updates.context import TranslationContext
from repro.core.updates.local_validation import (
    validate_deletion,
    validate_insertion,
)
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    PartialDeletion,
    PartialInsertion,
    PartialUpdate,
    Replacement,
    UpdateRequest,
)
from repro.core.updates.partial import (
    translate_partial_deletion,
    translate_partial_insertion,
    translate_partial_update,
)
from repro.core.updates.policy import (
    ReferenceRepair,
    RelationPolicy,
    TranslatorPolicy,
    null_completer,
)
from repro.core.updates.translator import Translator

__all__ = [
    "Translator",
    "TranslatorPolicy",
    "RelationPolicy",
    "ReferenceRepair",
    "null_completer",
    "TranslationContext",
    "UpdateRequest",
    "CompleteInsertion",
    "CompleteDeletion",
    "Replacement",
    "PartialInsertion",
    "PartialDeletion",
    "PartialUpdate",
    "translate_partial_insertion",
    "translate_partial_deletion",
    "translate_partial_update",
    "validate_insertion",
    "validate_deletion",
]
