"""Dialog drivers: turning DBA answers into a translator policy.

"The algorithms that drive the dialogs for choosing a translator follow
closely the actual translation algorithms of Section 5." Concretely:

* the **replacement** dialog walks the object's tree depth-first (the
  same order VO-R walks it); island nodes get the three key-replacement
  questions, other nodes the three modification questions — asked once
  per relation, and follow-up questions are skipped when their gate
  question was answered no (footnote 5 of the paper);
* the **deletion** dialog asks, for every relation referencing an
  island relation (the peninsulas first), how the dangling references
  should be repaired;
* the **insertion** dialog shares the modification questions with the
  replacement dialog — the paper phrases them as "during insertions (or
  replacements)" — so it only contributes its opening gate question.

Running all three yields the complete
:class:`~repro.core.updates.policy.TranslatorPolicy` for the object.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.core.dependency_island import IslandAnalysis, analyze_island
from repro.core.updates.policy import (
    ReferenceRepair,
    RelationPolicy,
    TranslatorPolicy,
)
from repro.core.updates.translator import Translator
from repro.core.view_object import ViewObjectDefinition
from repro.dialog import questions as q
from repro.dialog.answers import AnswerSource
from repro.dialog.transcript import Transcript
from repro.structural.connections import ConnectionKind

__all__ = [
    "run_replacement_dialog",
    "run_definition_dialog",
    "choose_translator",
]


def _ask(
    source: AnswerSource, transcript: Transcript, question: q.Question
) -> bool:
    answer = source.answer(question)
    transcript.record(question, answer)
    return answer


def run_replacement_dialog(
    view_object: ViewObjectDefinition,
    source: AnswerSource,
    policy: TranslatorPolicy,
    transcript: Transcript,
    analysis: Optional[IslandAnalysis] = None,
) -> None:
    """The Section 6 dialog portion dealing with replacement."""
    analysis = analysis or analyze_island(view_object)
    policy.allow_replacement = _ask(
        source, transcript, q.allow_replacement()
    )
    if not policy.allow_replacement:
        return
    asked: Set[str] = set()
    for node in view_object.tree.dfs():
        relation = node.relation
        if relation in asked:
            continue
        asked.add(relation)
        relation_policy = policy.for_relation(relation)
        if analysis.is_island(node.node_id):
            _island_questions(source, transcript, relation, relation_policy)
        else:
            _modification_questions(
                source, transcript, relation, relation_policy
            )


def _island_questions(
    source: AnswerSource,
    transcript: Transcript,
    relation: str,
    relation_policy: RelationPolicy,
) -> None:
    relation_policy.allow_key_replacement = _ask(
        source, transcript, q.island_key_modifiable(relation)
    )
    if not relation_policy.allow_key_replacement:
        relation_policy.allow_db_key_replacement = False
        relation_policy.allow_merge_on_key_conflict = False
        return
    relation_policy.allow_db_key_replacement = _ask(
        source, transcript, q.island_db_key_replace(relation)
    )
    if not relation_policy.allow_db_key_replacement:
        relation_policy.allow_merge_on_key_conflict = False
        return
    relation_policy.allow_merge_on_key_conflict = _ask(
        source, transcript, q.island_merge_on_conflict(relation)
    )


def _modification_questions(
    source: AnswerSource,
    transcript: Transcript,
    relation: str,
    relation_policy: RelationPolicy,
) -> None:
    relation_policy.can_modify = _ask(
        source, transcript, q.relation_modifiable(relation)
    )
    if not relation_policy.can_modify:
        # Footnote 5: the two subsequent questions are irrelevant and
        # thus will not be asked.
        relation_policy.can_insert = False
        relation_policy.can_replace_existing = False
        return
    relation_policy.can_insert = _ask(
        source, transcript, q.relation_insertable(relation)
    )
    relation_policy.can_replace_existing = _ask(
        source, transcript, q.relation_replaceable(relation)
    )


def run_insertion_dialog(
    view_object: ViewObjectDefinition,
    source: AnswerSource,
    policy: TranslatorPolicy,
    transcript: Transcript,
    analysis: Optional[IslandAnalysis] = None,
) -> None:
    """Insertion gate; per-relation switches are shared with replacement."""
    policy.allow_insertion = _ask(source, transcript, q.allow_insertion())


def run_deletion_dialog(
    view_object: ViewObjectDefinition,
    source: AnswerSource,
    policy: TranslatorPolicy,
    transcript: Transcript,
    analysis: Optional[IslandAnalysis] = None,
) -> None:
    """Deletion gate plus reference-repair choices.

    Every relation referencing an island relation in the *database
    schema* is covered — the DBA "can address issues of global
    integrity maintenance over the entire database" — which includes the
    peninsulas inside the object and any outside referencing relation.
    """
    analysis = analysis or analyze_island(view_object)
    policy.allow_deletion = _ask(source, transcript, q.allow_deletion())
    if not policy.allow_deletion:
        return
    graph = view_object.graph
    covered: Set[Tuple[str, str]] = set()
    for relation in analysis.island_relations:
        for connection in graph.connections_to(
            relation, ConnectionKind.REFERENCE
        ):
            pair = (connection.source, relation)
            if pair in covered:
                continue
            covered.add(pair)
            relation_policy = policy.for_relation(connection.source)
            can_delete = _ask(
                source,
                transcript,
                q.deletion_repair_delete(connection.source, relation),
            )
            if can_delete:
                relation_policy.on_reference_delete = ReferenceRepair.DELETE
                continue
            schema = graph.relation(connection.source)
            nullable = all(
                schema.attribute(a).nullable
                and not schema.is_key_attribute(a)
                for a in connection.source_attributes
            )
            if nullable:
                can_nullify = _ask(
                    source,
                    transcript,
                    q.deletion_repair_nullify(connection.source, relation),
                )
                relation_policy.on_reference_delete = (
                    ReferenceRepair.NULLIFY
                    if can_nullify
                    else ReferenceRepair.PROHIBIT
                )
            else:
                relation_policy.on_reference_delete = ReferenceRepair.PROHIBIT


def run_definition_dialog(
    view_object: ViewObjectDefinition,
    source: AnswerSource,
) -> Tuple[TranslatorPolicy, Transcript]:
    """The full definition-time dialog: insertion, deletion, replacement."""
    policy = TranslatorPolicy()
    transcript = Transcript()
    analysis = analyze_island(view_object)
    run_insertion_dialog(view_object, source, policy, transcript, analysis)
    run_deletion_dialog(view_object, source, policy, transcript, analysis)
    run_replacement_dialog(view_object, source, policy, transcript, analysis)
    return policy, transcript


def choose_translator(
    view_object: ViewObjectDefinition,
    source: AnswerSource,
    strictness: Optional[str] = None,
) -> Tuple[Translator, Transcript]:
    """Run the dialog and return the configured translator.

    "The effort of answering the series of questions once during
    view-definition time is amortized over all the times that updates
    against the view are subsequently requested."
    """
    policy, transcript = run_definition_dialog(view_object, source)
    translator = Translator(
        view_object,
        policy=policy,
        strictness=strictness,
    )
    return translator, transcript
