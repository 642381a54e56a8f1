"""Dialog transcripts, rendered in the paper's format.

The Section 6 transcript shows each system question in typewriter style
followed by the DBA's bold-faced ``<YES>``/``<NO>``; we render one
question per line with the answer appended, which the transcript test
compares against the paper verbatim.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.dialog.questions import Question

__all__ = ["Transcript"]


class Transcript:
    """Ordered record of (question, answer) pairs."""

    def __init__(self) -> None:
        self.entries: List[Tuple[Question, bool]] = []

    def record(self, question: Question, answer: bool) -> None:
        self.entries.append((question, answer))

    def render(self, section: str = None) -> str:
        """One ``question <YES|NO>`` line per entry."""
        lines = []
        for question, answer in self.entries:
            if section is not None and question.section != section:
                continue
            lines.append(f"{question.text} <{'YES' if answer else 'NO'}>")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transcript({len(self.entries)} entries)"
