"""Risk levels and reports for the definition-time strategy checker.

The Section 6 dialog fixes the translator once, at view-definition
time; nothing in the paper verifies that the recorded answers yield a
*well-behaved* translator. The static checker
(:mod:`repro.strategy.checks`) classifies each configuration with a
five-step risk ladder — SAFE / LOW / MEDIUM / HIGH / CRITICAL — and
each individual observation is a :class:`Finding` carried by a
:class:`RiskReport`.

Reports are fully deterministic: findings sort by (severity desc,
code, relation, connection, message), ``render()`` emits no
timestamps, and two reports computed from the same answers are
byte-identical — the property the dialog-layer tests pin down.
"""

from __future__ import annotations

import enum
import functools
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["RiskLevel", "Finding", "RiskReport", "StrategyWarning"]


class StrategyWarning(UserWarning):
    """Emitted when a translator is built under ``strictness="warn"``
    and the static checker classifies the configuration CRITICAL."""


@functools.total_ordering
class RiskLevel(enum.Enum):
    """How much a translator configuration can be trusted.

    * SAFE — every enabled operation class translates deterministically.
    * LOW — ambiguity resolved by a documented default (AUTO repairs,
      unreachable switch combinations).
    * MEDIUM — some updates reject depending on the data (partial
      translator); semantics are sound but coverage is not total.
    * HIGH — the answers contradict each other or a translation has
      side effects beyond the updated instance; manual review required.
    * CRITICAL — an enabled operation class or repair rule can *never*
      be satisfied; ``strictness="refuse"`` rejects the configuration
      at definition time.
    """

    SAFE = "safe"
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    CRITICAL = "critical"

    @property
    def rank(self) -> int:
        return _RANKS[self]

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, RiskLevel):
            return NotImplemented
        return self.rank < other.rank


_RANKS = {
    RiskLevel.SAFE: 0,
    RiskLevel.LOW: 1,
    RiskLevel.MEDIUM: 2,
    RiskLevel.HIGH: 3,
    RiskLevel.CRITICAL: 4,
}


class Finding:
    """One observation of the static checker.

    ``code`` is a stable dotted identifier (``"deletion.nullify-
    impossible"``); tests and the CLI key off it, the message is for
    humans.
    """

    __slots__ = ("level", "code", "message", "relation", "connection")

    def __init__(
        self,
        level: RiskLevel,
        code: str,
        message: str,
        relation: Optional[str] = None,
        connection: Optional[str] = None,
    ) -> None:
        self.level = level
        self.code = code
        self.message = message
        self.relation = relation
        self.connection = connection

    @property
    def sort_key(self) -> Tuple[Any, ...]:
        return (
            -self.level.rank,
            self.code,
            self.relation or "",
            self.connection or "",
            self.message,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "level": self.level.value,
            "code": self.code,
            "message": self.message,
            "relation": self.relation,
            "connection": self.connection,
        }

    def describe(self) -> str:
        where = f" @ {self.relation}" if self.relation else ""
        return f"[{self.level.value.upper()}] {self.code}{where}: {self.message}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Finding):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash((self.level, self.code, self.relation, self.connection))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Finding({self.level.value!r}, {self.code!r}, {self.relation!r})"


class RiskReport:
    """The checker's verdict on one translator configuration."""

    __slots__ = ("object_name", "findings")

    def __init__(
        self, object_name: str, findings: Sequence[Finding] = ()
    ) -> None:
        self.object_name = object_name
        self.findings: Tuple[Finding, ...] = tuple(
            sorted(findings, key=lambda f: f.sort_key)
        )

    @property
    def level(self) -> RiskLevel:
        """The highest severity among the findings (SAFE when empty)."""
        if not self.findings:
            return RiskLevel.SAFE
        return max(f.level for f in self.findings)

    @property
    def is_critical(self) -> bool:
        return self.level is RiskLevel.CRITICAL

    def at_least(self, level: RiskLevel) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.level >= level)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "object": self.object_name,
            "level": self.level.value,
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        """A deterministic, human-readable account."""
        lines: List[str] = [
            f"risk report for {self.object_name!r}: "
            f"{self.level.value.upper()} ({len(self.findings)} finding(s))"
        ]
        lines.extend(f"  {finding.describe()}" for finding in self.findings)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RiskReport({self.object_name!r}, {self.level.value!r}, "
            f"{len(self.findings)} findings)"
        )
