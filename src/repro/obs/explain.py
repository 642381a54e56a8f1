"""EXPLAIN for update translations.

``explain_query`` already shows how an *object query* would execute;
this module does the same for *updates*: the would-be
:class:`~repro.relational.operations.UpdatePlan` of a translation,
computed without touching the database. The translator runs the real
VO-CI / VO-CD / replacement algorithms over a
:class:`~repro.core.updates.bulk.BufferedEngine` overlay, then the
overlay is discarded — so the explanation is exact (same code path as
execution) yet side-effect free.

A :class:`TranslationExplanation` reports, in the spirit of the paper's
"set of database operations" output:

* the operations with their recorded reasons (which CASE emitted each);
* the relations touched and the operation-kind tally;
* the integrity context consulted — the dependency island and the
  structural connections incident to the touched relations.

A batch's plan is its requests' plans concatenated, in request order —
exactly what the batch would land.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.relational.operations import UpdatePlan

__all__ = ["TranslationExplanation"]


class TranslationExplanation:
    """The would-be plan of one translated update (or batch)."""

    def __init__(
        self,
        object_name: str,
        operation: str,
        plan: UpdatePlan,
        island_relations: Tuple[str, ...],
        graph: Any,
        items: int = 1,
        risk: Any = None,
    ) -> None:
        self.object_name = object_name
        self.operation = operation
        self.plan = plan
        self.island_relations = island_relations
        self._graph = graph
        self.items = items
        # The definition-time RiskReport of the translator that produced
        # this plan (None when the strategy checker never ran).
        self.risk = risk

    # -- the facts tests assert against --------------------------------------

    @property
    def relations_touched(self) -> Tuple[str, ...]:
        return self.plan.relations_touched()

    @property
    def connections(self) -> Tuple[str, ...]:
        """The structural connections incident to a touched relation —
        built when the report is read, not on every translation (the
        sharded write path only wants :attr:`plan`)."""
        touched = set(self.relations_touched)
        return tuple(
            f"{connection.name}: {connection.describe()}"
            for connection in self._graph.connections
            if connection.source in touched or connection.target in touched
        )

    @property
    def op_kinds(self) -> Dict[str, int]:
        """Operation-kind tally of the plan."""
        kinds: Dict[str, int] = {}
        for op in self.plan.operations:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        return kinds

    # -- export --------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "object": self.object_name,
            "operation": self.operation,
            "items": self.items,
            "operations": [
                {"kind": op.kind, "relation": op.relation, "detail": op.describe()}
                for op in self.plan.operations
            ],
            "relations_touched": list(self.relations_touched),
            "op_kinds": self.op_kinds,
            "island_relations": list(self.island_relations),
            "connections": list(self.connections),
            "raw_ops": len(self.plan),
            "risk": None if self.risk is None else self.risk.to_dict(),
        }

    def render(self) -> str:
        """A readable account, styled after ``explain_query``."""
        kinds = self.op_kinds
        tally = (
            ", ".join(f"{kinds[kind]} {kind}" for kind in sorted(kinds))
            or "no operations"
        )
        lines: List[str] = [
            f"update translation on {self.object_name!r} "
            f"({self.operation}, {self.items} item(s)):",
            f"  plan             : {tally} over "
            f"{len(self.relations_touched)} relation(s)",
        ]
        for op, reason in zip(self.plan.operations, self.plan.reasons):
            suffix = f"    -- {reason}" if reason else ""
            lines.append(f"    {op.describe()}{suffix}")
        lines.append(
            "  relations        : " + (", ".join(self.relations_touched) or "none")
        )
        lines.append(
            "  island           : " + (", ".join(self.island_relations) or "none")
        )
        if self.connections:
            lines.append("  integrity rules  :")
            lines.extend(f"    {rule}" for rule in self.connections)
        else:
            lines.append("  integrity rules  : none consulted")
        if self.risk is None:
            lines.append("  strategy risk    : unchecked")
        else:
            lines.append(
                f"  strategy risk    : {self.risk.level.value.upper()} "
                f"({len(self.risk)} finding(s))"
            )
            lines.extend(
                f"    {finding.describe()}" for finding in self.risk.findings
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TranslationExplanation({self.object_name!r}, {self.operation!r}, "
            f"{len(self.plan)} ops)"
        )
