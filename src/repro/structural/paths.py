"""Path utilities over the structural graph.

The view-object model needs paths in two places: the tree builder
"expands all the paths in G emanating from the pivot relation" (Section
3), and Figure 3 notes that an elided intermediate relation turns a
structural connection into "a path of two connections". A
:class:`ConnectionPath` is an ordered list of traversals.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from repro.structural.connections import ConnectionKind, Traversal

__all__ = ["ConnectionPath"]


class ConnectionPath:
    """An ordered sequence of traversals forming a path of relations."""

    __slots__ = ("traversals",)

    def __init__(self, traversals: Sequence[Traversal]) -> None:
        traversals = tuple(traversals)
        for earlier, later in zip(traversals, traversals[1:]):
            if earlier.end != later.start:
                raise ValueError(
                    f"traversals do not chain: {earlier.describe()} then "
                    f"{later.describe()}"
                )
        self.traversals = traversals

    @property
    def start(self) -> str:
        return self.traversals[0].start

    @property
    def end(self) -> str:
        return self.traversals[-1].end

    @property
    def relations(self) -> Tuple[str, ...]:
        """All relations on the path, start to end."""
        names = [self.traversals[0].start]
        names.extend(t.end for t in self.traversals)
        return tuple(names)

    def __len__(self) -> int:
        return len(self.traversals)

    def __iter__(self) -> Iterator[Traversal]:
        return iter(self.traversals)

    def describe(self) -> str:
        parts = [self.start]
        for traversal in self.traversals:
            symbol = traversal.kind.symbol if traversal.forward else {
                ConnectionKind.OWNERSHIP: "*--",
                ConnectionKind.REFERENCE: "<--",
                ConnectionKind.SUBSET: "o<==",
            }[traversal.kind]
            parts.append(symbol)
            parts.append(traversal.end)
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConnectionPath({self.describe()})"
