"""Path utilities over the structural graph.

The view-object model needs paths in two places: the tree builder
"expands all the paths in G emanating from the pivot relation" (Section
3), and Figure 3 notes that an elided intermediate relation turns a
structural connection into "a path of two connections". A
:class:`ConnectionPath` is an ordered list of traversals; the module
enumerates simple paths between relations.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.structural.connections import ConnectionKind, Traversal
from repro.structural.schema_graph import StructuralSchema

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


def simple_paths(
    graph: StructuralSchema,
    start: str,
    end: str,
    max_length: Optional[int] = None,
    kinds: Optional[Iterable[ConnectionKind]] = None,
) -> List[ConnectionPath]:
    """All simple paths (no repeated relation) from ``start`` to ``end``.

    Traverses connections in both directions. ``kinds`` restricts which
    connection kinds may appear; ``max_length`` bounds the hop count.
    """
    graph.relation(start)
    graph.relation(end)
    results: List[ConnectionPath] = []
    kind_set = set(kinds) if kinds is not None else None

    def walk(node: str, visited: Set[str], trail: List[Traversal]) -> None:
        if max_length is not None and len(trail) >= max_length:
            return
        for traversal in graph.traversals_from(node, kinds=kind_set):
            nxt = traversal.end
            if nxt in visited:
                continue
            trail.append(traversal)
            if nxt == end:
                results.append(ConnectionPath(list(trail)))
            else:
                visited.add(nxt)
                walk(nxt, visited, trail)
                visited.discard(nxt)
            trail.pop()

    if start == end:
        return []
    walk(start, {start}, [])
    return results


def shortest_path(
    graph: StructuralSchema,
    start: str,
    end: str,
    kinds: Optional[Iterable[ConnectionKind]] = None,
) -> Optional[ConnectionPath]:
    """A minimum-hop path from ``start`` to ``end``, or ``None``."""
    paths = simple_paths(graph, start, end, kinds=kinds)
    if not paths:
        return None
    return min(paths, key=len)
