"""Scalable synthetic schemas for the benchmark sweeps.

The paper gives no performance numbers, so the added benches need
workloads whose size can be dialed: :func:`chain_schema` builds an
ownership chain of configurable depth (the dependency island's height),
each level with a configurable fan-out, plus an optional referencing
peninsula and a referenced lookup relation at the pivot.

Relation layout for ``depth=3``::

    LOOKUP <-- R0 --* R1 --* R2 --* R3     (ownership chain)
                ^
                |                          (reference)
              PENINSULA

Keys accumulate one attribute per level (``k0``, ``k0,k1``, ...), the
structural-model pattern for owned relations.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Tuple

from repro.core.information_metric import InformationMetric, MetricWeights
from repro.core.view_object import ViewObjectDefinition, define_view_object
from repro.relational.ddl import SchemaBuilder, relation
from repro.relational.engine import Engine
from repro.structural.schema_graph import StructuralSchema

__all__ = [
    "chain_schema",
    "populate_chain",
    "chain_object",
    "random_chain_case",
    "ZipfianWorkload",
]

#: Schema hazards the adversarial generator can graft onto a chain case.
#:
#: ``hidden_attr``    – R0 gains a non-nullable ``secret`` attribute that
#:                      the view projects out: the default null completer
#:                      can never complete a pivot insertion.
#: ``dead_end``       – a DEADEND relation references R0 through a
#:                      non-nullable key attribute, so a NULLIFY repair
#:                      of the reference is impossible by construction.
#: ``shared_peninsula`` – a SHARER relation also references PENINSULA,
#:                      so peninsula tuples are shared with tuples the
#:                      view cannot see.
#: ``circuit``        – an extra R1 -> R0 reference puts a circuit in
#:                      the subgraph the projection tree is built from.
ADVERSARIAL_FEATURES: Tuple[str, ...] = (
    "hidden_attr",
    "dead_end",
    "shared_peninsula",
    "circuit",
)


def _level_name(level: int) -> str:
    return f"R{level}"


def chain_schema(
    depth: int = 3,
    with_peninsula: bool = True,
    with_lookup: bool = True,
    hidden_attr: bool = False,
) -> StructuralSchema:
    """An ownership chain R0 --* R1 --* ... --* R<depth>."""
    graph = StructuralSchema(f"chain{depth}")
    for level in range(depth + 1):
        builder = SchemaBuilder(_level_name(level))
        for key_level in range(level + 1):
            builder.integer(f"k{key_level}")
        builder.text("payload", nullable=True)
        if level == 0 and with_lookup:
            builder.integer("lookup_id")
        if level == 0 and hidden_attr:
            builder.text("secret")
        builder.key(*[f"k{i}" for i in range(level + 1)])
        graph.add_relation(builder.build())
    for level in range(depth):
        parent, child = _level_name(level), _level_name(level + 1)
        keys = [f"k{i}" for i in range(level + 1)]
        graph.ownership(f"own_{level}", parent, child, keys, keys)
    if with_lookup:
        graph.add_relation(
            relation("LOOKUP")
            .integer("lookup_id")
            .text("info", nullable=True)
            .key("lookup_id")
            .build()
        )
        graph.reference(
            "r0_lookup", "R0", "LOOKUP", ["lookup_id"], ["lookup_id"]
        )
    if with_peninsula:
        graph.add_relation(
            relation("PENINSULA")
            .integer("pen_id")
            .integer("k0")
            .text("note", nullable=True)
            .key("pen_id", "k0")
            .build()
        )
        graph.reference("pen_r0", "PENINSULA", "R0", ["k0"], ["k0"])
    return graph


def _add_adversarial(
    graph: StructuralSchema,
    with_peninsula: bool,
    features: Tuple[str, ...],
) -> None:
    """Graft the drawn :data:`ADVERSARIAL_FEATURES` onto a chain graph.

    ``hidden_attr`` is handled by :func:`chain_schema` itself (it alters
    R0's attribute list); everything here adds relations or connections
    around the unchanged chain.
    """
    if "dead_end" in features:
        graph.add_relation(
            relation("DEADEND")
            .integer("d_id")
            .integer("k0")
            .text("why", nullable=True)
            .key("d_id", "k0")
            .build()
        )
        graph.reference("deadend_r0", "DEADEND", "R0", ["k0"], ["k0"])
    if "shared_peninsula" in features and with_peninsula:
        graph.add_relation(
            relation("SHARER")
            .integer("s_id")
            .integer("pen_id", nullable=True)
            .integer("k0", nullable=True)
            .key("s_id")
            .build()
        )
        graph.reference(
            "sharer_pen", "SHARER", "PENINSULA", ["pen_id", "k0"], ["pen_id", "k0"]
        )
    if "circuit" in features:
        graph.reference("circuit_r1", "R1", "R0", ["k0"], ["k0"])


def populate_chain(
    engine: Engine,
    depth: int = 3,
    roots: int = 10,
    fanout: int = 3,
    peninsula_refs: int = 2,
    seed: int = 7,
    adversarial_features: Tuple[str, ...] = (),
) -> Dict[str, int]:
    """Fill a chain database: ``roots`` pivot tuples, ``fanout`` children
    per tuple per level, ``peninsula_refs`` referencing tuples per root."""
    rng = random.Random(seed)
    hidden_attr = "hidden_attr" in adversarial_features
    has_lookup = engine.has_relation("LOOKUP")
    if has_lookup:
        for lookup_id in range(5):
            engine.insert(
                "LOOKUP", {"lookup_id": lookup_id, "info": f"L{lookup_id}"}
            )

    def insert_level(level: int, prefix: Tuple[int, ...]) -> None:
        if level > depth:
            return
        name = _level_name(level)
        mapping = {f"k{i}": v for i, v in enumerate(prefix)}
        mapping["payload"] = f"{name}:{'/'.join(map(str, prefix))}"
        if level == 0 and has_lookup:
            mapping["lookup_id"] = rng.randrange(5)
        if level == 0 and hidden_attr:
            mapping["secret"] = f"s{prefix[0]}"
        engine.insert(name, mapping)
        for child_index in range(fanout):
            insert_level(level + 1, prefix + (child_index,))

    for root in range(roots):
        insert_level(0, (root,))
        if engine.has_relation("PENINSULA"):
            for pen in range(peninsula_refs):
                engine.insert(
                    "PENINSULA",
                    {"pen_id": pen, "k0": root, "note": f"pen{pen}"},
                )
                if engine.has_relation("SHARER"):
                    engine.insert(
                        "SHARER",
                        {"s_id": root * 10 + pen, "pen_id": pen, "k0": root},
                    )
        if engine.has_relation("DEADEND"):
            engine.insert(
                "DEADEND", {"d_id": 0, "k0": root, "why": f"d{root}"}
            )
    return {name: engine.count(name) for name in engine.relation_names()}


def chain_selections(
    depth: int,
    with_peninsula: bool = True,
    with_lookup: bool = True,
) -> Dict[str, List[str]]:
    """The node->attributes selection for the full chain object."""
    selections: Dict[str, List[str]] = {}
    for level in range(depth + 1):
        attrs = [f"k{i}" for i in range(level + 1)] + ["payload"]
        if level == 0 and with_lookup:
            attrs.append("lookup_id")
        selections[_level_name(level)] = attrs
    if with_peninsula:
        selections["PENINSULA"] = ["pen_id", "k0", "note"]
    if with_lookup:
        selections["LOOKUP"] = ["lookup_id", "info"]
    return selections


def random_chain_case(
    engine: Engine, seed: int, adversarial: bool = False
) -> Tuple[StructuralSchema, ViewObjectDefinition, Dict[str, object]]:
    """Install and populate a seeded random member of the chain family.

    Everything varies with ``seed`` — island depth, fan-out, root count,
    whether the peninsula and the lookup relation exist, and the data
    itself — so a property quantified over seeds ranges over many
    *schemas*, not just many databases. Returns the graph, the spanning
    view object, and the drawn parameters.

    With ``adversarial=True`` the case additionally grafts a seeded,
    non-empty subset of :data:`ADVERSARIAL_FEATURES` onto the schema —
    hazards the strategy checker must flag. The adversarial draw uses
    its own generator, so for a given seed the *base* schema and data
    are identical with and without the flag.
    """
    rng = random.Random(seed)
    depth = rng.randint(1, 3)
    fanout = rng.randint(1, 3)
    roots = rng.randint(1, 3)
    with_peninsula = rng.random() < 0.8
    with_lookup = rng.random() < 0.8
    peninsula_refs = rng.randint(0, 2) if with_peninsula else 0
    features: Tuple[str, ...] = ()
    if adversarial:
        arng = random.Random(seed * 6151 + 3)
        drawn = [f for f in ADVERSARIAL_FEATURES if arng.random() < 0.5]
        if "shared_peninsula" in drawn and not with_peninsula:
            drawn.remove("shared_peninsula")
        if not drawn:
            drawn = ["dead_end"]
        features = tuple(drawn)
    graph = chain_schema(
        depth,
        with_peninsula,
        with_lookup,
        hidden_attr="hidden_attr" in features,
    )
    if features:
        _add_adversarial(graph, with_peninsula, features)
    graph.install(engine)
    populate_chain(
        engine,
        depth=depth,
        roots=roots,
        fanout=fanout,
        peninsula_refs=peninsula_refs,
        seed=seed,
        adversarial_features=features,
    )
    view_object = chain_object(graph, depth, with_peninsula, with_lookup)
    params: Dict[str, object] = {
        "depth": depth,
        "fanout": fanout,
        "roots": roots,
        "with_peninsula": int(with_peninsula),
        "with_lookup": int(with_lookup),
        "peninsula_refs": peninsula_refs,
    }
    if adversarial:
        params["adversarial"] = ",".join(features)
    return graph, view_object, params


class ZipfianWorkload:
    """A seeded zipfian rank sampler.

    Key popularity follows a zipf law: rank *r* is drawn with weight
    ``1 / (r + 1) ** SKEW``, so a skew of 0 would be uniform and larger
    values concentrate traffic on the head — the access pattern of a
    service "facing millions of users", where some records are far
    hotter than others. Everything derives from ``seed``: two samplers
    with the same parameters draw identical ranks, which is what lets
    the simulation checker replay a run exactly.
    """

    SKEW = 1.1

    def __init__(self, population: int, seed: int = 7) -> None:
        if population < 1:
            raise ValueError("population must be >= 1")
        self._rng = random.Random(seed)
        weights = [1.0 / (rank + 1) ** self.SKEW for rank in range(population)]
        total = sum(weights)
        cumulative = 0.0
        self._cdf: List[float] = []
        for weight in weights:
            cumulative += weight
            self._cdf.append(cumulative / total)

    def sample_rank(self) -> int:
        """One zipf-distributed rank (0 = hottest key)."""
        return bisect.bisect_left(self._cdf, self._rng.random())


def chain_object(
    graph: StructuralSchema,
    depth: int,
    with_peninsula: bool = True,
    with_lookup: bool = True,
) -> ViewObjectDefinition:
    """The view object spanning the whole chain.

    Its dependency island is the full R0..R<depth> chain, so island size
    scales directly with ``depth`` — the knob the scaling bench sweeps.
    A generous metric threshold keeps deep chains inside the subgraph.
    """
    metric = InformationMetric(
        weights=MetricWeights(hop_decay=0.98), threshold=0.1
    )
    return define_view_object(
        graph,
        f"chain_object_{depth}",
        pivot="R0",
        selections=chain_selections(depth, with_peninsula, with_lookup),
        metric=metric,
    )
