"""A CAD assembly database.

The view-object prototype (PENGUIN) was first applied to
"complex objects for relational databases" in a computer-aided-design
setting [Barsalou & Wiederhold, CAD 22(8), 1990]. This workload models
mechanical assemblies:

* ``ASSEMBLY --* COMPONENT`` (ownership): the bill of materials;
* ``COMPONENT --> PART`` (reference): each component names a part;
* ``PART --> MATERIAL`` (reference);
* ``PART --> SUPPLIER`` (nullable reference);
* ``ASSEMBLY ==>o RELEASED_ASSEMBLY`` (subset): released assemblies
  carry extra sign-off attributes — this exercises the subset
  connection inside a dependency island.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.core.view_object import ViewObjectDefinition, define_view_object
from repro.relational.ddl import relation
from repro.relational.engine import Engine
from repro.structural.schema_graph import StructuralSchema

__all__ = [
    "cad_schema",
    "populate_cad",
    "assembly_object",
]

_MATERIALS = [
    ("steel", 7.85), ("aluminum", 2.70), ("titanium", 4.51),
    ("abs", 1.07), ("copper", 8.96),
]
_SUPPLIERS = ["Acme", "Globex", "Initech", "Umbrella"]
_PART_NAMES = [
    "bracket", "shaft", "gear", "housing", "bearing", "flange", "bolt",
    "spring", "plate", "coupling",
]


def cad_schema() -> StructuralSchema:
    """Build the CAD structural schema."""
    graph = StructuralSchema("cad")
    graph.add_relation(
        relation("MATERIAL")
        .text("material_name")
        .real("density", nullable=True)
        .key("material_name")
        .build()
    )
    graph.add_relation(
        relation("SUPPLIER")
        .text("supplier_id")
        .text("city", nullable=True)
        .key("supplier_id")
        .build()
    )
    graph.add_relation(
        relation("PART")
        .text("part_id")
        .text("name", nullable=True)
        .text("material_name")
        .text("supplier_id", nullable=True)
        .real("mass_kg", nullable=True)
        .key("part_id")
        .build()
    )
    graph.add_relation(
        relation("ASSEMBLY")
        .text("asm_id")
        .text("name", nullable=True)
        .text("project", nullable=True)
        .key("asm_id")
        .build()
    )
    graph.add_relation(
        relation("RELEASED_ASSEMBLY")
        .text("asm_id")
        .text("release_date")
        .text("approved_by", nullable=True)
        .key("asm_id")
        .build()
    )
    graph.add_relation(
        relation("COMPONENT")
        .text("asm_id")
        .integer("position")
        .text("part_id")
        .integer("quantity")
        .key("asm_id", "position")
        .build()
    )

    graph.ownership(
        "assembly_components", "ASSEMBLY", "COMPONENT",
        ["asm_id"], ["asm_id"],
    )
    graph.subset(
        "assembly_released", "ASSEMBLY", "RELEASED_ASSEMBLY",
        ["asm_id"], ["asm_id"],
    )
    graph.reference(
        "component_part", "COMPONENT", "PART", ["part_id"], ["part_id"]
    )
    graph.reference(
        "part_material", "PART", "MATERIAL",
        ["material_name"], ["material_name"],
    )
    graph.reference(
        "part_supplier", "PART", "SUPPLIER",
        ["supplier_id"], ["supplier_id"],
    )
    return graph


#: The generator's sizing.
ASSEMBLIES = 12
PARTS = 30
COMPONENTS_PER_ASSEMBLY = 6
RELEASED_FRACTION = 0.5
SEED = 2290


def populate_cad(engine: Engine) -> Dict[str, int]:
    """Deterministically fill an installed CAD database."""
    rng = random.Random(SEED)

    for material_name, density in _MATERIALS:
        engine.insert(
            "MATERIAL", {"material_name": material_name, "density": density}
        )
    for supplier in _SUPPLIERS:
        engine.insert(
            "SUPPLIER", {"supplier_id": supplier, "city": "Palo Alto"}
        )
    part_ids = []
    for index in range(PARTS):
        part_id = f"P-{index:03d}"
        engine.insert(
            "PART",
            {
                "part_id": part_id,
                "name": rng.choice(_PART_NAMES),
                "material_name": rng.choice(_MATERIALS)[0],
                "supplier_id": rng.choice(_SUPPLIERS + [None]),
                "mass_kg": round(rng.uniform(0.01, 25.0), 3),
            },
        )
        part_ids.append(part_id)

    for index in range(ASSEMBLIES):
        asm_id = f"ASM-{index:03d}"
        engine.insert(
            "ASSEMBLY",
            {
                "asm_id": asm_id,
                "name": f"{rng.choice(_PART_NAMES)} assembly",
                "project": rng.choice(["orion", "vega", "lyra"]),
            },
        )
        if rng.random() < RELEASED_FRACTION:
            engine.insert(
                "RELEASED_ASSEMBLY",
                {
                    "asm_id": asm_id,
                    "release_date": f"1990-{rng.randint(1, 12):02d}-01",
                    "approved_by": "QA",
                },
            )
        for position in range(1, COMPONENTS_PER_ASSEMBLY + 1):
            engine.insert(
                "COMPONENT",
                {
                    "asm_id": asm_id,
                    "position": position,
                    "part_id": rng.choice(part_ids),
                    "quantity": rng.randint(1, 8),
                },
            )
    return {
        name: engine.count(name)
        for name in (
            "MATERIAL",
            "SUPPLIER",
            "PART",
            "ASSEMBLY",
            "RELEASED_ASSEMBLY",
            "COMPONENT",
        )
    }


def assembly_object(graph: StructuralSchema) -> ViewObjectDefinition:
    """The bill-of-materials view object.

    D_ω = {ASSEMBLY, COMPONENT, RELEASED_ASSEMBLY} (ownership + subset);
    PART and MATERIAL are referenced relations outside the island.
    """
    return define_view_object(
        graph,
        "assembly_bom",
        pivot="ASSEMBLY",
        selections={
            "ASSEMBLY": ("asm_id", "name", "project"),
            "RELEASED_ASSEMBLY": ("asm_id", "release_date", "approved_by"),
            "COMPONENT": ("asm_id", "position", "part_id", "quantity"),
            "PART": ("part_id", "name", "material_name", "mass_kg"),
            "MATERIAL": ("material_name", "density"),
        },
    )
