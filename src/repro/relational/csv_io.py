"""CSV import/export for relations.

Bulk-loading workload data and dumping relation state for inspection.
The header row must name the schema's attributes (any order); values are
parsed through each attribute's domain. Empty cells load as null for
nullable attributes.
"""

from __future__ import annotations

import csv
import io
from typing import TextIO

from repro.errors import SchemaError
from repro.relational.engine import Engine


def load_csv(engine: Engine, relation: str, stream: TextIO) -> int:
    """Load rows from ``stream`` into ``relation``; return the row count."""
    schema = engine.schema(relation)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        return 0
    for name in header:
        if not schema.has_attribute(name):
            raise SchemaError(
                f"CSV header names unknown attribute {name!r} "
                f"of relation {relation!r}"
            )
    count = 0
    for line_no, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != len(header):
            raise SchemaError(
                f"CSV line {line_no}: expected {len(header)} cells, "
                f"got {len(cells)}"
            )
        mapping = {}
        for name, cell in zip(header, cells):
            attribute = schema.attribute(name)
            if cell == "":
                mapping[name] = None
            else:
                mapping[name] = attribute.domain.parse(cell)
        engine.insert(relation, mapping)
        count += 1
    return count


def loads_csv(engine: Engine, relation: str, text: str) -> int:
    """Load rows from a CSV string."""
    return load_csv(engine, relation, io.StringIO(text))


def dump_csv(engine: Engine, relation: str, stream: TextIO) -> int:
    """Write all rows of ``relation`` to ``stream``; return the row count."""
    schema = engine.schema(relation)
    writer = csv.writer(stream)
    writer.writerow(schema.attribute_names)
    count = 0
    for values in engine.scan(relation):
        writer.writerow(["" if v is None else v for v in values])
        count += 1
    return count


def dumps_csv(engine: Engine, relation: str) -> str:
    """Render all rows of ``relation`` as a CSV string."""
    buffer = io.StringIO()
    dump_csv(engine, relation, buffer)
    return buffer.getvalue()
