"""Attribute domains for the relational engine.

The structural model (Definition 2.1 of the paper) requires that the two
attribute sets of a connection have "identical number of attributes and
domains". Domains are therefore first-class values here: each attribute of
a relation schema names a :class:`Domain`, and connection validation
compares domains pairwise.

A :class:`Domain` knows how to validate a Python value, how to parse one
from text (for CSV loading), and how to render itself as a SQL type for
the sqlite backend.
"""

from __future__ import annotations

import datetime
from typing import Any, Callable

from repro.errors import DomainError

__all__ = [
    "Domain",
    "INTEGER",
    "REAL",
    "TEXT",
    "BOOLEAN",
    "DATE",
    "domain_by_name",
]


class Domain:
    """A typed value domain for relation attributes.

    Parameters
    ----------
    name:
        Unique name of the domain (``"integer"``, ``"text"``, ...).
    pytypes:
        Tuple of Python types whose instances belong to the domain.
    parse:
        Function turning a string into a domain value (used by CSV I/O).
    sql_type:
        The sqlite column type used by the sqlite backend.
    """

    __slots__ = ("name", "pytypes", "parse", "sql_type", "exact_types")

    def __init__(
        self,
        name: str,
        pytypes: tuple,
        parse: Callable[[str], Any],
        sql_type: str,
    ) -> None:
        self.name = name
        self.pytypes = pytypes
        self.parse = parse
        self.sql_type = sql_type
        # The types every instance of which belongs, read off the type
        # alone: the domain's own, exactly (a subclass — a bool in
        # INTEGER, a datetime in DATE — takes contains()). A domain whose
        # membership needs the value empties it.
        self.exact_types = frozenset(pytypes)

    def contains(self, value: Any) -> bool:
        """Return True if ``value`` belongs to this domain.

        ``None`` never belongs to a domain; nullability is a property of
        the attribute, checked separately by the schema.
        """
        if value is None:
            return False
        if isinstance(value, bool) and bool not in self.pytypes:
            # bool is a subclass of int; keep booleans out of INTEGER.
            return False
        return isinstance(value, self.pytypes)

    def check(self, value: Any, context: str = "") -> Any:
        """Validate ``value``; raise :class:`DomainError` on mismatch."""
        if not self.contains(value):
            where = f" ({context})" if context else ""
            raise DomainError(
                f"value {value!r} is not in domain {self.name!r}{where}"
            )
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Domain({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Domain) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "t", "yes", "y"):
        return True
    if lowered in ("0", "false", "f", "no", "n"):
        return False
    raise DomainError(f"cannot parse boolean from {text!r}")


def _parse_date(text: str) -> datetime.date:
    return datetime.date.fromisoformat(text.strip())


INTEGER = Domain("integer", (int,), int, "INTEGER")
REAL = Domain("real", (float, int), float, "REAL")
TEXT = Domain("text", (str,), str, "TEXT")
BOOLEAN = Domain("boolean", (bool,), _parse_bool, "INTEGER")
DATE = Domain("date", (datetime.date,), _parse_date, "TEXT")

BUILTIN_DOMAINS = {
    d.name: d for d in (INTEGER, REAL, TEXT, BOOLEAN, DATE)
}


def domain_by_name(name: str) -> Domain:
    """Look up a built-in domain by name; raise on unknown names."""
    try:
        return BUILTIN_DOMAINS[name]
    except KeyError:
        raise DomainError(f"unknown domain name: {name!r}") from None
