"""Relation schemas: attributes, keys, and row validation.

A :class:`RelationSchema` is the catalog entry for one base relation. It
fixes the ordered list of attributes, the primary key ``K(R)``, and hence
the nonkey attributes ``NK(R)`` — the two sets the structural model's
connection definitions are phrased in terms of (Section 2 of the paper).
"""

from __future__ import annotations

from operator import contains, itemgetter
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import SchemaError, UnknownAttributeError
from repro.relational.domains import Domain

__all__ = ["Attribute", "RelationSchema", "tuple_getter"]


def tuple_getter(positions: Sequence[Any]) -> Callable[[Any], Tuple[Any, ...]]:
    """A callable projecting a value tuple onto ``positions`` (or a
    mapping onto those keys).

    The definition-time form of :meth:`RelationSchema.project`: plans
    resolve names to positions once and keep the getter. Always returns
    a tuple (``itemgetter`` alone yields a scalar for one position).
    """
    if len(positions) == 1:
        (position,) = positions
        return lambda values: (values[position],)
    return itemgetter(*positions)


class Attribute:
    """One attribute of a relation: a name, a domain, and nullability."""

    __slots__ = ("name", "domain", "nullable")

    def __init__(self, name: str, domain: Domain, nullable: bool = False) -> None:
        if not name or not isinstance(name, str):
            raise SchemaError(f"attribute name must be a nonempty string, got {name!r}")
        self.name = name
        self.domain = domain
        self.nullable = nullable

    def accepts(self, value: Any) -> bool:
        """Return True if ``value`` is legal for this attribute."""
        if value is None:
            return self.nullable
        return self.domain.contains(value)

    def __repr__(self) -> str:
        null = ", nullable" if self.nullable else ""
        return f"Attribute({self.name!r}, {self.domain.name}{null})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Attribute)
            and other.name == self.name
            and other.domain == self.domain
            and other.nullable == self.nullable
        )

    def __hash__(self) -> int:
        return hash((self.name, self.domain, self.nullable))


class RelationSchema:
    """Schema of one relation: ordered attributes plus a primary key.

    Parameters
    ----------
    name:
        Relation name, unique within a database.
    attributes:
        Ordered sequence of :class:`Attribute`.
    key:
        Names of the key attributes ``K(R)``. Key attributes are
        implicitly non-nullable.

    Examples
    --------
    >>> from repro.relational.domains import TEXT, INTEGER
    >>> courses = RelationSchema(
    ...     "COURSES",
    ...     [Attribute("course_id", TEXT), Attribute("title", TEXT),
    ...      Attribute("units", INTEGER), Attribute("dept_name", TEXT)],
    ...     key=("course_id",),
    ... )
    >>> courses.key
    ('course_id',)
    >>> courses.nonkey_names
    ('title', 'units', 'dept_name')
    """

    __slots__ = (
        "name",
        "attributes",
        "key",
        "_by_name",
        "_positions",
        "_accepted",
        "key_of",
    )

    def __init__(
        self,
        name: str,
        attributes: Sequence[Attribute],
        key: Sequence[str],
    ) -> None:
        if not name or not isinstance(name, str):
            raise SchemaError(f"relation name must be a nonempty string, got {name!r}")
        attributes = tuple(attributes)
        if not attributes:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        by_name: Dict[str, Attribute] = {}
        for attr in attributes:
            if attr.name in by_name:
                raise SchemaError(
                    f"relation {name!r} declares attribute {attr.name!r} twice"
                )
            by_name[attr.name] = attr
        key = tuple(key)
        if not key:
            raise SchemaError(f"relation {name!r} must declare a primary key")
        seen = set()
        for attr_name in key:
            if attr_name not in by_name:
                raise SchemaError(
                    f"relation {name!r}: key attribute {attr_name!r} is not declared"
                )
            if attr_name in seen:
                raise SchemaError(
                    f"relation {name!r}: key lists attribute {attr_name!r} twice"
                )
            seen.add(attr_name)

        # Key attributes may never be null: rebuild them non-nullable.
        normalized = tuple(
            Attribute(a.name, a.domain, nullable=False) if a.name in seen else a
            for a in attributes
        )

        self.name = name
        self.attributes = normalized
        self.key = key
        self._by_name = {a.name: a for a in normalized}
        self._positions = {a.name: i for i, a in enumerate(normalized)}
        #: ``key_of(values)``: the primary-key tuple of a full value tuple.
        self.key_of = tuple_getter(tuple(self._positions[k] for k in key))
        # Per attribute, the exact value types validate_row accepts on
        # their type alone; NoneType where the attribute is nullable.
        self._accepted = tuple(
            a.domain.exact_types | ({type(None)} if a.nullable else set())
            for a in normalized
        )

    # -- lookups ----------------------------------------------------------

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        """All attribute names, in declaration order."""
        return tuple(a.name for a in self.attributes)

    @property
    def nonkey_names(self) -> Tuple[str, ...]:
        """``NK(R)``: the nonkey attribute names, in declaration order."""
        key_set = set(self.key)
        return tuple(a.name for a in self.attributes if a.name not in key_set)

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name`` or raise."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAttributeError(self.name, name) from None

    def has_attribute(self, name: str) -> bool:
        return name in self._by_name

    def position(self, name: str) -> int:
        """Column index of ``name`` in the stored value tuple."""
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownAttributeError(self.name, name) from None

    def positions(self, names: Iterable[str]) -> Tuple[int, ...]:
        return tuple(self.position(n) for n in names)

    def is_key_attribute(self, name: str) -> bool:
        if name not in self._by_name:
            raise UnknownAttributeError(self.name, name)
        return name in self.key

    def domains_of(self, names: Sequence[str]) -> Tuple[Domain, ...]:
        """Domains of the listed attributes, in the given order."""
        return tuple(self.attribute(n).domain for n in names)

    # -- row construction and validation ----------------------------------

    def row_from_mapping(self, mapping: Mapping[str, Any]) -> Tuple[Any, ...]:
        """Build a value tuple from an attribute-name mapping.

        Missing nullable attributes default to ``None``; missing
        non-nullable attributes raise :class:`SchemaError`. Unknown
        names raise :class:`UnknownAttributeError`.
        """
        for given in mapping:
            if given not in self._by_name:
                raise UnknownAttributeError(self.name, given)
        values = []
        for attr in self.attributes:
            if attr.name in mapping:
                values.append(mapping[attr.name])
            elif attr.nullable:
                values.append(None)
            else:
                raise SchemaError(
                    f"relation {self.name!r}: missing value for non-nullable "
                    f"attribute {attr.name!r}"
                )
        row = tuple(values)
        self.validate_row(row)
        return row

    def validate_row(self, values: Sequence[Any]) -> Tuple[Any, ...]:
        """Check arity, nullability, and domains; return the tuple.

        A row whose every value has a type its attribute accepts outright
        costs one set lookup per value; any other row (a bool in INTEGER,
        a datetime in DATE, a domain with a predicate, a null where none
        is allowed) takes :meth:`Attribute.accepts` value by value and
        raises what it always raised.
        """
        if len(values) != len(self.attributes):
            raise SchemaError(
                f"relation {self.name!r} expects {len(self.attributes)} values, "
                f"got {len(values)}"
            )
        if not all(map(contains, self._accepted, map(type, values))):
            for attr, value in zip(self.attributes, values):
                if not attr.accepts(value):
                    if value is None:
                        raise SchemaError(
                            f"relation {self.name!r}: attribute {attr.name!r} "
                            f"is not nullable"
                        )
                    attr.domain.check(value, context=f"{self.name}.{attr.name}")
        return tuple(values)

    def project(self, values: Sequence[Any], names: Sequence[str]) -> Tuple[Any, ...]:
        """Project a value tuple onto the listed attribute names."""
        return tuple(values[self.position(n)] for n in names)

    def as_mapping(self, values: Sequence[Any]) -> Dict[str, Any]:
        """Render a value tuple as an attribute-name dictionary."""
        return {a.name: v for a, v in zip(self.attributes, values)}

    # -- derived schemas ---------------------------------------------------

    def restricted_to(
        self, names: Sequence[str], new_name: Optional[str] = None
    ) -> "RelationSchema":
        """A schema containing only the listed attributes.

        The key of the restricted schema is the original key if it is
        fully contained in ``names``; otherwise all retained attributes
        form the key (projection may not preserve key uniqueness).
        """
        retained = [self.attribute(n) for n in names]
        if set(self.key) <= set(names):
            new_key: Sequence[str] = self.key
        else:
            new_key = tuple(names)
        return RelationSchema(new_name or self.name, retained, key=new_key)

    def __repr__(self) -> str:
        attrs = ", ".join(a.name for a in self.attributes)
        return f"RelationSchema({self.name!r}, [{attrs}], key={self.key!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelationSchema)
            and other.name == self.name
            and other.attributes == self.attributes
            and other.key == self.key
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes, self.key))
