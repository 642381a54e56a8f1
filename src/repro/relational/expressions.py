"""Predicate expressions over rows.

The object query language, the relational algebra, and the Keller
baseline all select rows with predicates. An :class:`Expression` is a
small immutable AST that can be

* compiled to a closure over a row (``compile``) — bound to a schema's
  tuple positions (``bind``, what the engines filter a scan with) or to
  attribute names (``evaluate``),
* compiled to a SQL fragment with bound parameters for the sqlite
  backend (``to_sql``).

Comparisons against ``None`` follow SQL semantics: any comparison with a
null operand is false, except the explicit ``IsNull`` test. Each node's
``compile`` is the one place its semantics are written; ``bind`` and
``evaluate`` differ only in how a row hands over an attribute.
"""

from __future__ import annotations

import operator
import re
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Pattern,
    Sequence,
    TYPE_CHECKING,
    Tuple,
)

from repro.errors import QueryError, UnknownAttributeError

if TYPE_CHECKING:
    from repro.relational.schema import RelationSchema

__all__ = [
    "Expression",
    "Attr",
    "Const",
    "Comparison",
    "And",
    "Or",
    "Not",
    "IsNull",
    "Like",
    "In",
    "TRUE",
    "like_regex",
]

Test = Callable[[Any], Any]
"""A compiled node: row in, value (for a predicate, truth) out."""

Access = Callable[[str], Test]
"""How a row hands over an attribute: name in, getter over a row out."""

_OPERATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_SQL_OPERATORS = {
    "=": "=",
    "!=": "<>",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


class Expression:
    """Base class of the predicate AST."""

    def compile(self, access: Access) -> Test:
        """This expression as a closure over one row.

        ``access(name)`` returns the getter of one attribute; it is
        called once per attribute reference here, never per row.
        """
        raise NotImplementedError

    def bind(self, schema: "RelationSchema") -> Test:
        """:meth:`compile` over value tuples laid out as ``schema``.

        An unknown attribute is a :class:`QueryError` here, before any
        row is read.
        """

        def access(name: str) -> Test:
            try:
                return operator.itemgetter(schema.position(name))
            except UnknownAttributeError as exc:
                raise QueryError(str(exc)) from None

        return self.compile(access)

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        """The value of this expression on an attribute-name mapping."""
        return self.compile(_by_name)(row)

    def to_sql(self) -> Tuple[str, List[Any]]:
        """A SQL fragment and its positional parameters."""
        raise NotImplementedError

    # Convenience combinators so callers can write ``p & q | ~r``.
    def __and__(self, other: "Expression") -> "Expression":
        return And(self, other)

    def __or__(self, other: "Expression") -> "Expression":
        return Or(self, other)

    def __invert__(self) -> "Expression":
        return Not(self)


def _by_name(name: str) -> Test:
    def get(row: Mapping[str, Any]) -> Any:
        try:
            return row[name]
        except KeyError:
            raise QueryError(f"row has no attribute {name!r}") from None

    return get


class Attr(Expression):
    """Reference to an attribute of the row being tested."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def compile(self, access: Access) -> Test:
        return access(self.name)

    def to_sql(self) -> Tuple[str, List[Any]]:
        return f'"{self.name}"', []

    # Comparison builders: Attr("units") == 3 --> Comparison.
    def __eq__(self, other: Any) -> "Comparison":  # type: ignore[override]
        return Comparison("=", self, _wrap(other))

    def __ne__(self, other: Any) -> "Comparison":  # type: ignore[override]
        return Comparison("!=", self, _wrap(other))

    def __lt__(self, other: Any) -> "Comparison":
        return Comparison("<", self, _wrap(other))

    def __le__(self, other: Any) -> "Comparison":
        return Comparison("<=", self, _wrap(other))

    def __gt__(self, other: Any) -> "Comparison":
        return Comparison(">", self, _wrap(other))

    def __ge__(self, other: Any) -> "Comparison":
        return Comparison(">=", self, _wrap(other))

    def __hash__(self) -> int:
        return hash(("Attr", self.name))

    def __repr__(self) -> str:
        return f"Attr({self.name!r})"


class Const(Expression):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def compile(self, access: Access) -> Test:
        value = self.value
        return lambda row: value

    def to_sql(self) -> Tuple[str, List[Any]]:
        return "?", [self.value]

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


def _wrap(value: Any) -> Expression:
    return value if isinstance(value, Expression) else Const(value)


class Comparison(Expression):
    """Binary comparison with SQL null semantics."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _OPERATORS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def compile(self, access: Access) -> Test:
        compare = _OPERATORS[self.op]
        left = self.left.compile(access)
        if isinstance(self.right, Const) and self.right.value is not None:
            # The shape nearly every pushed-down conjunct has: one null
            # test and one comparison per row, no call for the literal.
            rhs = self.right.value

            def test(row: Any) -> bool:
                lhs = left(row)
                return lhs is not None and compare(lhs, rhs)

            return test
        right = self.right.compile(access)

        def test(row: Any) -> bool:
            lhs = left(row)
            rhs = right(row)
            return lhs is not None and rhs is not None and compare(lhs, rhs)

        return test

    def to_sql(self) -> Tuple[str, List[Any]]:
        # COALESCE pins SQL's three-valued logic to our two-valued
        # semantics: a comparison with a null operand is *false*, so a
        # NOT above it selects the row (unlike bare SQL, where UNKNOWN
        # stays UNKNOWN under NOT).
        lsql, lparams = self.left.to_sql()
        rsql, rparams = self.right.to_sql()
        return (
            f"(COALESCE(({lsql} {_SQL_OPERATORS[self.op]} {rsql}), 0))",
            lparams + rparams,
        )

    def __repr__(self) -> str:
        return f"Comparison({self.op!r}, {self.left!r}, {self.right!r})"


class And(Expression):
    __slots__ = ("parts",)

    def __init__(self, *parts: Expression) -> None:
        self.parts = tuple(parts)

    def compile(self, access: Access) -> Test:
        tests = [part.compile(access) for part in self.parts]
        if len(tests) == 1:
            return tests[0]

        def test(row: Any) -> bool:
            for part in tests:
                if not part(row):
                    return False
            return True

        return test

    def to_sql(self) -> Tuple[str, List[Any]]:
        if not self.parts:
            return "(1 = 1)", []
        fragments, params = [], []
        for part in self.parts:
            sql, ps = part.to_sql()
            fragments.append(sql)
            params.extend(ps)
        return "(" + " AND ".join(fragments) + ")", params

    def __repr__(self) -> str:
        return f"And({', '.join(map(repr, self.parts))})"


class Or(Expression):
    __slots__ = ("parts",)

    def __init__(self, *parts: Expression) -> None:
        self.parts = tuple(parts)

    def compile(self, access: Access) -> Test:
        tests = [part.compile(access) for part in self.parts]

        def test(row: Any) -> bool:
            for part in tests:
                if part(row):
                    return True
            return False

        return test

    def to_sql(self) -> Tuple[str, List[Any]]:
        if not self.parts:
            return "(1 = 0)", []
        fragments, params = [], []
        for part in self.parts:
            sql, ps = part.to_sql()
            fragments.append(sql)
            params.extend(ps)
        return "(" + " OR ".join(fragments) + ")", params

    def __repr__(self) -> str:
        return f"Or({', '.join(map(repr, self.parts))})"


class Not(Expression):
    __slots__ = ("part",)

    def __init__(self, part: Expression) -> None:
        self.part = part

    def compile(self, access: Access) -> Test:
        part = self.part.compile(access)
        return lambda row: not part(row)

    def to_sql(self) -> Tuple[str, List[Any]]:
        sql, params = self.part.to_sql()
        return f"(NOT {sql})", params

    def __repr__(self) -> str:
        return f"Not({self.part!r})"


class IsNull(Expression):
    """Explicit null test (``attr IS NULL``)."""

    __slots__ = ("part",)

    def __init__(self, part: Expression) -> None:
        self.part = part

    def compile(self, access: Access) -> Test:
        part = self.part.compile(access)
        return lambda row: part(row) is None

    def to_sql(self) -> Tuple[str, List[Any]]:
        sql, params = self.part.to_sql()
        return f"({sql} IS NULL)", params

    def __repr__(self) -> str:
        return f"IsNull({self.part!r})"


def like_regex(pattern: str) -> Pattern[str]:
    """A SQL ``LIKE`` pattern (``%`` any run, ``_`` one character,
    case-sensitive, whole string) as a compiled regular expression."""
    fragments = []
    for ch in pattern:
        if ch == "%":
            fragments.append(".*")
        elif ch == "_":
            fragments.append(".")
        else:
            fragments.append(re.escape(ch))
    return re.compile("^" + "".join(fragments) + "$", re.DOTALL)


class Like(Expression):
    """SQL ``LIKE`` pattern match (``%`` any run, ``_`` one character).

    Null operands never match, per SQL.
    """

    __slots__ = ("operand", "pattern", "_regex")

    def __init__(self, operand: Expression, pattern: str) -> None:
        self.operand = operand
        self.pattern = pattern
        self._regex = like_regex(pattern)

    def compile(self, access: Access) -> Test:
        operand = self.operand.compile(access)
        match = self._regex.match

        def test(row: Any) -> bool:
            value = operand(row)
            return isinstance(value, str) and match(value) is not None

        return test

    def to_sql(self) -> Tuple[str, List[Any]]:
        sql, params = self.operand.to_sql()
        return f"(COALESCE(({sql} LIKE ?), 0))", params + [self.pattern]

    def __repr__(self) -> str:
        return f"Like({self.operand!r}, {self.pattern!r})"


class In(Expression):
    """Membership in a literal list; null never matches."""

    __slots__ = ("operand", "values")

    def __init__(self, operand: Expression, values: Sequence[Any]) -> None:
        self.operand = operand
        self.values = tuple(values)

    def compile(self, access: Access) -> Test:
        operand = self.operand.compile(access)
        values = self.values

        def test(row: Any) -> bool:
            value = operand(row)
            return value is not None and value in values

        return test

    def to_sql(self) -> Tuple[str, List[Any]]:
        sql, params = self.operand.to_sql()
        if not self.values:
            return "(1 = 0)", params
        placeholders = ", ".join("?" for _ in self.values)
        return (
            f"(COALESCE(({sql} IN ({placeholders})), 0))",
            params + list(self.values),
        )

    def __repr__(self) -> str:
        return f"In({self.operand!r}, {self.values!r})"


TRUE = And()
"""The always-true predicate (an empty conjunction)."""
