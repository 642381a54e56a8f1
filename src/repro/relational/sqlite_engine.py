"""Storage engine backed by the sqlite3 standard-library module.

This backend demonstrates that every layer above the engine interface —
the structural model, view-object instantiation, and the paper's update
translators — runs unchanged on a real SQL substrate. The PENGUIN
prototype sat on a commercial RDBMS; sqlite3 plays that role here.

Value conversion: sqlite has no date or boolean column types, so DATE
attributes are stored as ISO strings and BOOLEAN attributes as 0/1;
conversion happens at the engine boundary so callers always see Python
``datetime.date`` and ``bool`` values.

Like the in-memory engine, this backend records applied mutations
(decoded, Python-value rows) in a :class:`ChangeLog`, which also holds
its savepoint marks. sqlite itself performs undo via savepoints, so a
rollback only drops the transaction's records; the outermost commit
hands them to the log's subscribers once sqlite has released it.

A run of reads is one sqlite read transaction. Outside a write, the
first SELECT issues ``BEGIN`` and the SELECTs after it share that
transaction, so a file-backed database takes its SHARED lock and checks
its change counter once per run instead of once per statement. Every
other statement — DML, DDL, the ``SAVEPOINT`` that :meth:`begin` issues,
``PRAGMA`` — and :meth:`close` go through :meth:`SqliteEngine._execute`,
which commits the read transaction first, under the engine lock, so no
write ever runs inside one and a write is durable when it returns. The
read transaction holds SHARED only (other connections still read) and is
never a transaction to the layers above: ``in_transaction`` and the
change log's depth count savepoints alone.
"""

from __future__ import annotations

import datetime
import sqlite3
import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    DuplicateKeyError,
    NoSuchRowError,
    SchemaError,
    TransactionError,
    TransientEngineError,
    UnknownRelationError,
)
from repro.relational.changelog import ChangeLog
from repro.relational.domains import BOOLEAN, DATE
from repro.relational.engine import Engine, ValuesLike
from repro.relational.expressions import Expression
from repro.relational.schema import RelationSchema

__all__ = ["SqliteEngine"]


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


class _RelationSql:
    """Everything one relation's statements and rows need from its
    schema, derived once: the point-operation templates, which columns
    (and key parts) hold DATE or BOOLEAN values — the only ones sqlite
    cannot store as they are — and the ``find_by`` statements seen so
    far, keyed by (attribute names, null mask)."""

    __slots__ = (
        "insert",
        "delete",
        "replace",
        "get",
        "dates",
        "booleans",
        "key_dates",
        "key_booleans",
        "find_by",
    )

    def __init__(self, schema: RelationSchema) -> None:
        name = _quote(schema.name)
        placeholders = ", ".join("?" for _ in schema.attributes)
        key_clause = " AND ".join(f"{_quote(k)} = ?" for k in schema.key)
        assignments = ", ".join(
            f"{_quote(a.name)} = ?" for a in schema.attributes
        )
        self.insert = f"INSERT INTO {name} VALUES ({placeholders})"
        self.delete = f"DELETE FROM {name} WHERE {key_clause}"
        self.replace = f"UPDATE {name} SET {assignments} WHERE {key_clause}"
        self.get = f"SELECT * FROM {name} WHERE {key_clause}"
        domains = [a.domain for a in schema.attributes]
        self.dates = _positions_of(DATE, domains)
        self.booleans = _positions_of(BOOLEAN, domains)
        key_domains = schema.domains_of(schema.key)
        self.key_dates = _positions_of(DATE, key_domains)
        self.key_booleans = _positions_of(BOOLEAN, key_domains)
        self.find_by: Dict[Any, Tuple[str, Tuple[int, ...], Tuple[int, ...]]] = {}

    def encode(self, values: Sequence[Any]) -> Sequence[Any]:
        return _to_sqlite(values, self.dates, self.booleans)

    def encode_key(self, key: Sequence[Any]) -> Sequence[Any]:
        return _to_sqlite(key, self.key_dates, self.key_booleans)

    def decode(self, cursor) -> List[Tuple[Any, ...]]:
        """The cursor's rows as Python values. sqlite already hands back
        tuples, so a relation with no DATE/BOOLEAN column converts
        nothing."""
        rows = cursor.fetchall()
        dates, booleans = self.dates, self.booleans
        if not (dates or booleans):
            return rows
        fromisoformat = datetime.date.fromisoformat
        decoded = []
        for row in rows:
            values = list(row)
            for i in dates:
                if values[i] is not None:
                    values[i] = fromisoformat(values[i])
            for i in booleans:
                if values[i] is not None:
                    values[i] = bool(values[i])
            decoded.append(tuple(values))
        return decoded


def _positions_of(domain, domains: Sequence) -> Tuple[int, ...]:
    return tuple(i for i, d in enumerate(domains) if d == domain)


def _to_sqlite(
    values: Sequence[Any], dates: Sequence[int], booleans: Sequence[int]
) -> Sequence[Any]:
    """``values`` with the DATE positions as ISO text and the BOOLEAN
    positions as 0/1 (nulls stay null); untouched when there are none."""
    if not (dates or booleans):
        return values
    encoded = list(values)
    for i in dates:
        value = encoded[i]
        if value is not None:
            # Narrow datetimes defensively: a time suffix in the stored
            # text would break date.fromisoformat on decode.
            if isinstance(value, datetime.datetime):
                value = value.date()
            encoded[i] = value.isoformat()
    for i in booleans:
        if encoded[i] is not None:
            encoded[i] = int(encoded[i])
    return tuple(encoded)


class SqliteEngine(Engine):
    """Engine storing relations as sqlite tables.

    Parameters
    ----------
    path:
        Database file path; the default ``":memory:"`` keeps everything
        in RAM, matching the benchmarks' needs.
    """

    def __init__(self, path: str = ":memory:") -> None:
        # The connection is shared across threads (the serving layer in
        # repro.serve serializes access); sqlite's own same-thread check
        # would otherwise reject every call from a worker thread.
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.isolation_level = None  # explicit transactions
        # Serializes batched mutations (see MemoryEngine._lock), and makes
        # "end the read transaction, run the statement" and "check for a
        # transaction, open the read one" each atomic across threads.
        self._lock = threading.RLock()
        self._reading = False  # the open transaction is a run of reads
        # sqlite's LIKE is case-insensitive by default; the in-memory
        # engine's pattern matching is case-sensitive (SQL standard), so
        # align sqlite with it for cross-backend parity.
        self._execute("PRAGMA case_sensitive_like = ON")
        self._schemas: Dict[str, RelationSchema] = {}
        # Per-relation statement templates and row codec, built lazily
        # on first use or eagerly through prepare_relation(). sqlite3
        # keeps a compiled-statement cache keyed by SQL text, so handing
        # it byte-identical strings lets every operation skip
        # re-deriving the SQL — and the conversions — from the schema.
        self._sql_cache: Dict[str, _RelationSql] = {}
        self._log = ChangeLog()

    # -- statement execution -------------------------------------------------

    def _execute(
        self, sql: str, params: Sequence[Any] = (), many: bool = False
    ):
        """Run one statement that is not a read (``many``: through
        ``executemany``), committing the read transaction first; both
        under the engine lock, so no thread can open a read between
        them."""
        with self._lock:
            self._end_read()
            connection = self._connection
            run = connection.executemany if many else connection.execute
            return self._run(run, sql, params)

    def _end_read(self) -> None:
        """Commit the read transaction, if one is open (the caller holds
        the engine lock)."""
        if self._reading:
            # sqlite may have ended it already (it rolls back on an I/O
            # error); COMMIT with no transaction would fail every write.
            if self._connection.in_transaction:
                self._run(self._connection.execute, "COMMIT", ())
            self._reading = False

    def _read(self, sql: str, params: Sequence[Any] = ()):
        """Run one SELECT. With no transaction open it first issues
        ``BEGIN``, which the reads after it share until the next
        statement that is not a read; inside a write's savepoint it opens
        nothing."""
        if not self._connection.in_transaction:
            with self._lock:
                if not self._connection.in_transaction:
                    self._run(self._connection.execute, "BEGIN", ())
                    self._reading = True
        return self._run(self._connection.execute, sql, params)

    @staticmethod
    def _run(run, sql: str, params):
        """Call ``run(sql, params)``, mapping busy/locked into the
        transient error class so :class:`~repro.relational.retry.RetryPolicy`
        (and the serving layer's circuit breaker) can classify it. Any
        other sqlite error propagates as it was raised."""
        try:
            return run(sql, params)
        except sqlite3.OperationalError as exc:
            message = str(exc).lower()
            if "locked" in message or "busy" in message:
                raise TransientEngineError(str(exc)) from exc
            raise

    # -- catalog -----------------------------------------------------------------

    def create_relation(self, schema: RelationSchema) -> None:
        if schema.name in self._schemas:
            raise SchemaError(f"relation {schema.name!r} already exists")
        columns = []
        for attr in schema.attributes:
            null = "" if attr.nullable else " NOT NULL"
            columns.append(f"{_quote(attr.name)} {attr.domain.sql_type}{null}")
        key_list = ", ".join(_quote(k) for k in schema.key)
        ddl = (
            f"CREATE TABLE {_quote(schema.name)} ("
            + ", ".join(columns)
            + f", PRIMARY KEY ({key_list}))"
        )
        self._execute(ddl)
        self._schemas[schema.name] = schema

    def drop_relation(self, name: str) -> None:
        self._schema_for(name)
        self._execute(f"DROP TABLE {_quote(name)}")
        del self._schemas[name]
        # A later relation of the same name may have a different shape:
        # its templates, codec and find_by statements all go.
        self._sql_cache.pop(name, None)

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._schemas)

    def schema(self, name: str) -> RelationSchema:
        return self._schema_for(name)

    def has_relation(self, name: str) -> bool:
        return name in self._schemas

    def _schema_for(self, name: str) -> RelationSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    # -- mutation ----------------------------------------------------------------

    def _sql(self, schema: RelationSchema) -> _RelationSql:
        """The relation's statements and codec, built once."""
        sql = self._sql_cache.get(schema.name)
        if sql is None:
            sql = self._sql_cache[schema.name] = _RelationSql(schema)
        return sql

    def prepare_relation(self, name: str) -> None:
        """Eagerly build the relation's statement templates and codec.

        Called by the compiled translator's ``prepare_engine`` so the
        first update after definition time pays no SQL-building cost;
        they are otherwise built lazily on first use. (``find_by``
        statements depend on the attributes asked for and are kept as
        they are first seen.)
        """
        self._sql(self._schema_for(name))

    @staticmethod
    def _map_integrity_error(
        name: str, exc: sqlite3.IntegrityError, key: Tuple[Any, ...]
    ) -> Exception:
        """Translate a sqlite integrity failure to the error the memory
        engine raises for the same condition.

        sqlite reports every constraint violation as IntegrityError; only
        UNIQUE/PRIMARY KEY failures are duplicate keys. A NOT NULL
        violation corresponds to the memory engine's schema-level
        nullability check, so it must surface as SchemaError, not as a
        (wrong) DuplicateKeyError.
        """
        message = str(exc)
        if "NOT NULL" in message:
            return SchemaError(
                f"relation {name!r}: {message}"
            )
        return DuplicateKeyError(name, key)

    def insert(self, name: str, values: ValuesLike) -> Tuple[Any, ...]:
        schema = self._schema_for(name)
        row = self._coerce_values(name, values)
        sql = self._sql(schema)
        try:
            self._execute(sql.insert, sql.encode(row))
        except sqlite3.IntegrityError as exc:
            raise self._map_integrity_error(
                name, exc, schema.key_of(row)
            ) from None
        key = schema.key_of(row)
        self._log.record("insert", name, key, row)
        return key

    def insert_many(
        self, name: str, rows: Iterable[ValuesLike]
    ) -> List[Tuple[Any, ...]]:
        """Batched insert through one ``executemany`` statement.

        The whole batch is one savepoint: any constraint failure rolls
        every row back before the error is mapped and re-raised, so the
        relation is never left partially loaded.
        """
        schema = self._schema_for(name)
        coerced = [self._coerce_values(name, values) for values in rows]
        sql = self._sql(schema)
        encoded = coerced
        if sql.dates or sql.booleans:
            encoded = [sql.encode(row) for row in coerced]

        def attempt() -> List[Tuple[Any, ...]]:
            # Statement-level retry: a transient failure (busy/locked)
            # rolls the savepoint back and re-runs the whole batch.
            self.begin()
            try:
                self._execute(sql.insert, encoded, many=True)
            except sqlite3.IntegrityError as exc:
                self.rollback()
                raise self._map_integrity_error(
                    name, exc, self._first_duplicate(name, schema, coerced)
                ) from None
            except Exception:
                self.rollback()
                raise
            keys = []
            for row in coerced:
                key = schema.key_of(row)
                self._log.record("insert", name, key, row)
                keys.append(key)
            self._finish_commit()
            return keys

        with self._lock:
            return self._retry(attempt)

    def _first_duplicate(
        self,
        name: str,
        schema: RelationSchema,
        rows: Sequence[Tuple[Any, ...]],
    ) -> Tuple[Any, ...]:
        """Locate the offending key after a failed batch (post-rollback),
        checking both the surviving table state and intra-batch repeats."""
        seen = set()
        for row in rows:
            key = schema.key_of(row)
            if key in seen or self.contains(name, key):
                return key
            seen.add(key)
        return ()

    def apply_batch(self, operations) -> int:
        """Apply a batch, folding adjacent same-relation inserts into
        ``executemany`` runs."""
        ops = list(operations)
        count = 0
        with self._lock:
            self.begin()
            try:
                i = 0
                while i < len(ops):
                    op = ops[i]
                    if op.kind == "insert":
                        j = i
                        while (
                            j < len(ops)
                            and ops[j].kind == "insert"
                            and ops[j].relation == op.relation
                        ):
                            j += 1
                        self.insert_many(
                            op.relation, [o.values for o in ops[i:j]]
                        )
                        count += j - i
                        i = j
                    else:
                        self._retry(lambda op=op: op.apply(self))
                        count += 1
                        i += 1
            except Exception:
                self.rollback()
                raise
            self._finish_commit()
        return count

    def delete(self, name: str, key: Sequence[Any]) -> None:
        schema = self._schema_for(name)
        key = self._coerce_key(name, key)
        old = self.get(name, key)
        if old is None:
            raise NoSuchRowError(name, tuple(key))
        sql = self._sql(schema)
        cursor = self._execute(sql.delete, sql.encode_key(key))
        if cursor.rowcount == 0:
            raise NoSuchRowError(name, tuple(key))
        self._log.record("delete", name, key, None, old)

    def replace(self, name: str, key: Sequence[Any], values: ValuesLike) -> None:
        schema = self._schema_for(name)
        key = self._coerce_key(name, key)
        row = self._coerce_values(name, values)
        # Error precedence matches the in-memory engine: a missing old
        # row reports NoSuchRowError even if the new key also collides.
        old = self.get(name, key)
        if old is None:
            raise NoSuchRowError(name, tuple(key))
        new_key = schema.key_of(row)
        if tuple(key) != new_key and self.contains(name, new_key):
            raise DuplicateKeyError(name, new_key)
        sql = self._sql(schema)
        params = sql.encode(row) + sql.encode_key(key)
        cursor = self._execute(sql.replace, params)
        if cursor.rowcount == 0:
            raise NoSuchRowError(name, tuple(key))
        self._log.record("replace", name, key, row, old)

    def clear(self, name: str) -> None:
        schema = self._schema_for(name)
        rows = list(self.scan(name))
        self._execute(f"DELETE FROM {_quote(name)}")
        for row in rows:
            self._log.record("delete", name, schema.key_of(row), None, row)

    # -- reads ---------------------------------------------------------------------

    def get(self, name: str, key: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
        sql = self._sql(self._schema_for(name))
        rows = sql.decode(self._read(sql.get, sql.encode_key(key)))
        return rows[0] if rows else None

    def scan(self, name: str) -> Iterator[Tuple[Any, ...]]:
        sql = self._sql(self._schema_for(name))  # unknown names raise here
        cursor = self._read(f"SELECT * FROM {_quote(name)}")
        return iter(sql.decode(cursor))

    def find_by(
        self, name: str, attribute_names: Sequence[str], entry: Sequence[Any]
    ) -> List[Tuple[Any, ...]]:
        schema = self._schema_for(name)
        sql = self._sql(schema)
        names = tuple(attribute_names)
        # The statement depends on which attributes are asked for and
        # which of the values are null (IS NULL takes no parameter);
        # _to_sqlite narrows datetimes where the attribute is a DATE.
        nulls = tuple(v is None for v in entry) if None in entry else None
        found = sql.find_by.get((names, nulls))
        if found is None:
            found = sql.find_by[(names, nulls)] = self._find_by_statement(
                schema, names, entry
            )
        statement, dates, booleans = found
        params = entry if nulls is None else [v for v in entry if v is not None]
        cursor = self._read(statement, _to_sqlite(params, dates, booleans))
        return sql.decode(cursor)

    @staticmethod
    def _find_by_statement(
        schema: RelationSchema, names: Sequence[str], entry: Sequence[Any]
    ) -> Tuple[str, Tuple[int, ...], Tuple[int, ...]]:
        """SQL text for one (attributes, null mask), answering in key
        order, with the positions of its DATE and BOOLEAN parameters."""
        conditions = []
        domains = []
        for attr_name, value in zip(names, entry):
            domain = schema.attribute(attr_name).domain
            if value is None:
                conditions.append(f"{_quote(attr_name)} IS NULL")
            else:
                conditions.append(f"{_quote(attr_name)} = ?")
                domains.append(domain)
        where = " AND ".join(conditions) if conditions else "1 = 1"
        order = ", ".join(_quote(k) for k in schema.key)
        return (
            f"SELECT * FROM {_quote(schema.name)} WHERE {where} ORDER BY {order}",
            _positions_of(DATE, domains),
            _positions_of(BOOLEAN, domains),
        )

    def select(self, name: str, predicate: Expression) -> List[Tuple[Any, ...]]:
        sql = self._sql(self._schema_for(name))
        fragment, params = predicate.to_sql()
        # DATE/BOOLEAN parameters need encoding for comparison in SQL;
        # datetimes narrow to dates so they compare against stored text.
        encoded_params = [
            (p.date() if isinstance(p, datetime.datetime) else p).isoformat()
            if isinstance(p, datetime.date)
            else int(p)
            if isinstance(p, bool)
            else p
            for p in params
        ]
        cursor = self._read(
            f"SELECT * FROM {_quote(name)} WHERE {fragment}", encoded_params
        )
        return sql.decode(cursor)

    def count(self, name: str) -> int:
        self._schema_for(name)
        cursor = self._read(f"SELECT COUNT(*) FROM {_quote(name)}")
        return cursor.fetchone()[0]

    # -- indexes ----------------------------------------------------------------------

    def create_index(self, name: str, attribute_names: Sequence[str]) -> None:
        if tuple(attribute_names) == self._schema_for(name).key:
            return  # the PRIMARY KEY's own index already serves these columns
        # Derive the index name from the column list so repeated calls
        # (e.g. reinstalling a schema graph) dedupe via IF NOT EXISTS
        # instead of piling up identical indexes under fresh names.
        columns_slug = "_".join(attribute_names)
        index_name = f"idx_{name}_{columns_slug}"
        columns = ", ".join(_quote(a) for a in attribute_names)
        self._execute(
            f"CREATE INDEX IF NOT EXISTS {_quote(index_name)} "
            f"ON {_quote(name)} ({columns})"
        )

    # -- transactions -------------------------------------------------------------------

    def begin(self) -> None:
        self._execute(f"SAVEPOINT sp_{self._log.depth + 1}")
        self._log.begin()

    def commit(self) -> None:
        depth = self._log.depth
        if depth == 0:
            raise TransactionError("commit without matching begin")
        self._execute(f"RELEASE SAVEPOINT sp_{depth}")
        self._log.commit()

    def rollback(self) -> None:
        depth = self._log.depth
        if depth == 0:
            raise TransactionError("rollback without matching begin")
        self._execute(f"ROLLBACK TO SAVEPOINT sp_{depth}")
        self._execute(f"RELEASE SAVEPOINT sp_{depth}")
        self._log.rollback()

    @property
    def in_transaction(self) -> bool:
        return self._log.depth > 0

    # -- introspection -----------------------------------------------------------

    @property
    def changelog(self) -> ChangeLog:
        """The open transaction's log and the commit feed (read-only use
        recommended)."""
        return self._log

    def operation_counters(self) -> Dict[str, int]:
        """Copy of the per-kind mutation counters."""
        return dict(self._log.counters)

    def close(self) -> None:
        with self._lock:
            self._end_read()
            self._connection.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SqliteEngine({len(self._schemas)} relations)"
