"""The relational substrate: schemas, tables, engines, algebra.

This package is a self-contained miniature relational DBMS. Everything
above it (the structural model, view objects, update translation) talks
to storage exclusively through the :class:`~repro.relational.engine.Engine`
interface, implemented by both :class:`MemoryEngine` (from scratch, with
undo-log transactions and hash indexes) and :class:`SqliteEngine`
(sqlite3 standard library).
"""

from repro.relational.algebra import (
    DerivedRelation,
    from_engine,
    join,
    project,
    rename,
    select,
)
from repro.relational.changelog import ChangeLog, ChangeRecord
from repro.relational.ddl import SchemaBuilder, relation
from repro.relational.domains import (
    BOOLEAN,
    DATE,
    INTEGER,
    REAL,
    TEXT,
    Domain,
    domain_by_name,
)
from repro.relational.engine import Engine
from repro.relational.faults import (
    FaultInjectingEngine,
    FaultPlan,
    FaultRule,
    SimulatedCrash,
)
from repro.relational.journal import (
    FileJournal,
    MemoryJournal,
    PlanJournal,
    RecoveryReport,
    UpdateRecord,
    recover,
    restore_images,
)
from repro.relational.retry import RetryPolicy, is_transient_error
from repro.relational.expressions import (
    And,
    Attr,
    Comparison,
    Const,
    Expression,
    In,
    IsNull,
    Like,
    Not,
    Or,
    TRUE,
)
from repro.relational.memory_engine import MemoryEngine
from repro.relational.operations import (
    DatabaseOperation,
    Delete,
    Insert,
    Replace,
    UpdatePlan,
)
from repro.relational.row import Row
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sqlite_engine import SqliteEngine
from repro.relational.table import Table

__all__ = [
    "Attribute",
    "RelationSchema",
    "Row",
    "Table",
    "Engine",
    "MemoryEngine",
    "SqliteEngine",
    "Domain",
    "INTEGER",
    "REAL",
    "TEXT",
    "BOOLEAN",
    "DATE",
    "domain_by_name",
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
    "DatabaseOperation",
    "Insert",
    "Delete",
    "Replace",
    "UpdatePlan",
    "ChangeLog",
    "ChangeRecord",
    "DerivedRelation",
    "from_engine",
    "select",
    "project",
    "join",
    "rename",
    "SchemaBuilder",
    "relation",
    "FaultInjectingEngine",
    "FaultPlan",
    "FaultRule",
    "SimulatedCrash",
    "RetryPolicy",
    "is_transient_error",
    "PlanJournal",
    "MemoryJournal",
    "FileJournal",
    "UpdateRecord",
    "RecoveryReport",
    "recover",
    "restore_images",
]
