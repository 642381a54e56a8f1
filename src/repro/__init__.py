"""repro — reproduction of *Updating Relational Databases through
Object-Based Views* (Barsalou, Keller, Siambela, Wiederhold; SIGMOD 1991).

Layers, bottom-up:

* :mod:`repro.relational` — a miniature relational DBMS (in-memory and
  sqlite3 backends behind one engine interface);
* :mod:`repro.structural` — the structural model: ownership, reference,
  and subset connections with their integrity rules (Section 2);
* :mod:`repro.core` — view objects: information metric, tree building,
  instantiation, the object query language, and the update-translation
  algorithms VO-CD / VO-CI / VO-R (Sections 3 and 5);
* :mod:`repro.dialog` — the translator-choosing dialog (Section 6);
* :mod:`repro.keller` — the flat relational-view baseline (Section 4);
* :mod:`repro.workloads` — the paper's university database plus
  hospital, CAD, and synthetic workloads;
* :class:`repro.Penguin` — the high-level facade named after the
  authors' prototype.
"""

from repro.errors import (
    DegradedServiceError,
    GlobalValidationError,
    JournalError,
    LocalValidationError,
    QueryError,
    ReproError,
    TransientEngineError,
    UpdateError,
    UpdateRejectedError,
    ViewObjectError,
)
from repro.core import (
    InformationMetric,
    Instance,
    Instantiator,
    MetricWeights,
    ViewObjectDefinition,
    analyze_island,
    build_instance,
    define_view_object,
    diff_instances,
    render_diff,
)
from repro.core.query import execute_query, parse_query
from repro.core.updates import (
    ReferenceRepair,
    RelationPolicy,
    Translator,
    TranslatorPolicy,
)
from repro.dialog import (
    ConstantAnswers,
    MappingAnswers,
    ScriptedAnswers,
    choose_translator,
)
from repro.penguin import Penguin
from repro.relational import (
    Engine,
    FaultInjectingEngine,
    FaultPlan,
    FileJournal,
    MemoryEngine,
    MemoryJournal,
    RetryPolicy,
    SimulatedCrash,
    SqliteEngine,
)
from repro.serve import CircuitBreaker, ConcurrentPenguin, ReadWriteLock
from repro.structural import (
    Connection,
    ConnectionKind,
    IntegrityChecker,
    StructuralSchema,
)

__version__ = "1.0.0"

__all__ = [
    "Penguin",
    "ConcurrentPenguin",
    "ReadWriteLock",
    "StructuralSchema",
    "Connection",
    "ConnectionKind",
    "IntegrityChecker",
    "Engine",
    "MemoryEngine",
    "SqliteEngine",
    "InformationMetric",
    "MetricWeights",
    "ViewObjectDefinition",
    "define_view_object",
    "analyze_island",
    "Instance",
    "build_instance",
    "Instantiator",
    "diff_instances",
    "render_diff",
    "execute_query",
    "parse_query",
    "Translator",
    "TranslatorPolicy",
    "RelationPolicy",
    "ReferenceRepair",
    "choose_translator",
    "ScriptedAnswers",
    "MappingAnswers",
    "ConstantAnswers",
    "ReproError",
    "ViewObjectError",
    "UpdateError",
    "UpdateRejectedError",
    "LocalValidationError",
    "GlobalValidationError",
    "QueryError",
    "TransientEngineError",
    "JournalError",
    "DegradedServiceError",
    "FaultInjectingEngine",
    "FaultPlan",
    "SimulatedCrash",
    "RetryPolicy",
    "MemoryJournal",
    "FileJournal",
    "CircuitBreaker",
]
