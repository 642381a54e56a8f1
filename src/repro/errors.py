"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class. The hierarchy mirrors the
layers of the system: relational engine errors, structural-model errors,
view-object errors, and update-translation errors.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Relational engine
# ---------------------------------------------------------------------------


class RelationalError(ReproError):
    """Base class for errors raised by the relational engine."""


class SchemaError(RelationalError):
    """A relation schema is malformed (bad key, duplicate attribute, ...)."""


class DomainError(RelationalError):
    """A value does not belong to the domain declared for its attribute."""


class UnknownRelationError(RelationalError):
    """A relation name does not exist in the database catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class UnknownAttributeError(RelationalError):
    """An attribute name does not exist in a relation schema."""

    def __init__(self, relation: str, attribute: str) -> None:
        super().__init__(f"relation {relation!r} has no attribute {attribute!r}")
        self.relation = relation
        self.attribute = attribute


class DuplicateKeyError(RelationalError):
    """An insertion would violate a primary-key constraint."""

    def __init__(self, relation: str, key: tuple) -> None:
        super().__init__(f"duplicate key {key!r} in relation {relation!r}")
        self.relation = relation
        self.key = key


class NoSuchRowError(RelationalError):
    """A deletion or replacement referenced a row that does not exist."""

    def __init__(self, relation: str, key: tuple) -> None:
        super().__init__(f"no row with key {key!r} in relation {relation!r}")
        self.relation = relation
        self.key = key


class TransactionError(RelationalError):
    """Illegal transaction operation (commit without begin, nested misuse),
    or a commit that failed and was rolled back (see ``__cause__``)."""


class TransientEngineError(RelationalError):
    """A storage-level failure that is expected to clear on retry.

    Raised for conditions like sqlite's ``database is locked`` / busy
    states and by the fault-injection harness. A
    :class:`~repro.relational.retry.RetryPolicy` treats this class (and
    only errors it classifies as transient) as retryable; everything
    else is permanent and propagates immediately.
    """


class JournalError(RelationalError):
    """The plan journal is unusable (corrupt record, unknown entry id)."""


class AuditError(ReproError):
    """The audit log is unusable or inconsistent with the live state
    (corrupt record, unknown ASN, or a reconstruction that fails its
    verification against the head)."""


class DegradedServiceError(ReproError):
    """The serving layer is in the DEGRADED health state.

    Writes fail fast with this error while the circuit breaker is open;
    reads raise it only when no materialized cache can serve a stale
    answer. The breaker probes its way back to HEALTHY once the engine
    stops faulting.
    """


# ---------------------------------------------------------------------------
# Replication
# ---------------------------------------------------------------------------


class ReplicationError(ReproError):
    """Base class for errors raised by the per-shard replication layer."""


class ReplicationQuorumError(DegradedServiceError):
    """A write could not reach its replication quorum and was aborted.

    Derives from :class:`DegradedServiceError` so the HTTP layer maps it
    to 503 + ``Retry-After``: the condition is expected to clear once
    the shipping links heal or a failover completes.
    """


class PrimaryDownError(DegradedServiceError):
    """The shard's primary is unreachable and no failover has completed
    yet (the failure detector has not crossed its miss threshold)."""


class FailoverInProgressError(DegradedServiceError):
    """A failover is promoting a replica right now; retry shortly."""


class FencedWriteError(ReplicationError):
    """A ship carried a stale epoch number — a fenced (zombie) primary
    tried to stream after a failover already promoted its successor."""


class ReplicaDivergenceError(ReplicationError):
    """A replica's state stopped matching the shipped after-images
    byte-for-byte; the replica is excluded from promotion."""


# ---------------------------------------------------------------------------
# Structural model
# ---------------------------------------------------------------------------


class StructuralError(ReproError):
    """Base class for errors in structural-model definitions."""


class ConnectionError(StructuralError):
    """A connection definition violates Definitions 2.1-2.4 of the paper.

    .. warning:: This name shadows the builtin :class:`ConnectionError`
       when imported unqualified, silently changing what
       ``except ConnectionError:`` means in the importing module. Prefer
       the unambiguous alias :data:`StructuralConnectionError`.
    """


#: Unshadowed alias for :class:`ConnectionError` (which collides with the
#: builtin of the same name). New code should catch and raise this name.
StructuralConnectionError = ConnectionError


# ---------------------------------------------------------------------------
# View objects
# ---------------------------------------------------------------------------


class ViewObjectError(ReproError):
    """Base class for errors in view-object definitions and instances."""


class PivotError(ViewObjectError):
    """The pivot relation violates Definition 3.2 of the paper."""


class ProjectionError(ViewObjectError):
    """A projection in a view object is malformed."""


class InstantiationError(ViewObjectError):
    """A view-object instance could not be assembled from base tuples."""


class QueryError(ViewObjectError):
    """An object query is syntactically or semantically invalid."""


class QuerySyntaxError(QueryError):
    """The object-query text failed to parse."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


# ---------------------------------------------------------------------------
# Update translation
# ---------------------------------------------------------------------------


class UpdateError(ReproError):
    """Base class for errors during view-object update translation."""


class LocalValidationError(UpdateError):
    """Step 1 failed: the request violates the view-object definition."""


class TranslationError(UpdateError):
    """Step 3 failed: no valid translation into database operations."""


class UpdateRejectedError(TranslationError):
    """The chosen translator rejects this update (policy says no).

    This mirrors the paper's behaviour: once a restrictive translator is
    selected at definition time, updates that need a forbidden database
    operation are rejected and the transaction is rolled back.
    """

    def __init__(self, message: str, relation: Optional[str] = None) -> None:
        super().__init__(message)
        self.relation = relation


class GlobalValidationError(UpdateError):
    """Step 4 failed: the translated updates break structural integrity."""


# ---------------------------------------------------------------------------
# Dialog
# ---------------------------------------------------------------------------


class DialogError(ReproError):
    """Base class for errors in the translator-choosing dialog."""


class AnswerError(DialogError):
    """An answer source produced an unusable answer."""


# ---------------------------------------------------------------------------
# Strategy validation
# ---------------------------------------------------------------------------


class StrategyError(ReproError):
    """Base class for errors raised by the strategy-validation pass."""


class UnsafeTranslatorError(StrategyError):
    """A translator configuration was refused at definition time.

    Raised when a :class:`~repro.core.updates.translator.Translator`
    is constructed with ``strictness="refuse"`` and the static checker
    classifies the policy CRITICAL: some operation class the policy
    enables can never be translated, or one of its repair rules can
    never be satisfied. The offending
    :class:`~repro.strategy.risk.RiskReport` rides along as ``report``.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# HTTP mapping
# ---------------------------------------------------------------------------

#: Error class -> HTTP status; first match wins, so a subclass that
#: answers differently sits above its base. 503 goes out with
#: ``Retry-After`` (the condition clears by itself); a fault in the
#: server's own logs or replication stream is never the client's doing.
#: An unknown object name is a 404 at the route, like any unknown path.
HTTP_STATUS = (
    (DegradedServiceError, 503),
    (TransientEngineError, 503),
    (TransactionError, 503),
    (JournalError, 500),
    (AuditError, 500),
    (ReplicationError, 500),
    (InstantiationError, 500),
    (RelationalError, 400),
    (StructuralError, 400),
    (ViewObjectError, 400),
    (UpdateError, 400),
    (DialogError, 400),
    (StrategyError, 400),
    ((KeyError, ValueError, TypeError), 400),
)


def http_status(exc: BaseException) -> int:
    """The status an HTTP front end answers ``exc`` with; 500 for
    anything :data:`HTTP_STATUS` does not name."""
    for classes, status in HTTP_STATUS:
        if isinstance(exc, classes):
            return status
    return 500
