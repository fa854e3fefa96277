"""Exception hierarchy for the Gallery reproduction.

Every error raised by the library derives from :class:`GalleryError` so
applications can catch library failures with a single ``except`` clause while
still being able to discriminate the failure class.  The hierarchy mirrors the
major subsystems of the paper: storage (Section 3.5), versioning (Section
3.4), dependencies (Section 3.4.2), rules (Section 3.7) and the service layer
(Section 4.1).
"""

from __future__ import annotations


class GalleryError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(GalleryError):
    """A record, metadata document, or rule failed validation."""


class NotFoundError(GalleryError):
    """A model, instance, metric, blob, or rule does not exist."""


class DuplicateError(GalleryError):
    """A record with the same identifier already exists."""


class StorageError(GalleryError):
    """Base class for storage-layer failures (Section 3.5)."""


class BlobStoreError(StorageError):
    """A blob read or write failed in the large-object store."""


class BlobCorruptionError(BlobStoreError):
    """A blob failed its SHA-256 integrity check on read.

    Corruption is distinguished from ordinary I/O failure because it is not
    retryable: re-reading a rotten file yields the same bad bytes.  Callers
    must treat the blob as lost and fall back to re-training/re-uploading.
    """


class MetadataStoreError(StorageError):
    """A metadata read or write failed in the relational store."""


class ConsistencyError(StorageError):
    """The write-blob-first protocol detected an inconsistent record.

    Section 3.5: blobs are always written before metadata, so metadata that
    points at a missing blob indicates corruption rather than a normal
    partial-failure state.
    """


class DependencyError(GalleryError):
    """Base class for dependency-graph failures (Section 3.4.2)."""


class DependencyCycleError(DependencyError):
    """Adding a dependency would create a cycle in the model DAG."""


class RuleError(GalleryError):
    """Base class for rule-engine failures (Section 3.7)."""


class RuleSyntaxError(RuleError):
    """A rule expression could not be lexed or parsed."""


class RuleEvaluationError(RuleError):
    """A rule expression failed during evaluation."""


class RuleReviewError(RuleError):
    """A rule commit was rejected by the review/validation gate."""


class ActionError(RuleError):
    """A callback action failed or is not registered."""


class ReliabilityError(GalleryError):
    """Base class for fault-handling layer failures (retry/breaker/DLQ)."""


class CircuitOpenError(ReliabilityError):
    """A call was rejected because the circuit breaker is open.

    The breaker trips after consecutive failures and rejects calls without
    touching the faulty dependency until the reset timeout elapses, at which
    point a single probe is let through (half-open state).
    """


class RetryBudgetExceededError(ReliabilityError):
    """A retry loop gave up before its first attempt could run.

    Raised only when the per-call deadline is already exhausted *before* an
    attempt starts; failures of the attempts themselves re-raise the last
    underlying exception so callers keep the original error semantics.
    """


class ServiceError(GalleryError):
    """Base class for service/wire-protocol failures (Section 4.1)."""


class WireFormatError(ServiceError):
    """A request or response could not be encoded or decoded."""


class UnknownMethodError(ServiceError):
    """The service was asked to dispatch a method it does not export."""


class ReplicaDrainingError(ServiceError):
    """The replica is draining and refuses *new* work.

    Answered by a server whose operator ran ``gallery fleet drain``:
    in-flight requests finish, new ones get this typed rejection.  It is a
    *routing* signal, not a failure — the request was never executed, so a
    failover client re-sends it to a different replica without penalizing
    the draining one's circuit breaker.
    """


class FleetRegistryError(ServiceError):
    """A fleet registry source could not be read or parsed.

    Raised loudly on malformed registry lines, duplicate endpoints, or an
    empty registry — a silently dropped replica is an outage waiting to be
    discovered, and an empty fleet can serve nothing at all.
    """


class LifecycleError(GalleryError):
    """An illegal lifecycle-stage transition was requested (Figure 1)."""


class DeprecatedModelError(GalleryError):
    """An operation targeted a deprecated model without opting in.

    Section 3.7: deprecated models are flagged, not deleted; they are skipped
    during fetching and searching unless the caller explicitly includes them.
    """


#: Every exception class this module defines, keyed by its class name —
#: the same names the wire protocol carries as ``error_type`` strings.
_ERROR_REGISTRY: dict[str, type[Exception]] = {
    name: obj
    for name, obj in list(globals().items())
    if isinstance(obj, type) and issubclass(obj, Exception)
}


def error_class_for(name: str) -> type[Exception] | None:
    """Resolve a wire ``error_type`` name to its typed exception class.

    This is how :meth:`repro.service.wire.Response.raise_if_error` turns
    server-side error strings back into the hierarchy above, so remote
    callers write ``except NotFoundError`` instead of string-matching
    ``exc.error_type``.  Returns ``None`` for names this library does not
    define (callers fall back to :class:`ServiceError`).
    """
    return _ERROR_REGISTRY.get(name)
