"""Fault-tolerance primitives for the Gallery control plane.

Gallery's value proposition is that lifecycle automation keeps serving
correct when humans aren't watching (Sections 3.4 and 4.2), which only
holds if the registry, rule engine, and transport survive partial failure
instead of silently dropping work.  This package is that layer:

* :class:`RetryPolicy` — bounded retries with exponential backoff,
  deterministic jitter, and a per-call deadline.
* :class:`CircuitBreaker` — trips after consecutive failures so a dead
  dependency is not hammered; recovers through a half-open probe.
* :class:`FaultInjector` and the ``Faulty*`` wrappers — a seeded chaos
  harness that wraps any :class:`~repro.store.metadata_store.MetadataStore`,
  :class:`~repro.store.blob.BlobStore`, or client transport to inject
  connection drops, timeouts, torn writes, and corrupted reads.
* :class:`DeadLetterQueue` — failed rule-engine actions park in the
  metadata store, queryable and re-drainable, instead of vanishing into
  the action log.

Every component takes injectable clocks/sleepers so tests run fast and
deterministically; the fault injector is seeded so chaos runs reproduce.
"""

from repro.reliability.breaker import BreakerState, CircuitBreaker
from repro.reliability.deadletter import DeadLetter, DeadLetterQueue
from repro.reliability.faults import (
    FaultInjector,
    FaultKind,
    FaultyBlobStore,
    FaultyMetadataStore,
    FaultyTransport,
    corrupt_blob_at_rest,
)
from repro.reliability.policy import RetryPolicy

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "DeadLetter",
    "DeadLetterQueue",
    "FaultInjector",
    "FaultKind",
    "FaultyBlobStore",
    "FaultyMetadataStore",
    "FaultyTransport",
    "RetryPolicy",
    "corrupt_blob_at_rest",
]
