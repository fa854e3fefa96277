"""The stateless Gallery service (Sections 4 and 4.1).

Gallery at Uber is "a stateless microservice ... horizontally scalable
across different data centers": all state lives in the storage layer, and
any number of service front-ends can dispatch API calls against it.
:class:`GalleryService` is that front-end: a method table over a
:class:`repro.core.registry.Gallery`, consuming wire-format requests and
producing wire-format responses.

Exceptions never escape the dispatcher — they are folded into structured
error responses that clients re-raise as the original exception classes.
"""

from __future__ import annotations

import threading
import time

from typing import Any, Callable, Mapping

from repro.core.registry import Gallery
from repro.errors import (
    NotFoundError,
    ReplicaDrainingError,
    ServiceError,
    UnknownMethodError,
    ValidationError,
)
from repro.rules.engine import RuleEngine
from repro.rules.rule import Rule
from repro.service import wire
from repro.service.batching import ReadBatcher
from repro.service.wire import Request, Response

#: Methods with side effects: their *successful* responses are cached per
#: (client_id, request_id) so a client that lost a response can resend the
#: exact frame and get the original result back instead of a duplicate
#: execution.  Read methods are idempotent and skip the cache entirely —
#: the PR-1 fast path pays only a set-membership test.
MUTATING_METHODS = frozenset(
    {
        "createGalleryModel",
        "uploadModel",
        "insertModelInstanceMetric",
        "insertModelInstanceMetrics",
        "deprecateModel",
        "deprecateInstance",
        "enableInstance",
        "disableInstance",
        "assignServing",
        "addDependency",
        "collectOrphans",
        "triggerRule",
    }
)

#: Control-plane methods a replica keeps answering even while draining —
#: operators must be able to observe and reverse a drain over the same
#: wire that refuses data-plane work.  These are also excluded from the
#: in-flight count a drain waits on, so a ``fleet drain --wait`` issued
#: over the wire cannot deadlock on itself.
ADMIN_METHODS = frozenset({"fleetStatus", "fleetDrain", "fleetUndrain", "serverStats"})


def _dedup_key(request: wire.Request) -> tuple[str, int] | None:
    """``(client_id, request_id)`` when *request* is a mutation that carries
    both, i.e. one that executes at most once; else None."""
    if request.client_id and request.request_id and request.method in MUTATING_METHODS:
        return (request.client_id, request.request_id)
    return None


class RequestDedupCache:
    """Request dedup backed by the metadata store, shared across replicas.

    Only successful responses are recorded: replaying a recorded *error*
    (flaky store, injected fault) at a retrying client would pin it forever.

    :meth:`claim` atomically decides whether the caller should execute the
    request (``owner``), replay a recorded response (``done``), or back off
    because another worker is still executing the same frame (``pending``).
    Without the pending state, a client that fails over while its first
    attempt still runs on an abandoned worker would duplicate the write.

    Every :class:`GalleryService` over one store coordinates through its
    ``dedup_entries`` table: the claim is one store transaction, so
    exactly one replica executes any ``(client_id, request_id)`` no matter
    which endpoints a failing-over client hits, and on a file-backed store
    the recorded responses survive a full restart of every replica.

    A ``pending`` claim whose owner died mid-request is taken over after
    ``takeover_after`` seconds (clients retry with backoff until then).
    """

    def __init__(
        self,
        dal: Any,
        capacity: int = 4096,
        takeover_after: float = 5.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._store = dal.metadata
        self._capacity = capacity
        self._takeover_after = takeover_after
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def claim(self, key: tuple[str, int]) -> tuple[str, bytes | None]:
        outcome, response = self._store.dedup_claim(
            key[0], key[1], takeover_after=self._takeover_after
        )
        with self._lock:
            if outcome == "done":
                self.hits += 1
            elif outcome == "owner":
                self.misses += 1
        return outcome, response

    def complete(self, key: tuple[str, int], response: bytes) -> None:
        """Record *response*; the same commit evicts completed entries more
        than ``capacity`` claims behind the newest."""
        self._store.dedup_complete(key[0], key[1], response, self._capacity)

    def release(self, key: tuple[str, int]) -> None:
        self._store.dedup_release(key[0], key[1])

    def __len__(self) -> int:
        return int(self._store.dedup_count())


class GalleryService:
    """Method-table dispatcher over a Gallery registry (+ optional engine)."""

    def __init__(self, gallery: Gallery, engine: RuleEngine | None = None) -> None:
        self._gallery = gallery
        self._engine = engine
        # The read-path micro-batcher.  Only the TCP server feeds it (via
        # ReadBatcher.offer); handle_frame dispatches directly and stays
        # unbatched.
        self.read_batcher = ReadBatcher(self)
        # Exactly-once bookkeeping lives in the store, so every service
        # over one gallery (one process or many replicas) shares it.
        self.dedup = RequestDedupCache(gallery.dal)
        self._methods: dict[str, Callable[..., Any]] = {
            # Listing 3
            "createGalleryModel": self._create_model,
            "uploadModel": self._upload_model,
            # Listing 4
            "insertModelInstanceMetric": self._insert_metric,
            "insertModelInstanceMetrics": self._insert_metrics,
            # Listing 5
            "modelQuery": self._model_query,
            # fetch / serve
            "getModel": self._get_model,
            "getModelInstance": self._get_instance,
            "loadModelBlob": self._load_blob,
            "loadModelBlobRange": self._load_blob_range,
            "latestInstance": self._latest_instance,
            "instancesOf": self._instances_of,
            "metricsOf": self._metrics_of,
            "metricsForInstances": self._metrics_for_instances,
            # lifecycle / deprecation
            "deprecateModel": self._deprecate_model,
            "deprecateInstance": self._deprecate_instance,
            # families & serving assignments
            "familyQuery": self._family_query,
            "servingFor": self._serving_for,
            "assignServing": self._assign_serving,
            "enableInstance": self._enable_instance,
            "disableInstance": self._disable_instance,
            # dependencies
            "addDependency": self._add_dependency,
            "upstreamOf": self._upstream_of,
            "downstreamOf": self._downstream_of,
            # health
            "instanceHealth": self._instance_health,
            "metricHistory": self._metric_history,
            # lineage
            "lineageOf": self._lineage_of,
            # storage operations
            "auditStorage": self._audit_storage,
            "collectOrphans": self._collect_orphans,
            # fleet control plane
            "fleetStatus": self._fleet_status,
            "fleetDrain": self._fleet_drain,
            "fleetUndrain": self._fleet_undrain,
            "serverStats": self._server_stats,
            # rule engine
            "selectModel": self._select_model,
            "triggerRule": self._trigger_rule,
        }
        # -- drain state: flip via drain()/undrain(); data-plane requests
        # are refused (typed, retryable) while set, in-flight ones finish.
        self._draining = threading.Event()
        self._drain_started_at: float | None = None
        self._inflight = 0
        self._drain_cond = threading.Condition()

    # -- graceful drain -------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def active_requests(self) -> int:
        """Data-plane requests currently executing (admin calls excluded)."""
        return self._inflight

    def drain(self) -> None:
        """Stop accepting new data-plane work; in-flight requests finish.

        Idempotent.  New non-admin requests are answered with a typed,
        retryable :class:`ReplicaDrainingError` — a routing signal failover
        clients obey by re-sending elsewhere without penalizing this
        replica's breaker.
        """
        if not self._draining.is_set():
            self._drain_started_at = time.time()
            self._draining.set()

    def undrain(self) -> None:
        """Return the replica to service (idempotent)."""
        self._draining.clear()
        self._drain_started_at = None

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until every in-flight data-plane request has finished.

        Returns ``False`` if *timeout* elapsed with work still in flight.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._drain_cond:
            while self._inflight > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._drain_cond.wait(remaining)
        return True

    def _refusal_frame(self, request: wire.Request) -> bytes | None:
        """The drain rejection for *request*, or ``None`` when admitted."""
        if not self._draining.is_set() or request.method in ADMIN_METHODS:
            return None
        return wire.encode_response(
            wire.error_response(
                ReplicaDrainingError(
                    "replica is draining: request was not executed;"
                    " send it to another replica"
                ),
                request.request_id,
            )
        )

    def _begin_request(self, request: wire.Request) -> bool:
        """Count *request* in-flight; admin methods are never counted."""
        if request.method in ADMIN_METHODS:
            return False
        with self._drain_cond:
            self._inflight += 1
        return True

    def _end_request(self) -> None:
        with self._drain_cond:
            self._inflight -= 1
            if self._inflight <= 0:
                self._drain_cond.notify_all()

    def _fleet_status(self) -> dict[str, Any]:
        """This replica's serving state, as advertised on the wire."""
        draining = self._draining.is_set()
        return {
            "status": "draining" if draining else "serving",
            "draining": draining,
            "in_flight": self._inflight,
            "drain_started_at": self._drain_started_at,
        }

    def _fleet_drain(self) -> dict[str, Any]:
        self.drain()
        return self._fleet_status()

    def _fleet_undrain(self) -> dict[str, Any]:
        self.undrain()
        return self._fleet_status()

    def _server_stats(self) -> dict[str, Any]:
        """Live batcher/dedup counters for this replica.

        An admin method (answers during a drain) so operators can watch
        coalesce ratio and lane queue depths while shedding load.
        """
        return {
            "fleet": self._fleet_status(),
            "batching": self.read_batcher.stats_snapshot(),
            "request_dedup": {
                "entries": len(self.dedup),
                "hits": self.dedup.hits,
                "misses": self.dedup.misses,
            },
        }

    # -- dispatch -------------------------------------------------------------

    def methods(self) -> list[str]:
        return sorted(self._methods)

    def dispatch(self, request: Request) -> Response:
        handler = self._methods.get(request.method)
        if handler is None:
            return wire.error_response(
                UnknownMethodError(f"unknown method {request.method!r}"),
                request.request_id,
            )
        try:
            result = handler(**request.params)
        except TypeError as exc:
            # Bad parameter shapes surface as validation errors, not crashes.
            return wire.error_response(
                ValidationError(f"bad parameters for {request.method}: {exc}"),
                request.request_id,
            )
        except Exception as exc:  # noqa: BLE001 - service isolation boundary
            return wire.error_response(exc, request.request_id)
        return Response(ok=True, result=result, request_id=request.request_id)

    def handle_frame(self, data: bytes) -> bytes:
        """Full wire round-trip: decode, dedup, dispatch, encode.

        A mutating request that carries a (client_id, request_id) pair the
        service has already answered successfully is *not* re-executed; the
        stored response bytes are replayed.  This is what makes client-side
        write retries safe: a retried ``uploadModel`` whose first response
        was lost in transit returns the original instance instead of
        registering a second one.
        """
        single = self.handle_frame_stream(data, chunk_size=0).single
        assert single is not None  # chunk_size=0 never chunks
        return single

    def handle_frame_stream(
        self, data: bytes, chunk_size: int = wire.DEFAULT_CHUNK_SIZE
    ) -> wire.ResponseStream:
        """Stream-aware variant of :meth:`handle_frame`.

        Large responses come back as a chunk sequence so the server never
        materializes more than *chunk_size* of encoded body per in-flight
        response.  Everything that must stay a single frame does:
        ``chunk_size <= 0``, undecodable frames, and deduplicated mutations
        (the dedup cache stores replayable single-frame bytes).
        """
        try:
            request = wire.decode_request(data)
        except Exception as exc:  # noqa: BLE001
            # Echo the request_id whenever the frame header survives, so a
            # pipelined client can correlate the failure with the call that
            # caused it.
            request_id = wire.recover_request_id(data)
            frame = wire.encode_response(wire.error_response(exc, request_id))
            return wire.ResponseStream(single=frame, request_id=request_id)
        if chunk_size <= 0 or _dedup_key(request) is not None:
            return wire.ResponseStream(
                single=self._handle_request(request),
                request_id=request.request_id,
            )
        refusal = self._refusal_frame(request)
        if refusal is not None:
            return wire.ResponseStream(
                single=refusal, request_id=request.request_id
            )
        counted = self._begin_request(request)
        try:
            response = self.dispatch(request)
        finally:
            if counted:
                self._end_request()
        return wire.encode_response_stream(response, chunk_size=chunk_size)

    def _handle_request(self, request: wire.Request) -> bytes:
        refusal = self._refusal_frame(request)
        if refusal is not None:
            return refusal
        counted = self._begin_request(request)
        try:
            return self._execute_request(request)
        finally:
            if counted:
                self._end_request()

    def _execute_request(self, request: wire.Request) -> bytes:
        dedup_key = _dedup_key(request)
        if dedup_key is not None:
            try:
                outcome, cached = self.dedup.claim(dedup_key)
            except Exception as exc:  # noqa: BLE001 - store down: stay retryable
                return wire.encode_response(
                    wire.error_response(exc, request.request_id)
                )
            if outcome == "done":
                return cached  # type: ignore[return-value]
            if outcome == "pending":
                # Another replica (or an abandoned worker) is still executing
                # this exact frame.  Answer with a transient error so the
                # retrying client backs off instead of duplicating the write.
                return wire.encode_response(
                    wire.error_response(
                        ServiceError(
                            f"request {request.request_id} from client"
                            f" {request.client_id!r} is still in flight;"
                            " retry shortly"
                        ),
                        request.request_id,
                    )
                )
        try:
            response = self.dispatch(request)
            encoded = wire.encode_response(response)
        except Exception:
            if dedup_key is not None:
                self._release_quietly(dedup_key)
            raise
        if dedup_key is not None:
            try:
                if response.ok:
                    self.dedup.complete(dedup_key, encoded)
                else:
                    self.dedup.release(dedup_key)
            except Exception:  # noqa: BLE001
                # Bookkeeping hiccup (store flaked between dispatch and
                # record): the response itself is still valid; a stale
                # pending claim is reclaimed via the takeover timeout.
                pass
        return encoded

    def _release_quietly(self, dedup_key: tuple[str, int]) -> None:
        try:
            self.dedup.release(dedup_key)
        except Exception:  # noqa: BLE001 - best-effort cleanup
            pass

    # -- handlers -------------------------------------------------------------

    def _create_model(
        self,
        project: str,
        base_version_id: str,
        owner: str = "",
        description: str = "",
        metadata: Mapping[str, Any] | None = None,
        upstream_model_ids: list[str] | None = None,
        family: str = "",
    ) -> dict[str, Any]:
        model = self._gallery.create_model(
            project=project,
            base_version_id=base_version_id,
            owner=owner,
            description=description,
            metadata=metadata,
            upstream_model_ids=tuple(upstream_model_ids or ()),
            family=family,
        )
        return model.to_dict()

    def _upload_model(
        self,
        project: str,
        base_version_id: str,
        blob: bytes,
        metadata: Mapping[str, Any] | None = None,
        parent_instance_id: str | None = None,
        family: str | None = None,
        enabled: bool = True,
    ) -> dict[str, Any]:
        instance = self._gallery.upload_model(
            project=project,
            base_version_id=base_version_id,
            blob=wire.decode_blob(blob),
            metadata=metadata,
            parent_instance_id=parent_instance_id,
            family=family,
            enabled=enabled,
        )
        return instance.to_dict()

    def _insert_metric(
        self,
        instance_id: str,
        name: str,
        value: float,
        scope: str = "Validation",
        metadata: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        metric = self._gallery.insert_metric(
            instance_id, name, value, scope=scope, metadata=metadata
        )
        return metric.to_dict()

    def _insert_metrics(
        self,
        instance_id: str,
        values: Mapping[str, float],
        scope: str = "Validation",
    ) -> list[dict[str, Any]]:
        records = self._gallery.insert_metrics(instance_id, values, scope=scope)
        return [r.to_dict() for r in records]

    def _model_query(
        self,
        constraints: list[Mapping[str, Any]],
        include_deprecated: bool = False,
    ) -> list[dict[str, Any]]:
        instances = self._gallery.model_query(
            constraints, include_deprecated=include_deprecated
        )
        return [i.to_dict() for i in instances]

    def _get_model(self, model_id: str) -> dict[str, Any]:
        return self._gallery.get_model(model_id).to_dict()

    def _get_instance(self, instance_id: str) -> dict[str, Any]:
        return self._gallery.get_instance(instance_id).to_dict()

    def _load_blob(self, instance_id: str):
        # Raw bytes (or a zero-copy file region from a file-backed store —
        # the wire layer serves regions via os.sendfile on the event-loop
        # server and materializes them everywhere else).
        return self._gallery.load_instance_blob_payload(instance_id)

    def _load_blob_range(
        self, instance_id: str, offset: int, length: int
    ) -> dict[str, Any]:
        # Hot-slice reads: model loaders fetch tensor ranges without pulling
        # the whole artifact.  ``digest`` covers exactly the returned bytes
        # so clients verify sub-ranges end-to-end.  ``data`` is last so a
        # region payload sits at the tail of the encoded frame, which is
        # what lets the event-loop server sendfile it.
        blob_range = self._gallery.load_instance_blob_range(
            instance_id, offset, length
        )
        return {
            "offset": blob_range.offset,
            "length": blob_range.length,
            "blob_size": blob_range.blob_size,
            "digest": blob_range.digest,
            "data": blob_range.payload,
        }

    def _latest_instance(self, base_version_id: str) -> dict[str, Any]:
        return self._gallery.latest_instance(base_version_id).to_dict()

    def _instances_of(
        self, base_version_id: str, include_deprecated: bool = False
    ) -> list[dict[str, Any]]:
        instances = self._gallery.instances_of(
            base_version_id, include_deprecated=include_deprecated
        )
        return [i.to_dict() for i in instances]

    def _metrics_of(self, instance_id: str) -> list[dict[str, Any]]:
        return [m.to_dict() for m in self._gallery.metrics_of(instance_id)]

    def _metrics_for_instances(
        self, instance_ids: list[str]
    ) -> dict[str, list[dict[str, Any]]]:
        metrics = self._gallery.metrics_for_instances(instance_ids)
        return {
            instance_id: [m.to_dict() for m in records]
            for instance_id, records in metrics.items()
        }

    def _deprecate_model(self, model_id: str) -> dict[str, Any]:
        return self._gallery.deprecate_model(model_id).to_dict()

    def _deprecate_instance(self, instance_id: str) -> dict[str, Any]:
        return self._gallery.deprecate_instance(instance_id).to_dict()

    def _family_query(
        self,
        family: str,
        include_disabled: bool = False,
        include_deprecated: bool = False,
        models: bool = False,
    ) -> list[dict[str, Any]]:
        """Members of a family: servable instances by default, or models."""
        if models:
            records = self._gallery.models_in_family(
                family, include_deprecated=include_deprecated
            )
        else:
            records = self._gallery.instances_in_family(
                family,
                include_disabled=include_disabled,
                include_deprecated=include_deprecated,
            )
        return [record.to_dict() for record in records]

    def _serving_for(self, scope: str) -> dict[str, Any]:
        return self._gallery.serving_for(scope).to_dict()

    def _assign_serving(
        self, scope: str, instance_id: str, reason: str = ""
    ) -> dict[str, Any]:
        return self._gallery.assign_serving(
            scope, instance_id, reason=reason
        ).to_dict()

    def _enable_instance(self, instance_id: str) -> dict[str, Any]:
        return self._gallery.enable_instance(instance_id).to_dict()

    def _disable_instance(self, instance_id: str) -> dict[str, Any]:
        return self._gallery.disable_instance(instance_id).to_dict()

    def _add_dependency(self, downstream_id: str, upstream_id: str) -> list[dict[str, Any]]:
        events = self._gallery.add_dependency(downstream_id, upstream_id)
        return [
            {
                "model_id": e.model_id,
                "old_version": str(e.old_version),
                "new_version": str(e.new_version),
                "cause": e.cause.value,
            }
            for e in events
        ]

    def _upstream_of(self, model_id: str, transitive: bool = False) -> list[str]:
        return sorted(self._gallery.upstream(model_id, transitive))

    def _downstream_of(self, model_id: str, transitive: bool = False) -> list[str]:
        return sorted(self._gallery.downstream(model_id, transitive))

    def _instance_health(self, instance_id: str) -> dict[str, Any]:
        report = self._gallery.instance_health(instance_id)
        return {
            "instance_id": report.instance_id,
            "healthy": report.healthy,
            "issues": list(report.issues),
            "completeness_score": report.completeness.score,
            "scopes_reporting": list(report.scopes_reporting),
        }

    def _metric_history(
        self, instance_id: str, name: str, scope: str | None = None
    ) -> list[dict[str, Any]]:
        records = self._gallery.metric_history(instance_id, name, scope=scope)
        return [record.to_dict() for record in records]

    def _lineage_of(self, base_version_id: str) -> list[dict[str, Any]]:
        entries = self._gallery.instances_of(base_version_id, include_deprecated=True)
        if not entries:
            raise NotFoundError(f"unknown base version id: {base_version_id!r}")
        return [
            {
                "instance_id": entry.instance_id,
                "created_time": entry.created_time,
                "parent_instance_id": entry.parent_instance_id,
            }
            for entry in entries
        ]

    def _audit_storage(self) -> dict[str, Any]:
        audit = self._gallery.dal.audit_consistency()
        summary = self._gallery.dal.storage_summary()
        summary["document_cache"] = self._gallery.document_cache_stats()
        summary["request_dedup"] = {
            "entries": len(self.dedup),
            "hits": self.dedup.hits,
            "misses": self.dedup.misses,
        }
        summary["batching"] = self.read_batcher.stats_snapshot()
        return {
            "consistent": audit.consistent,
            "orphan_blobs": list(audit.orphan_blobs),
            "dangling_instances": list(audit.dangling_instances),
            "summary": summary,
        }

    def _collect_orphans(self) -> list[str]:
        return self._gallery.dal.collect_orphan_blobs()

    def _require_engine(self) -> RuleEngine:
        if self._engine is None:
            raise ValidationError("this service was built without a rule engine")
        return self._engine

    def _select_model(self, rule: Mapping[str, Any]) -> dict[str, Any]:
        engine = self._require_engine()
        result = engine.select(Rule.from_dict(rule))
        return {
            "rule_uuid": result.rule_uuid,
            "instance_id": result.instance_id,
            "candidates_considered": result.candidates_considered,
            "candidates_eligible": result.candidates_eligible,
        }

    def _trigger_rule(self, rule_uuid: str) -> int:
        engine = self._require_engine()
        engine.trigger(rule_uuid)
        return len(engine.drain())
