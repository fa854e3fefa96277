"""Language-neutral Gallery client (Section 4.1).

Mirrors the user workflow of Listings 3–5: create a model, upload a trained
instance with metadata, record performance metrics, and query models by
constraint.  The client is transport-agnostic — anything that maps a request
frame (bytes) to a response frame (bytes) works; :class:`InProcessTransport`
binds a client directly to a :class:`repro.service.server.GalleryService`
for tests and single-process deployments.  :meth:`GalleryClient.pipeline`
keeps many independent calls in flight at once; :func:`can_replay` and
:class:`MethodRetryPolicies` are the replay rule and the per-method retry
budgets :class:`~repro.service.endpoints.FailoverTransport` applies to
every frame, single or pipelined.
"""

from __future__ import annotations

import hashlib
import threading

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.core.ids import random_uuid
from repro.errors import BlobCorruptionError
from repro.reliability.policy import RetryPolicy
from repro.service import wire
from repro.service.server import MUTATING_METHODS, GalleryService

Transport = Callable[[bytes], bytes]

#: Methods safe to retry blindly: re-running them cannot change state.
#: Everything else mutates and may only be replayed when the request
#: carries a client_id the server deduplicates on (see
#: :data:`repro.service.server.MUTATING_METHODS`).
IDEMPOTENT_METHODS = frozenset(
    {
        "modelQuery",
        "getModel",
        "getModelInstance",
        "loadModelBlob",
        "loadModelBlobRange",
        "latestInstance",
        "instancesOf",
        "metricsOf",
        "metricsForInstances",
        "upstreamOf",
        "downstreamOf",
        "instanceHealth",
        "metricHistory",
        "lineageOf",
        "auditStorage",
        # families & serving assignments: pure reads.  assignServing and the
        # enablement flips are mutations and retry only under request-id
        # dedup like every other write.
        "familyQuery",
        "servingFor",
        "selectModel",
        # fleet control plane: drain/undrain are idempotent flips, status
        # is a pure read — all safe to retry without a client_id.
        "fleetStatus",
        "fleetDrain",
        "fleetUndrain",
        "serverStats",
    }
)


def can_replay(head: tuple[str, str] | None) -> bool:
    """Whether a request may go on the wire twice (the one replay rule).

    *head* is ``wire.peek_request_head(frame)``.  Reads may; a mutation only
    when it carries a ``client_id``, so the replicas' shared dedup table
    answers the second copy with the first one's response.  A frame whose
    head does not parse (``None``) may not.
    """
    if head is None:
        return False
    method, client_id = head
    if method in IDEMPOTENT_METHODS:
        return True
    return bool(client_id) and method in MUTATING_METHODS


#: Wire error types that signal a *transient* dependency failure worth
#: retrying.  Corruption and not-found are deterministic — re-asking gives
#: the same answer — so they are deliberately absent.
TRANSIENT_ERROR_TYPES = frozenset(
    {"ServiceError", "MetadataStoreError", "BlobStoreError", "StorageError"}
)

#: Methods that move model artifacts (megabytes, not rows).  They deserve a
#: different retry budget than cheap metadata reads: fewer attempts, longer
#: per-call patience.
BLOB_METHODS = frozenset({"loadModelBlob", "loadModelBlobRange", "uploadModel"})


def _verified_range(result: Mapping[str, Any]) -> bytes:
    """Decode a ``loadModelBlobRange`` result and verify its digest.

    Range reads cannot be checked against the whole-blob content address,
    so the server ships a SHA-256 of exactly the returned bytes; a mismatch
    means the payload was damaged somewhere past the server's own
    verification and must never be handed to a model loader.
    """
    data = wire.decode_blob(result["data"])
    digest = hashlib.sha256(data).hexdigest()
    if digest != result["digest"]:
        raise BlobCorruptionError(
            "blob range failed its SHA-256 digest check: expected "
            f"{result['digest']}, got {digest}"
        )
    return data


@dataclass(frozen=True)
class MethodRetryPolicies:
    """One :class:`RetryPolicy` per method class.

    A single global policy forces one compromise onto three very different
    workloads.  Cheap metadata reads can afford many fast retries; blob
    transfers are expensive enough that hammering a struggling store makes
    things worse, so they get fewer attempts with a longer deadline; and
    mutations stay conservative — they are only replayed at all when the
    server's request-id dedup makes the replay safe.

    ``for_method`` classifies: blob methods first (``uploadModel`` is both a
    mutation and a blob transfer — the transfer cost dominates), then
    mutations, then everything else as a read.
    """

    read: RetryPolicy
    blob: RetryPolicy
    mutation: RetryPolicy

    @classmethod
    def default(cls) -> "MethodRetryPolicies":
        return cls(
            read=RetryPolicy(max_attempts=5, base_delay=0.02, deadline=5.0),
            blob=RetryPolicy(max_attempts=3, base_delay=0.2, deadline=30.0),
            mutation=RetryPolicy(max_attempts=3, base_delay=0.05, deadline=10.0),
        )

    def for_method(self, method: str) -> RetryPolicy:
        if method in BLOB_METHODS:
            return self.blob
        if method in MUTATING_METHODS:
            return self.mutation
        return self.read


class InProcessTransport:
    """Binds a client to a service instance without a network."""

    def __init__(self, service: GalleryService) -> None:
        self._service = service
        self.frames_sent = 0

    def __call__(self, data: bytes) -> bytes:
        self.frames_sent += 1
        return self._service.handle_frame(data)


class GalleryClient:
    """Typed wrapper over the wire protocol.

    Every client carries a stable ``client_id``; combined with the
    monotonically increasing ``request_id`` it lets the server recognise a
    retried mutation and replay the stored response instead of executing
    it twice (exactly-once effect under at-least-once delivery).

    Request-id allocation is lock-protected so one client instance can be
    shared by many threads (and by :class:`ClientPipeline`, which allocates
    ids in bursts).
    """

    def __init__(
        self,
        transport: Transport,
        client_id: str | None = None,
    ) -> None:
        self._transport = transport
        self._id_lock = threading.Lock()
        self._next_request_id = 1
        self._client_id = client_id if client_id is not None else random_uuid()

    @property
    def client_id(self) -> str:
        return self._client_id

    def _allocate_request_id(self) -> int:
        with self._id_lock:
            request_id = self._next_request_id
            self._next_request_id += 1
            return request_id

    def _encode_call(self, method: str, params: dict[str, Any]) -> bytes:
        request = wire.Request(
            method=method,
            params=params,
            request_id=self._allocate_request_id(),
            client_id=self._client_id,
        )
        return wire.encode_request(request)

    def call(self, method: str, **params: Any) -> Any:
        """Low-level escape hatch: invoke any service method by name."""
        raw = self._transport(self._encode_call(method, params))
        response = wire.decode_response(raw)
        return response.raise_if_error()

    def close(self) -> None:
        """Release every connection the transport stack holds.

        Delegates to the transport's ``close()`` — which a
        :class:`~repro.service.endpoints.FailoverTransport` fans out to all
        endpoint connections — so no call path leaks sockets.  In-process
        transports have nothing to close and are a no-op.  The client
        remains usable afterwards: the next call simply dials fresh
        connections.
        """
        close = getattr(self._transport, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "GalleryClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- pipelining ------------------------------------------------------------

    def pipeline(self, timeout: float | None = None) -> "ClientPipeline":
        """Batch many independent calls into overlapping round-trips.

        Used as a context manager: queue calls inside the ``with`` block,
        read ``.result()`` from the returned handles after it exits (or
        after an explicit :meth:`ClientPipeline.flush`).  On a pipelined
        transport (one exposing ``submit_many``) the whole batch shares
        the wire concurrently; on any other transport the pipeline
        degrades to sequential calls with identical semantics.  Through
        :func:`~repro.service.connect`, each pipelined call gets the same
        failover, drain re-routing and retries as a single call, and
        *timeout* (default: the endpoint set's) bounds each first answer.
        """
        return ClientPipeline(self, timeout=timeout)

    def model_query_many(
        self,
        constraint_sets: Iterable[list[Mapping[str, Any]]],
        include_deprecated: bool = False,
    ) -> list[list[dict[str, Any]]]:
        """One pipelined modelQuery per constraint set, in order."""
        with self.pipeline() as pipe:
            handles = [
                pipe.model_query(constraints, include_deprecated=include_deprecated)
                for constraints in constraint_sets
            ]
        return [handle.result() for handle in handles]

    def load_model_blobs(self, instance_ids: Iterable[str]) -> dict[str, bytes]:
        """Fetch many model blobs with overlapping round-trips."""
        ids = list(instance_ids)
        with self.pipeline() as pipe:
            handles = [pipe.load_model_blob(instance_id) for instance_id in ids]
        return {
            instance_id: handle.result()
            for instance_id, handle in zip(ids, handles)
        }

    def insert_metrics_many(
        self,
        per_instance: Mapping[str, Mapping[str, float]],
        scope: str = "Validation",
    ) -> dict[str, list[dict[str, Any]]]:
        """Fan metric batches out to many instances in one pipeline."""
        items = list(per_instance.items())
        with self.pipeline() as pipe:
            handles = [
                pipe.insert_model_instance_metrics(instance_id, values, scope=scope)
                for instance_id, values in items
            ]
        return {
            instance_id: handle.result()
            for (instance_id, _values), handle in zip(items, handles)
        }

    # -- Listing 3 -------------------------------------------------------------

    def create_gallery_model(
        self,
        project: str,
        base_version_id: str,
        owner: str = "",
        description: str = "",
        metadata: Mapping[str, Any] | None = None,
        upstream_model_ids: list[str] | None = None,
        family: str = "",
    ) -> dict[str, Any]:
        return self.call(
            "createGalleryModel",
            project=project,
            base_version_id=base_version_id,
            owner=owner,
            description=description,
            metadata=metadata,
            upstream_model_ids=upstream_model_ids,
            family=family,
        )

    def upload_model(
        self,
        project: str,
        base_version_id: str,
        blob: bytes,
        metadata: Mapping[str, Any] | None = None,
        parent_instance_id: str | None = None,
        family: str | None = None,
        enabled: bool = True,
    ) -> dict[str, Any]:
        return self.call(
            "uploadModel",
            project=project,
            base_version_id=base_version_id,
            blob=bytes(blob),
            metadata=metadata,
            parent_instance_id=parent_instance_id,
            family=family,
            enabled=enabled,
        )

    # -- Listing 4 ---------------------------------------------------------------

    def insert_model_instance_metric(
        self,
        instance_id: str,
        name: str,
        value: float,
        scope: str = "Validation",
        metadata: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        return self.call(
            "insertModelInstanceMetric",
            instance_id=instance_id,
            name=name,
            value=value,
            scope=scope,
            metadata=metadata,
        )

    def insert_model_instance_metrics(
        self,
        instance_id: str,
        values: Mapping[str, float],
        scope: str = "Validation",
    ) -> list[dict[str, Any]]:
        return self.call(
            "insertModelInstanceMetrics",
            instance_id=instance_id,
            values=dict(values),
            scope=scope,
        )

    # -- Listing 5 -----------------------------------------------------------------

    def model_query(
        self,
        constraints: list[Mapping[str, Any]],
        include_deprecated: bool = False,
    ) -> list[dict[str, Any]]:
        return self.call(
            "modelQuery",
            constraints=constraints,
            include_deprecated=include_deprecated,
        )

    # -- fetching / serving ---------------------------------------------------------

    def get_model(self, model_id: str) -> dict[str, Any]:
        return self.call("getModel", model_id=model_id)

    def get_model_instance(self, instance_id: str) -> dict[str, Any]:
        return self.call("getModelInstance", instance_id=instance_id)

    def load_model_blob(self, instance_id: str) -> bytes:
        return wire.decode_blob(self.call("loadModelBlob", instance_id=instance_id))

    def load_blob_range(self, instance_id: str, offset: int, length: int) -> bytes:
        """Fetch ``blob[offset : offset + length]`` with digest verification.

        Requests past EOF clamp server-side (``offset == size`` returns
        empty bytes; a length overrunning the blob is truncated), so hot
        tensor slices can be read without knowing the artifact size first.
        """
        return _verified_range(
            self.call(
                "loadModelBlobRange",
                instance_id=instance_id,
                offset=offset,
                length=length,
            )
        )

    def latest_instance(self, base_version_id: str) -> dict[str, Any]:
        return self.call("latestInstance", base_version_id=base_version_id)

    def instances_of(
        self, base_version_id: str, include_deprecated: bool = False
    ) -> list[dict[str, Any]]:
        return self.call(
            "instancesOf",
            base_version_id=base_version_id,
            include_deprecated=include_deprecated,
        )

    def metrics_of(self, instance_id: str) -> list[dict[str, Any]]:
        return self.call("metricsOf", instance_id=instance_id)

    def metrics_for_instances(
        self, instance_ids: list[str]
    ) -> dict[str, list[dict[str, Any]]]:
        """Batched metricsOf: one round-trip for many instances."""
        return self.call("metricsForInstances", instance_ids=list(instance_ids))

    # -- lifecycle / dependencies -----------------------------------------------------

    def deprecate_model(self, model_id: str) -> dict[str, Any]:
        return self.call("deprecateModel", model_id=model_id)

    def deprecate_instance(self, instance_id: str) -> dict[str, Any]:
        return self.call("deprecateInstance", instance_id=instance_id)

    def add_dependency(self, downstream_id: str, upstream_id: str) -> list[dict[str, Any]]:
        return self.call(
            "addDependency", downstream_id=downstream_id, upstream_id=upstream_id
        )

    def upstream_of(self, model_id: str, transitive: bool = False) -> list[str]:
        return self.call("upstreamOf", model_id=model_id, transitive=transitive)

    def downstream_of(self, model_id: str, transitive: bool = False) -> list[str]:
        return self.call("downstreamOf", model_id=model_id, transitive=transitive)

    # -- families & serving assignments ------------------------------------------------

    def family_query(
        self,
        family: str,
        include_disabled: bool = False,
        include_deprecated: bool = False,
        models: bool = False,
    ) -> list[dict[str, Any]]:
        """Members of *family*: servable instances by default, or models."""
        return self.call(
            "familyQuery",
            family=family,
            include_disabled=include_disabled,
            include_deprecated=include_deprecated,
            models=models,
        )

    def serving_for(self, scope: str) -> dict[str, Any]:
        """The durable serving assignment for *scope* (live store read)."""
        return self.call("servingFor", scope=scope)

    def assign_serving(
        self, scope: str, instance_id: str, reason: str = ""
    ) -> dict[str, Any]:
        """Atomically re-point *scope* at an enabled instance."""
        return self.call(
            "assignServing", scope=scope, instance_id=instance_id, reason=reason
        )

    def enable_instance(self, instance_id: str) -> dict[str, Any]:
        return self.call("enableInstance", instance_id=instance_id)

    def disable_instance(self, instance_id: str) -> dict[str, Any]:
        return self.call("disableInstance", instance_id=instance_id)

    # -- health / rules -------------------------------------------------------------

    def instance_health(self, instance_id: str) -> dict[str, Any]:
        return self.call("instanceHealth", instance_id=instance_id)

    def metric_history(
        self, instance_id: str, name: str, scope: str | None = None
    ) -> list[dict[str, Any]]:
        return self.call(
            "metricHistory", instance_id=instance_id, name=name, scope=scope
        )

    def lineage_of(self, base_version_id: str) -> list[dict[str, Any]]:
        return self.call("lineageOf", base_version_id=base_version_id)

    def audit_storage(self) -> dict[str, Any]:
        return self.call("auditStorage")

    def fleet_status(self) -> dict[str, Any]:
        """The answering replica's serving/draining state."""
        return self.call("fleetStatus")

    def fleet_drain(self) -> dict[str, Any]:
        """Flip the answering replica into draining (idempotent)."""
        return self.call("fleetDrain")

    def fleet_undrain(self) -> dict[str, Any]:
        """Return the answering replica to service (idempotent)."""
        return self.call("fleetUndrain")

    def server_stats(self) -> dict[str, Any]:
        """The answering replica's live batcher and dedup counters."""
        return self.call("serverStats")

    def collect_orphans(self) -> list[str]:
        return self.call("collectOrphans")

    def select_model(self, rule: Mapping[str, Any]) -> dict[str, Any]:
        return self.call("selectModel", rule=dict(rule))

    def trigger_rule(self, rule_uuid: str) -> int:
        return self.call("triggerRule", rule_uuid=rule_uuid)


class PipelineHandle:
    """Deferred result of one pipelined call.

    ``result()`` raises exactly what the equivalent synchronous call would
    have raised: transport errors surface as-is, server error responses go
    through :meth:`Response.raise_if_error`.  Reading a handle before its
    pipeline has flushed is a programming error.
    """

    __slots__ = ("_decode", "_error", "_ready", "_value")

    def __init__(self, decode: Callable[[Any], Any] | None = None) -> None:
        self._decode = decode
        self._error: BaseException | None = None
        self._value: Any = None
        self._ready = False

    def done(self) -> bool:
        return self._ready

    def _resolve(self, raw: bytes) -> None:
        try:
            self._value = wire.decode_response(raw).raise_if_error()
            if self._decode is not None:
                self._value = self._decode(self._value)
        except BaseException as exc:  # noqa: BLE001 - delivered via result()
            self._error = exc
        self._ready = True

    def _fail(self, exc: BaseException) -> None:
        self._error = exc
        self._ready = True

    def result(self) -> Any:
        if not self._ready:
            raise RuntimeError("pipeline not flushed; call result() after flush()")
        if self._error is not None:
            raise self._error
        return self._value


class ClientPipeline:
    """Batches calls from one :class:`GalleryClient` onto the wire at once.

    Calls queue locally until :meth:`flush` (the ``with`` block exit).  A
    pipelined transport receives the whole batch via ``submit_many`` — one
    write, responses correlated by request_id as they arrive out of order —
    while a plain transport falls back to one synchronous exchange per
    call.  Over a :class:`~repro.service.endpoints.FailoverTransport`
    every handle settles under the same retry, failover and drain rules
    as a single call.  Either way every handle is resolved by the time
    ``flush`` returns; a failed call parks its exception in its own handle
    rather than aborting the rest of the batch.
    """

    def __init__(self, client: GalleryClient, timeout: float | None = None) -> None:
        self._client = client
        self._timeout = timeout
        self._queued: list[tuple[bytes, PipelineHandle]] = []

    def call(
        self,
        method: str,
        _decode: Callable[[Any], Any] | None = None,
        **params: Any,
    ) -> PipelineHandle:
        """Queue an arbitrary method call; returns its handle."""
        frame = self._client._encode_call(method, params)
        handle = PipelineHandle(_decode)
        self._queued.append((frame, handle))
        return handle

    def __len__(self) -> int:
        return len(self._queued)

    def flush(self) -> None:
        """Send everything queued and resolve every handle."""
        queued, self._queued = self._queued, []
        if not queued:
            return
        submit_many = getattr(self._client._transport, "submit_many", None)
        if submit_many is None:
            for frame, handle in queued:
                try:
                    handle._resolve(self._client._transport(frame))
                except BaseException as exc:  # noqa: BLE001
                    handle._fail(exc)
            return
        try:
            exchanges = submit_many([frame for frame, _handle in queued])
        except BaseException as exc:  # noqa: BLE001 - batch never left
            for _frame, handle in queued:
                handle._fail(exc)
            raise
        for exchange, (_frame, handle) in zip(exchanges, queued):
            try:
                handle._resolve(exchange.wait(self._timeout))
            except BaseException as exc:  # noqa: BLE001
                handle._fail(exc)

    def __enter__(self) -> "ClientPipeline":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is None:
            self.flush()

    # -- typed helpers mirroring the client surface ----------------------------

    def model_query(
        self,
        constraints: list[Mapping[str, Any]],
        include_deprecated: bool = False,
    ) -> PipelineHandle:
        return self.call(
            "modelQuery",
            constraints=constraints,
            include_deprecated=include_deprecated,
        )

    def get_model(self, model_id: str) -> PipelineHandle:
        return self.call("getModel", model_id=model_id)

    def get_model_instance(self, instance_id: str) -> PipelineHandle:
        return self.call("getModelInstance", instance_id=instance_id)

    def load_model_blob(self, instance_id: str) -> PipelineHandle:
        return self.call(
            "loadModelBlob", _decode=wire.decode_blob, instance_id=instance_id
        )

    def load_blob_range(
        self, instance_id: str, offset: int, length: int
    ) -> PipelineHandle:
        return self.call(
            "loadModelBlobRange",
            _decode=_verified_range,
            instance_id=instance_id,
            offset=offset,
            length=length,
        )

    def latest_instance(self, base_version_id: str) -> PipelineHandle:
        return self.call("latestInstance", base_version_id=base_version_id)

    def metrics_of(self, instance_id: str) -> PipelineHandle:
        return self.call("metricsOf", instance_id=instance_id)

    def insert_model_instance_metric(
        self,
        instance_id: str,
        name: str,
        value: float,
        scope: str = "Validation",
        metadata: Mapping[str, Any] | None = None,
    ) -> PipelineHandle:
        return self.call(
            "insertModelInstanceMetric",
            instance_id=instance_id,
            name=name,
            value=value,
            scope=scope,
            metadata=metadata,
        )

    def insert_model_instance_metrics(
        self,
        instance_id: str,
        values: Mapping[str, float],
        scope: str = "Validation",
    ) -> PipelineHandle:
        return self.call(
            "insertModelInstanceMetrics",
            instance_id=instance_id,
            values=dict(values),
            scope=scope,
        )


def connect_in_process(
    service: GalleryService,
) -> GalleryClient:
    """Build a client wired straight to *service*."""
    return GalleryClient(InProcessTransport(service))
