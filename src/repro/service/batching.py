"""Server-side micro-batching + multi-tenant QoS for the read path.

One replica, N concurrent readers: without batching every ``modelQuery`` /
``getModel`` / metric read costs its own trip into the sharded store, even
when the coordinates overlap.  This module is the cross-request batcher
layered in front of :class:`~repro.service.server.GalleryService`: the
server's event loop offers read-class frames itself — socket to queue
with no worker thread in between — into a per-lane queue, a collector
thread takes whatever is queued as one batch, identical coordinate
lookups inside a batch are answered by a single execution, and groups of
distinct single-coordinate lookups collapse into one batched DAL call
(``get_models`` / ``metrics_for_instances``).  Every waiter still gets its
own response frame carrying its own ``request_id`` — results are shared
*computation*, never shared frames, so coalescing cannot leak one tenant's
response envelope into another's.

The collector never holds a batch open to wait for more arrivals.
TF-Serving (Olston et al.) does, because its kernels run a batch at
near-flat cost; here most of a batch runs one ``dispatch`` per unique key,
and the batched executors amortise over whatever is already queued.
Requests that arrive while a batch executes form the next batch, so batch
size follows load with no timer to tune.

The same queue is fronted by multi-tenant QoS:

* **Token buckets** per ``client_id`` (absent ids share one "anonymous"
  bucket).  An over-budget request is refused immediately with a typed,
  retryable :class:`~repro.errors.RateLimitedError` carrying a
  ``retry_after`` hint — a routing signal, not a failure, which
  :class:`~repro.service.endpoints.FailoverTransport` obeys by re-sending
  elsewhere without penalizing this replica's breaker.
* **Two weighted lanes** (``interactive`` vs ``bulk``, chosen by the
  request's wire-level ``lane`` field).  The collector drains four
  interactive waiters for every bulk one, so a bulk tenant at 10x offered
  load cannot starve interactive reads of the batch budget.

Mutations, blob streaming, and admin/drain methods never enter the queue:
the event loop routes on :func:`~repro.service.wire.peek_method` and sends
them to its worker pool, and :meth:`ReadBatcher.offer` declines them the
same way, before decoding any params, when called directly.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import NotFoundError, RateLimitedError

from . import wire

__all__ = [
    "BATCHABLE_METHODS",
    "ANONYMOUS_TENANT",
    "BatchConfig",
    "ReadBatcher",
    "TokenBucket",
]

#: Read-class methods eligible for cross-request batching.  Everything
#: else — mutations (dedup-cached), blob streaming (chunked responses),
#: admin/drain control plane — dispatches on the normal path.
BATCHABLE_METHODS = frozenset(
    {
        "modelQuery",
        "familyQuery",
        "servingFor",
        "getModel",
        "getModelInstance",
        "latestInstance",
        "instancesOf",
        "metricsOf",
        "metricsForInstances",
        "metricHistory",
    }
)

#: Bucket shared by every request that carries no ``client_id``.
ANONYMOUS_TENANT = "<anonymous>"

#: Most waiters the collector takes off the lanes as one batch.
_MAX_BATCH = 64

#: Weighted round-robin drain order: four interactive waiters per bulk one.
_LANE_WEIGHTS = ((wire.LANE_INTERACTIVE, 4), (wire.LANE_BULK, 1))

#: Batch-size histogram bucket labels (upper bounds; last is open-ended).
_HISTOGRAM_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True, slots=True)
class BatchConfig:
    """Per-tenant rate limiting in front of the read-path batcher.

    ``rate_limit`` is tokens (requests) per second per tenant;
    ``burst`` is the bucket capacity (defaults to one second of refill,
    and never less than one token).  ``None`` disables rate limiting —
    lanes and coalescing still apply.  A limit the buckets could not
    apply as given is refused with ``ValueError``.
    """

    rate_limit: float | None = None
    burst: float | None = None

    def __post_init__(self) -> None:
        if self.rate_limit is None:
            if self.burst is not None:
                raise ValueError("burst needs a rate_limit")
            return
        if not 0 < self.rate_limit < math.inf:
            raise ValueError("rate_limit must be positive and finite (or None)")
        if self.burst is not None and not 1 <= self.burst < math.inf:
            raise ValueError("burst must be >= 1 and finite")

    @property
    def bucket_capacity(self) -> float | None:
        """The capacity every tenant bucket gets; ``None`` when unlimited."""
        if self.rate_limit is None:
            return None
        return self.burst if self.burst is not None else max(self.rate_limit, 1.0)

    def to_dict(self) -> dict[str, Any]:
        """Config as stamped into ``serverStats``."""
        return {"rate_limit": self.rate_limit, "burst": self.bucket_capacity}


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/sec, capped at ``capacity``.

    Not thread-safe on its own — the batcher serializes access under its
    queue lock.
    """

    __slots__ = ("rate", "capacity", "tokens", "updated", "refusals")

    def __init__(self, rate: float, capacity: float, now: float) -> None:
        self.rate = rate
        self.capacity = max(capacity, 1.0)
        self.tokens = self.capacity
        self.updated = now
        self.refusals = 0

    def try_take(self, now: float) -> bool:
        elapsed = now - self.updated
        if elapsed > 0:
            self.tokens = min(self.capacity, self.tokens + elapsed * self.rate)
            self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until one token is available again."""
        deficit = 1.0 - self.tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


@dataclass(slots=True)
class _Waiter:
    """One admitted request parked in the queue until its batch executes."""

    request: wire.Request
    deliver: Callable[[bytes], None]
    counted: bool  # did _begin_request count it toward drain accounting?


@dataclass(slots=True)
class _Group:
    """All waiters in one batch that asked the same (method, params)."""

    request: wire.Request  # representative
    waiters: list[_Waiter] = field(default_factory=list)


class ReadBatcher:
    """Per-replica cross-request micro-batcher over a ``GalleryService``.

    The event-loop server offers read-class frames via :meth:`offer` from
    its loop thread, so ``offer`` must stay cheap: it never touches the
    store.  ``offer`` returns ``False`` to decline (not a read, frame
    undecodable, replica draining, batcher closed) — the caller then
    dispatches on its worker pool.  ``True`` means the batcher took
    ownership: the ``deliver`` callback will be invoked exactly once with
    the encoded response frame, from the collector thread (or inline, for
    QoS refusals).
    """

    def __init__(
        self,
        service: Any,
        config: BatchConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._service = service
        self.config = config or BatchConfig()
        self._clock = clock
        self._cond = threading.Condition()
        self._lanes: dict[str, deque[_Waiter]] = {
            wire.LANE_INTERACTIVE: deque(),
            wire.LANE_BULK: deque(),
        }
        self._buckets: dict[str, TokenBucket] = {}
        self._collector: threading.Thread | None = None
        self._stopped = False
        # -- counters (guarded by _cond's lock) --
        self._batches = 0
        self._batched_requests = 0
        self._coalesced = 0
        self._histogram = dict.fromkeys(
            [*(str(b) for b in _HISTOGRAM_BUCKETS), f"{_HISTOGRAM_BUCKETS[-1]}+"],
            0,
        )
        self._admitted = {wire.LANE_INTERACTIVE: 0, wire.LANE_BULK: 0}
        self._refusals = 0
        self._dal_batched_calls = {
            "getModel": 0,
            "metricsOf": 0,
            "metricsForInstances": 0,
        }

    # -- admission -----------------------------------------------------------

    def offer(self, frame: bytes, deliver: Callable[[bytes], None]) -> bool:
        """Try to take ownership of *frame*; ``False`` means "not mine"."""
        if self._stopped:
            return False
        if wire.peek_method(frame) not in BATCHABLE_METHODS:
            return False  # declined before paying for a params decode
        try:
            request = wire.decode_request(frame)
        except Exception:  # noqa: BLE001 - malformed: normal path answers
            return False
        if self._service.draining:
            return False  # normal path issues the typed drain refusal
        refusal = self._refuse_over_limit(request)
        if refusal is not None:
            deliver(refusal)
            return True
        counted = self._service._begin_request(request)
        waiter = _Waiter(request=request, deliver=deliver, counted=counted)
        lane = request.lane if request.lane in self._lanes else wire.LANE_INTERACTIVE
        with self._cond:
            if self._stopped:
                pass  # fall through: execute inline below
            else:
                self._lanes[lane].append(waiter)
                self._admitted[lane] += 1
                self._ensure_collector()
                self._cond.notify()
                return True
        # Raced with close(): answer inline so the waiter is never dropped.
        self._execute_batch([waiter])
        return True

    def _refuse_over_limit(self, request: wire.Request) -> bytes | None:
        """The QoS rejection frame for *request*, or ``None`` when admitted."""
        rate = self.config.rate_limit
        if rate is None:
            return None
        tenant = request.client_id or ANONYMOUS_TENANT
        now = self._clock()
        with self._cond:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(rate, self.config.bucket_capacity, now)
                self._buckets[tenant] = bucket
            if bucket.try_take(now):
                return None
            bucket.refusals += 1
            self._refusals += 1
            retry_after = max(bucket.retry_after(), 0.001)
        exc = RateLimitedError(
            f"tenant {tenant!r} is over its read rate limit"
            f" ({rate:g}/s): request was not executed;"
            f" retry_after={retry_after:.3f}s or send it to another replica",
            retry_after=retry_after,
        )
        return wire.encode_response(wire.error_response(exc, request.request_id))

    # -- collector -----------------------------------------------------------

    def _ensure_collector(self) -> None:
        """Lazily start the collector thread (caller holds the lock)."""
        if self._collector is None or not self._collector.is_alive():
            self._collector = threading.Thread(
                target=self._run, name="gallery-read-batcher", daemon=True
            )
            self._collector.start()

    def _queued(self) -> int:
        return sum(len(q) for q in self._lanes.values())

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._stopped and self._queued() == 0:
                    self._cond.wait()
                if self._stopped and self._queued() == 0:
                    return
            batch = self._drain_weighted(_MAX_BATCH)
            if batch:
                self._execute_batch(batch)

    def _drain_weighted(self, budget: int) -> list[_Waiter]:
        """Weighted round-robin drain of what is queued, up to *budget*."""
        out: list[_Waiter] = []
        with self._cond:
            while len(out) < budget and self._queued():
                for lane, weight in _LANE_WEIGHTS:
                    queue = self._lanes[lane]
                    for _ in range(min(weight, budget - len(out))):
                        if not queue:
                            break
                        out.append(queue.popleft())
        return out

    # -- execution -----------------------------------------------------------

    def _execute_batch(self, batch: list[_Waiter]) -> None:
        groups = self._group(batch)
        responses: dict[int, wire.Response] = {}
        leftovers: list[_Group] = []
        for method, runner in (
            ("getModel", self._run_get_models),
            ("metricsOf", self._run_metrics_of),
            ("metricsForInstances", self._run_metrics_for_instances),
        ):
            subset = [g for g in groups if g.request.method == method]
            if not subset:
                continue
            try:
                runner(subset, responses)
            except Exception:  # noqa: BLE001 - degrade to per-group dispatch
                for group in subset:
                    responses.pop(id(group), None)
                leftovers.extend(subset)
        batched_methods = {"getModel", "metricsOf", "metricsForInstances"}
        leftovers.extend(
            g for g in groups if g.request.method not in batched_methods
        )
        for group in leftovers:
            # dispatch() folds handler errors into an error Response, so a
            # failure in one coordinate poisons only its own group.
            responses[id(group)] = self._service.dispatch(group.request)
        with self._cond:
            self._batches += 1
            self._batched_requests += len(batch)
            self._coalesced += len(batch) - len(groups)
            self._histogram[self._bucket_label(len(batch))] += 1
        for group in groups:
            response = responses.get(id(group))
            if response is None:  # defensive: never strand a waiter
                response = wire.error_response(
                    RuntimeError("batch executor produced no response"),
                    group.request.request_id,
                )
            self._fan_out(group, response)

    def _group(self, batch: list[_Waiter]) -> list[_Group]:
        """Coalesce identical (method, params) lookups within the batch.

        The key deliberately ignores ``client_id`` and ``lane``: two
        tenants asking for the same coordinate share one execution.  Each
        still receives its own frame with its own ``request_id``, so result
        *boundaries* never cross tenants.  Params that resist canonical
        JSON stay unshared.
        """
        groups: dict[Any, _Group] = {}
        for waiter in batch:
            try:
                key: Any = (
                    waiter.request.method,
                    json.dumps(waiter.request.params, sort_keys=True),
                )
            except (TypeError, ValueError):
                key = object()  # unique: executes on its own
            group = groups.get(key)
            if group is None:
                group = _Group(request=waiter.request)
                groups[key] = group
            group.waiters.append(waiter)
        return list(groups.values())

    def _fan_out(self, group: _Group, response: wire.Response) -> None:
        for waiter in group.waiters:
            try:
                encoded = wire.encode_response(
                    replace(response, request_id=waiter.request.request_id)
                )
                waiter.deliver(encoded)
            except Exception:  # noqa: BLE001 - a dead conn can't poison peers
                pass
            finally:
                if waiter.counted:
                    self._service._end_request()

    # -- batched DAL executors ------------------------------------------------
    # Each mirrors its single-coordinate handler exactly (same result shape,
    # same NotFoundError message) but pays one store round-trip for the
    # whole batch.  Groups whose params don't match the canonical shape
    # are left out of `responses`, falling back to per-group dispatch.

    def _run_get_models(
        self, groups: list[_Group], responses: dict[int, wire.Response]
    ) -> None:
        eligible = [
            g
            for g in groups
            if set(g.request.params) == {"model_id"}
            and isinstance(g.request.params["model_id"], str)
        ]
        if not eligible:
            return
        ids = [g.request.params["model_id"] for g in eligible]
        found = self._service._gallery.dal.metadata.get_models(ids)
        with self._cond:
            self._dal_batched_calls["getModel"] += 1
        for group in eligible:
            model_id = group.request.params["model_id"]
            model = found.get(model_id)
            if model is None:
                responses[id(group)] = wire.error_response(
                    NotFoundError(f"no model {model_id!r}"),
                    group.request.request_id,
                )
            else:
                responses[id(group)] = wire.Response(
                    ok=True,
                    result=model.to_dict(),
                    request_id=group.request.request_id,
                )

    def _run_metrics_of(
        self, groups: list[_Group], responses: dict[int, wire.Response]
    ) -> None:
        eligible = [
            g
            for g in groups
            if set(g.request.params) == {"instance_id"}
            and isinstance(g.request.params["instance_id"], str)
        ]
        if not eligible:
            return
        ids = [g.request.params["instance_id"] for g in eligible]
        metrics = self._service._gallery.metrics_for_instances(ids)
        with self._cond:
            self._dal_batched_calls["metricsOf"] += 1
        for group in eligible:
            instance_id = group.request.params["instance_id"]
            records = metrics.get(instance_id, [])
            responses[id(group)] = wire.Response(
                ok=True,
                result=[m.to_dict() for m in records],
                request_id=group.request.request_id,
            )

    def _run_metrics_for_instances(
        self, groups: list[_Group], responses: dict[int, wire.Response]
    ) -> None:
        eligible = []
        for g in groups:
            params = g.request.params
            if set(params) == {"instance_ids"} and isinstance(
                params["instance_ids"], list
            ) and all(isinstance(i, str) for i in params["instance_ids"]):
                eligible.append(g)
        if not eligible:
            return
        union: list[str] = []
        seen: set[str] = set()
        for group in eligible:
            for instance_id in group.request.params["instance_ids"]:
                if instance_id not in seen:
                    seen.add(instance_id)
                    union.append(instance_id)
        merged = self._service._gallery.metrics_for_instances(union)
        with self._cond:
            self._dal_batched_calls["metricsForInstances"] += 1
        for group in eligible:
            requested = group.request.params["instance_ids"]
            responses[id(group)] = wire.Response(
                ok=True,
                result={
                    instance_id: [
                        m.to_dict() for m in merged.get(instance_id, [])
                    ]
                    for instance_id in requested
                },
                request_id=group.request.request_id,
            )

    # -- observability & lifecycle --------------------------------------------

    @staticmethod
    def _bucket_label(size: int) -> str:
        for bound in _HISTOGRAM_BUCKETS:
            if size <= bound:
                return str(bound)
        return f"{_HISTOGRAM_BUCKETS[-1]}+"

    def stats_snapshot(self) -> dict[str, Any]:
        """Live counters, as exposed by ``serverStats`` / ``gallery gc``."""
        now = self._clock()
        with self._cond:
            batched = self._batched_requests
            tenants = {}
            for tenant, bucket in self._buckets.items():
                # peek the refilled level without consuming a token
                level = min(
                    bucket.capacity,
                    bucket.tokens + max(0.0, now - bucket.updated) * bucket.rate,
                )
                tenants[tenant] = {
                    "tokens": round(level, 3),
                    "refusals": bucket.refusals,
                }
            return {
                "config": self.config.to_dict(),
                "batches": self._batches,
                "batched_requests": batched,
                "coalesced": self._coalesced,
                "coalesce_ratio": (
                    self._coalesced / batched if batched else 0.0
                ),
                "batch_size_histogram": dict(self._histogram),
                "dal_batched_calls": dict(self._dal_batched_calls),
                "queue_depth": {
                    lane: len(q) for lane, q in self._lanes.items()
                },
                "admitted": dict(self._admitted),
                "refusals": self._refusals,
                "tenants": tenants,
            }

    def close(self) -> None:
        """Stop the collector; queued waiters are executed, never dropped."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
            collector = self._collector
        if collector is not None and collector.is_alive():
            collector.join(timeout=5.0)
        # Anything still parked (collector never started, or died): flush.
        remainder = self._drain_weighted(self._queued() or 0)
        while remainder:
            self._execute_batch(remainder)
            remainder = self._drain_weighted(self._queued() or 0)
