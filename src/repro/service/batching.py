"""Server-side micro-batching for the read path.

One replica, N concurrent readers: many of them ask for the same
coordinate at once (a hot serving scope, a popular model).  This module
is the cross-request batcher layered in front of
:class:`~repro.service.server.GalleryService`: the server's event loop
offers read-class frames itself — socket to queue with no worker thread
in between — into one FIFO queue, a collector thread takes whatever is
queued as one batch, and identical ``(method, params)`` lookups inside a
batch are answered by a single ``dispatch``.  Every waiter still gets its
own response frame carrying its own ``request_id`` — results are shared
*computation*, never shared frames, so coalescing cannot leak one tenant's
response envelope into another's.

The collector never holds a batch open to wait for more arrivals.
TF-Serving (Olston et al.) does, because its kernels run a batch at
near-flat cost; here a batch runs one ``dispatch`` per unique key, so a
hold window would only add latency.  Requests that arrive while a batch
executes form the next batch, so batch size follows load with no timer
to tune.  The batcher admits every read it is offered and has no
settings.

Mutations, blob streaming, and admin/drain methods never enter the queue:
the event loop routes on :func:`~repro.service.wire.peek_method` and sends
them to its worker pool, and :meth:`ReadBatcher.offer` declines them the
same way, before decoding any params, when called directly.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Any

from . import wire

__all__ = ["BATCHABLE_METHODS", "ReadBatcher"]

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

#: Most waiters the collector takes off the queue as one batch.
_MAX_BATCH = 64

#: Batch-size histogram bucket labels (upper bounds; last is open-ended).
_HISTOGRAM_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


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
    the encoded response frame, from the collector thread (or inline,
    when ``offer`` races :meth:`close`).
    """

    def __init__(self, service: Any) -> None:
        self._service = service
        self._cond = threading.Condition()
        self._queue: deque[_Waiter] = deque()
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
        self._admitted = 0

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
        counted = self._service._begin_request(request)
        waiter = _Waiter(request=request, deliver=deliver, counted=counted)
        with self._cond:
            if self._stopped:
                pass  # fall through: execute inline below
            else:
                self._queue.append(waiter)
                self._admitted += 1
                self._ensure_collector()
                self._cond.notify()
                return True
        # Raced with close(): answer inline so the waiter is never dropped.
        self._execute_batch([waiter])
        return True

    # -- collector -----------------------------------------------------------

    def _ensure_collector(self) -> None:
        """Lazily start the collector thread (caller holds the lock)."""
        if self._collector is None or not self._collector.is_alive():
            self._collector = threading.Thread(
                target=self._run, name="gallery-read-batcher", daemon=True
            )
            self._collector.start()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._stopped and not self._queue:
                    self._cond.wait()
                if self._stopped and not self._queue:
                    return
            batch = self._take()
            if batch:
                self._execute_batch(batch)

    def _take(self) -> list[_Waiter]:
        """Pop up to ``_MAX_BATCH`` queued waiters, oldest first."""
        with self._cond:
            queue = self._queue
            return [queue.popleft() for _ in range(min(len(queue), _MAX_BATCH))]

    # -- execution -----------------------------------------------------------

    def _execute_batch(self, batch: list[_Waiter]) -> None:
        groups = self._group(batch)
        # dispatch() folds handler errors into an error Response, so a
        # failure in one coordinate poisons only its own group.  Every
        # group runs before any frame goes out: each delivery wakes the
        # event loop, which would otherwise contend with the rest of the
        # batch for the GIL once per group.
        responses = [self._service.dispatch(group.request) for group in groups]
        with self._cond:
            self._batches += 1
            self._batched_requests += len(batch)
            self._coalesced += len(batch) - len(groups)
            self._histogram[self._bucket_label(len(batch))] += 1
        for group, response in zip(groups, responses):
            self._fan_out(group, response)

    def _group(self, batch: list[_Waiter]) -> list[_Group]:
        """Coalesce identical (method, params) lookups within the batch.

        The key deliberately ignores ``client_id``: two tenants asking for
        the same coordinate share one execution.  Each still receives its
        own frame with its own ``request_id``, so result *boundaries* never
        cross tenants.  Params that resist canonical JSON stay unshared.
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

    # -- observability & lifecycle --------------------------------------------

    @staticmethod
    def _bucket_label(size: int) -> str:
        for bound in _HISTOGRAM_BUCKETS:
            if size <= bound:
                return str(bound)
        return f"{_HISTOGRAM_BUCKETS[-1]}+"

    def stats_snapshot(self) -> dict[str, Any]:
        """Live counters, as exposed by ``serverStats`` / ``gallery gc``."""
        with self._cond:
            batched = self._batched_requests
            return {
                "batches": self._batches,
                "batched_requests": batched,
                "coalesced": self._coalesced,
                "coalesce_ratio": (
                    self._coalesced / batched if batched else 0.0
                ),
                "batch_size_histogram": dict(self._histogram),
                "queue_depth": len(self._queue),
                "admitted": self._admitted,
                # The batcher refuses nothing.  The key stays, always 0,
                # while gallerybench reports it as service.batching.refusals
                # (ROADMAP 9(h) retires both).
                "refusals": 0,
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
        while remainder := self._take():
            self._execute_batch(remainder)
