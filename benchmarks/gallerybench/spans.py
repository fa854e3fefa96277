"""Span recording around each layer's public interface, and what is read off it.

A span is ``(id, parent, name, start, end, thread, n, tag)`` on
``time.perf_counter_ns`` — CLOCK_MONOTONIC on Linux, so the bench process and
the server subprocess share one clock.  ``parent`` is the span that was open
on the same thread when this one started; ``n`` is ``len(result)`` when the
call returned a sized collection; ``tag`` is whatever identifies the request
(resolved to ``client_id``, ``request_id`` and a coalescing key at dump time,
off the hot path).  Spans stay in memory until the process is told to stop.

Nothing here patches ``repro``: ``Traced`` is a delegating proxy that the
traced server composes around objects it constructs itself, and the client
side hands ``connect(transport_factory=...)`` a ``TimedTransport``.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict, namedtuple
from typing import Any, Callable

now_ns = time.perf_counter_ns

#: layer prefixes, outermost first — also the order the budget is printed in
LAYERS = (
    "service.client",
    "service.tcp",
    "service.batching",
    "service.server",
    "core.registry",
    "store.dal",
    "store.sharding",
    "store.blob",
)

_SIZED = (list, dict, tuple, set)


class SpanRecorder:
    """Append-only span list with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._open = threading.local()

    def next_id(self) -> int:
        return next(self._ids)

    def wrap(self, name: str, fn: Callable, tag_of: Callable | None = None) -> Callable:
        """*fn*, recorded as a span called *name* every time it runs."""
        spans, ids, open_ = self.spans, self._ids, self._open
        ident = threading.get_ident

        def traced(*args, **kwargs):
            try:
                stack = open_.stack
            except AttributeError:
                stack = open_.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            n = None
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, _SIZED):
                    n = len(result)
                return result
            finally:
                end = now_ns()
                stack.pop()
                tag = tag_of(*args, **kwargs) if tag_of else None
                spans.append((sid, parent, name, start, end, ident(), n, tag))

        return traced


class Traced:
    """Delegating proxy: public methods of *target* become ``layer.method`` spans.

    Non-callables and private names pass straight through, so code that was
    handed the proxy sees the same object it would have seen without it.
    """

    def __init__(self, target: Any, layer: str, recorder: SpanRecorder) -> None:
        self._target = target
        self._layer = layer
        self._recorder = recorder

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._target, name)
        if name.startswith("_") or not callable(value):
            return value
        wrapped = self._recorder.wrap(f"{self._layer}.{name}", value)
        self.__dict__[name] = wrapped  # next lookup skips __getattr__
        return wrapped


def trace_batcher(batcher: Any, recorder: SpanRecorder) -> None:
    """Record ``ReadBatcher.offer``: one span from offer to its deliver callback.

    An accepted frame's span crosses threads (offered on a worker, delivered
    by the collector), so it is a root; a declined frame leaves a short
    ``service.batching.declined`` span for what the decode-and-refuse cost.
    """
    spans, offer = recorder.spans, batcher.offer
    ident = threading.get_ident

    def traced_offer(frame: bytes, deliver: Callable[[bytes], None]) -> bool:
        sid, thread, start = recorder.next_id(), ident(), now_ns()

        def traced_deliver(encoded: bytes) -> None:
            spans.append(
                (sid, 0, "service.batching.offer", start, now_ns(), thread, None, frame)
            )
            deliver(encoded)

        accepted = offer(frame, traced_deliver)
        if not accepted:
            spans.append(
                (sid, 0, "service.batching.declined", start, now_ns(), thread, None, frame)
            )
        return accepted

    batcher.offer = traced_offer


class TimedTransport:
    """Client-side timing proxy around one endpoint's pipelined transport.

    Records a ``service.tcp.exchange`` span per frame — socket write to
    response reassembled, as the calling thread observes it — and keeps the
    first request/response frame pairs of the traced phase, up to ``KEEP``
    pairs or ``KEEP_BYTES`` (holding on to every 8 MiB response would starve
    the allocator and slow the very run being traced), for the codec replay.
    """

    KEEP = 256
    KEEP_BYTES = 24 * 1024 * 1024

    def __init__(self, inner: Any, client_id: str, recorder: SpanRecorder, peek) -> None:
        self._inner = inner
        self._client_id = client_id
        self._recorder = recorder
        self._peek = peek
        self.frames_sent = 0
        self.request_ids: set[int] = set()  # a retried call reuses its id
        self.response_bytes = 0
        self.responses = 0
        self.captured: list[tuple[bytes, bytes]] = []
        self._captured_bytes = 0
        #: capture only frames exchanged at or after this instant
        self.capture_from_ns = 0

    def _sent(self, frame: bytes) -> tuple[str, int]:
        """Count *frame*; returns the request it carries."""
        request_id = self._peek(frame)
        self.frames_sent += 1
        self.request_ids.add(request_id)
        return self._client_id, request_id

    def _done(self, sid: int, request: tuple, frame: bytes, start: int, raw: bytes) -> None:
        end = now_ns()
        self._recorder.spans.append(
            (sid, 0, "service.tcp.exchange", start, end, threading.get_ident(), None,
             request)
        )
        self.responses += 1
        self.response_bytes += len(raw)
        if (
            start >= self.capture_from_ns > 0
            and len(self.captured) < self.KEEP
            and self._captured_bytes < self.KEEP_BYTES
        ):
            self.captured.append((frame, raw))
            self._captured_bytes += len(raw)

    def __call__(self, frame: bytes) -> bytes:
        sid = self._recorder.next_id()
        request = self._sent(frame)
        start = now_ns()
        raw = self._inner(frame)
        self._done(sid, request, frame, start, raw)
        return raw

    def submit_many(self, frames: list[bytes]) -> list[Any]:
        requests = [self._sent(frame) for frame in frames]
        start = now_ns()
        exchanges = self._inner.submit_many(frames)
        return [
            _TimedExchange(self, self._recorder.next_id(), request, frame, start, exchange)
            for request, frame, exchange in zip(requests, frames, exchanges)
        ]

    def close(self) -> None:
        self._inner.close()


class _TimedExchange:
    __slots__ = ("_transport", "_sid", "_request", "_frame", "_start", "_inner")

    def __init__(self, transport, sid, request, frame, start, inner) -> None:
        self._transport, self._sid, self._request = transport, sid, request
        self._frame, self._start, self._inner = frame, start, inner

    def wait(self, timeout: float | None = None) -> bytes:
        raw = self._inner.wait(timeout)
        self._transport._done(self._sid, self._request, self._frame, self._start, raw)
        return raw

    def done(self) -> bool:
        return self._inner.done()


# -- dumping (server side) -----------------------------------------------------


def _coalesce_key(request: Any) -> str | None:
    """The key ``ReadBatcher`` groups identical lookups by."""
    try:
        return request.method + json.dumps(request.params, sort_keys=True)
    except (TypeError, ValueError):
        return None


def dump_server_spans(recorder: SpanRecorder, path: str, decode_request) -> None:
    """Resolve request tags and write the spans as one JSON array of rows.

    Row: ``[id, parent, name, start, end, thread, n, client_id, request_id, key]``.
    """
    rows = []
    for sid, parent, name, start, end, thread, n, tag in recorder.spans:
        client_id = request_id = key = None
        if tag is not None:
            try:
                request = decode_request(tag) if isinstance(tag, bytes) else tag
                client_id, request_id = request.client_id, request.request_id
                if name.startswith(("service.batching", "service.server.dispatch")):
                    key = _coalesce_key(request)
            except Exception:  # noqa: BLE001 - an undecodable frame stays unattributed
                pass
        rows.append([sid, parent, name, start, end, thread, n, client_id, request_id, key])
    with open(path, "w") as handle:
        json.dump(rows, handle)


# -- analysis ---------------------------------------------------------------------

Row = namedtuple(
    "Row", "id parent name start end thread n client_id request_id key"
)  # one dump_server_spans row
Exchange = namedtuple("Exchange", "id parent name start end thread n request")


def _merge(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The union of *intervals* as sorted, disjoint intervals."""
    merged: list[tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _length(intervals: list[tuple[int, int]]) -> int:
    return sum(end - start for start, end in intervals)


def _layer_of(name: str) -> str:
    for layer in LAYERS:
        if name.startswith(layer):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


def _median(values) -> float | None:
    """None, not 0, when nothing was measured: the metric does not apply."""
    values = list(values)
    return statistics.median(values) if values else None


def ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


_WRITES = ("insert_", "replace_", "assign_serving", "dedup_")
_BLOB_READS = ("store.blob.get", "store.blob.open_region", "store.blob.get_range")
_CANDIDATE_READS = (
    "store.sharding.find_instances_by_field",
    "store.sharding.instances_of_base_version",
    "store.sharding.instances_of_model",
)


class ServerSide:
    """The server's spans inside a window, joined to the requests they served.

    ``served[request]`` is every span that worked for ``(client_id,
    request_id)``; ``front[request]`` is the interval the server as a whole
    held it (offer to deliver for a batched read, ``handle_frame_stream``
    otherwise); ``self_ns[span id]`` is a span's duration minus what its
    children cover — for an offer, minus the dispatch that answered it.
    """

    def __init__(self, server_rows: list[list], lo: int, hi: int) -> None:
        rows = [Row._make(r) for r in server_rows if lo <= r[3] and r[4] <= hi]
        by_id = {r.id: r for r in rows}
        kids: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for r in rows:
            if r.parent in by_id:
                kids[r.parent].append((r.start, r.end))
        self.self_ns = {
            r.id: (r.end - r.start) - _length(_merge(kids[r.id])) for r in rows
        }
        subtree: dict[int, list[Row]] = defaultdict(list)  # root id -> its spans
        for r in rows:
            top = r
            while top.parent in by_id:
                top = by_id[top.parent]
            subtree[top.id].append(r)
        roots = [by_id[root] for root in subtree]

        # A dispatch on the collector thread answers every offer that carries
        # its coalescing key and was open around it.
        dispatches: dict[str, list[Row]] = defaultdict(list)
        for r in roots:
            if r.name == "service.server.dispatch" and r.key:
                dispatches[r.key].append(r)

        self.served: dict[tuple, list[Row]] = defaultdict(list)
        self.front: dict[tuple, tuple[int, int]] = {}
        self.wait_us: list[float] = []
        claimed: set[int] = set()
        unattributed = 0
        for r in roots:
            if r.name == "service.server.dispatch":
                continue  # reached through the offers it answered
            if r.client_id is None or r.request_id is None:
                unattributed += r.end - r.start
                continue
            request = (r.client_id, r.request_id)
            self.served[request].extend(subtree[r.id])
            if r.name != "service.batching.declined":
                self.front[request] = (r.start, r.end)
            if r.name != "service.batching.offer":
                continue
            answer = None
            for candidate in dispatches.get(r.key, ()):
                if candidate.start >= r.start and candidate.end <= r.end:
                    answer = candidate
            if answer is not None:
                self.self_ns[r.id] = (r.end - r.start) - (answer.end - answer.start)
                self.served[request].extend(subtree[answer.id])
                claimed.add(answer.id)
            self.wait_us.append(self.self_ns[r.id] / 1e3)
        # a dispatch no offer claimed joins no request either
        unattributed += sum(
            r.end - r.start
            for group in dispatches.values() for r in group if r.id not in claimed
        )
        total = sum(r.end - r.start for r in roots)
        self.unattributed_share = unattributed / total if total else 0.0


def analyse(
    server_rows: list[list],
    exchanges: list[tuple],
    ops: list[tuple[int, int, int, str]],
    window: tuple[int, int],
    primary: str,
) -> dict[str, Any]:
    """Per-layer numbers for the client ops that ran inside *window*.

    *server_rows* is ``dump_server_spans`` output, *exchanges* the client
    recorder's ``service.tcp.exchange`` spans, *ops* ``(thread, start, end,
    kind)`` per client op.  Per-call numbers are taken over every op; the
    per-op ones (``budget_us``, ``*_per_op``) over ops of the *primary* kind.
    Times come back in microseconds.

    Two views are taken.  Per call: a span's self time is its duration minus
    what its children cover.  Per op (``budget_us``): the op's wall time is
    split among the layers by giving every instant to the deepest layer that
    has a span open for the op at that instant — which partitions the wall
    time exactly, also when sixteen pipelined requests overlap.
    """
    lo, hi = window
    server = ServerSide(server_rows, lo, hi)

    exchanges_of: dict[int, list[Exchange]] = defaultdict(list)
    for span in map(Exchange._make, exchanges):
        if lo <= span.start and span.end <= hi:
            exchanges_of[span.thread].append(span)
    for group in exchanges_of.values():
        group.sort(key=lambda s: s.start)
    cursor: dict[int, int] = defaultdict(int)

    budget: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    exchange_us: list[float] = []
    residual_us: list[float] = []
    self_us: dict[str, list[float]] = defaultdict(list)  # per request, by layer / method
    durations: dict[str, list[float]] = defaultdict(list)
    calls = defaultdict(int)  # per primary op
    sharding_busy = rows_fetched = rows_returned = dal_blob_loads = 0
    ops = sorted((op for op in ops if lo <= op[1] and op[2] <= hi), key=lambda op: op[1])
    for thread, start, end, kind in ops:
        per_op = kind == primary
        group = exchanges_of[thread]
        i = cursor[thread]
        while i < len(group) and group[i].start < start:
            i += 1
        first = i
        while i < len(group) and group[i].end <= end:
            i += 1
        cursor[thread] = i
        open_in: dict[str, list[tuple[int, int]]] = {layer: [] for layer in LAYERS}
        open_in["service.client"].append((start, end))
        seen: set[int] = set()  # two coalesced requests share one dispatch
        for exchange in group[first:i]:
            took = exchange.end - exchange.start
            open_in["service.tcp"].append((exchange.start, exchange.end))
            exchange_us.append(took / 1e3)
            if exchange.request in server.front:
                held = server.front[exchange.request]
                residual_us.append((took - (held[1] - held[0])) / 1e3)
            sums: dict[str, float] = defaultdict(float)
            for span in server.served.get(exchange.request, ()):
                name, took = span.name, (span.end - span.start)
                layer = _layer_of(name)
                own = server.self_ns[span.id] / 1e3
                sums[layer] += own
                if layer == "core.registry":
                    sums[name] += own
                if span.id in seen:
                    continue
                seen.add(span.id)
                open_in[layer].append((span.start, span.end))
                calls[layer] += per_op
                if name == "core.registry.model_query":
                    rows_returned += span.n or 0
                elif layer == "store.sharding":
                    sharding_busy += took * per_op
                    if name in _CANDIDATE_READS:
                        rows_fetched += span.n or 0
                    if name.rsplit(".", 1)[1].startswith(_WRITES):
                        durations["commit"].append(took / 1e3)
                elif name == "store.blob.put":
                    durations["put"].append(took / 1e3)
                elif name in _BLOB_READS:
                    durations["read"].append(took / 1e3)
                elif name.startswith("store.dal.load_blob"):
                    dal_blob_loads += 1
            for key, value in sums.items():
                self_us[key].append(value)
        if not per_op:
            continue
        # Deepest layer first: an instant goes to the deepest span open in it.
        covered: list[tuple[int, int]] = []
        for layer in reversed(LAYERS):
            merged = _merge(covered + open_in[layer])
            budget[layer].append((_length(merged) - _length(covered)) / 1e3)
            covered = merged

    n_primary = len(budget["service.client"])
    if not n_primary:
        raise RuntimeError(f"no {primary} op completed inside the traced window")
    blob_reads = len(durations["read"])
    return {
        "ops": n_primary,
        "budget_us": {layer: _median(values) for layer, values in budget.items()},
        "service.client.self_us": _median(budget["service.client"]),
        "service.tcp.exchange_us": _median(exchange_us),
        "service.tcp.residual_us": _median(residual_us),
        "service.batching.wait_us": _median(server.wait_us),
        "service.server.self_us": _median(self_us["service.server"]),
        "core.registry.model_query_self_us": _median(self_us["core.registry.model_query"]),
        "core.registry.serving_for_self_us": _median(self_us["core.registry.serving_for"]),
        "core.registry.upload_model_self_us": _median(self_us["core.registry.upload_model"]),
        "core.registry.rows_per_result": ratio(rows_fetched, rows_returned),
        "store.dal.self_us": _median(self_us["store.dal"]),
        "store.cache.blob_hit_rate": ratio(
            max(0, dal_blob_loads - blob_reads), dal_blob_loads
        ),
        "store.sharding.busy_us_per_op": sharding_busy / 1e3 / n_primary,
        "store.sharding.calls_per_op": calls["store.sharding"] / n_primary,
        "store.sharding.commit_us": _median(durations["commit"]),
        "store.blob.put_us": _median(durations["put"]),
        "store.blob.read_us": _median(durations["read"]),
        "store.blob.calls_per_fetch": calls["store.blob"] / n_primary,
        "trace.unattributed_share": server.unattributed_share,
    }
