"""The benchmark's vocabulary: workloads, metrics, units, directions, bounds.

Everything that names a workload or a metric — the runner, ``compare``, the
test and ``BENCHMARK.json`` at the checkout root — reads it from here, so a
name is spelled once.  ``benchmark_json()`` renders the contract file; the
test asserts the tracked copy matches.
"""

from __future__ import annotations

from dataclasses import dataclass

#: whole seconds one run measures (the driver passes it back as --seconds).
RUN_SECONDS = 12
#: the timed phase is cut into this many equal segments; a timing metric is
#: the median of its per-segment values.
SEGMENTS = 6
#: closed-loop client threads — nproc of the reference box.  Fixed rather
#: than read from the host so the traffic mix is the same everywhere.
#: (query_cold drives one: see loadgen.QueryCold.)
CLIENT_THREADS = 2

COMMAND = ["python3", "-m", "benchmarks.gallerybench"]
PATHS = ["benchmarks/gallerybench"]


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # what one timed operation is
    why: str


WORKLOADS = (
    Workload(
        "serve_hot",
        "one pipelined refresh of 16 lookups",
        "2,000-instance corpus that fits the document cache, Zipf scopes with"
        " duplicates: batching, caches, codec and event loop do the work",
    ),
    Workload(
        "query_cold",
        "one serial modelQuery",
        "12,288 instances (1.5x the document cache) visited cyclically by one"
        " serial client: store and registry do the work, batching and caches"
        " are bypassed",
    ),
    Workload(
        "publish_mixed",
        "one publish: uploadModel + 4 metrics + assignServing",
        "writes beside reads on the same hot scopes: dedup, fsync+rename,"
        " shard commit, and invalidation of what the reader thread is hot on",
    ),
    Workload(
        "blob_fetch",
        "servingFor(scope) then pull that blob (whole, or a 256 KiB range)",
        "81.5 MiB of 64 KiB / 1 MiB / 8 MiB blobs, more than the 64 MiB blob"
        " cache: blob regions, sendfile and chunk reassembly do the work",
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
_PUBLISH = ("publish_mixed",)
_FETCH = ("blob_fetch",)
_QUERIES = ("serve_hot", "query_cold", "publish_mixed")  # modelQuery runs
_SERVING = ("serve_hot", "publish_mixed", "blob_fetch")  # servingFor runs


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    what: str
    bound: float | None = None  # end-to-end only
    #: the workloads it is reported on.  Elsewhere it is absent — never 0 —
    #: because nothing there exercises what it measures.
    on: tuple[str, ...] = WORKLOAD_NAMES


def everywhere(metrics: tuple[Metric, ...]) -> tuple[Metric, ...]:
    """The metrics every workload reports: the ones ``BENCHMARK.json`` lists,
    since the driver's contract wants each listed metric from every run."""
    return tuple(m for m in metrics if m.on == WORKLOAD_NAMES)


END_TO_END = (
    Metric(
        "setup_s", "s", "lower",
        "corpus build + store reopen + server start + warm-up", 0.25,
    ),
    Metric(
        "ops_per_s", "1/s", "higher",
        "timed operations (see the workload's op) completed per second", 0.15,
    ),
    Metric("op_p50_ms", "ms", "lower", "median latency of one operation", 0.15),
    Metric(
        "op_p95_ms", "ms", "lower", "95th percentile latency of one operation",
        0.25,
    ),
    Metric(
        "lookups_per_s", "1/s", "higher",
        "individual metadata lookups answered per second, all client threads"
        " (on publish_mixed: the reader thread beside the publisher)", 0.25,
    ),
    Metric(
        "server_peak_rss_mb", "MiB", "lower",
        "VmHWM of the server subprocess at the end of the timed phase", 0.15,
    ),
    Metric(
        "stored_bytes_per_user_byte", "ratio", "lower",
        "bytes under data_dir after a clean stop / blob + metadata bytes the"
        " corpus builder and the clients handed to Gallery", 0.05,
    ),
    # One workload each: printed, written to --out and compared, but not in
    # BENCHMARK.json, whose metrics every workload must report.
    Metric(
        "lookup_p50_ms", "ms", "lower",
        "median latency of the reader thread's serial lookups beside the"
        " publisher", 0.15, _PUBLISH,
    ),
    Metric(
        "lookup_p95_ms", "ms", "lower",
        "95th percentile of the same", 0.25, _PUBLISH,
    ),
    Metric(
        "fetch_mb_per_s", "MiB/s", "higher",
        "payload bytes that passed the byte comparison, per second of the"
        " timed phase", 0.15, _FETCH,
    ),
)

_US = "us"
PER_LAYER = (
    # service.client (+ service.endpoints)
    Metric("service.client.self_us", _US, "lower",
           "client op span minus the transport spans inside it"),
    Metric("service.client.retries", "count", "lower",
           "frames put on a wire beyond one per call (retry, failover, reroute)"),
    # service.wire
    Metric("service.wire.encode_request_us", _US, "lower",
           "encode_request on captured requests, mean per frame"),
    Metric("service.wire.decode_request_us", _US, "lower",
           "decode_request on captured frames, mean per frame"),
    Metric("service.wire.encode_response_us", _US, "lower",
           "encode_response on captured responses, mean per frame"),
    Metric("service.wire.decode_response_us", _US, "lower",
           "decode_response on captured frames, mean per frame"),
    Metric("service.wire.response_bytes", "B", "lower",
           "mean reassembled response frame size"),
    # service.tcp
    Metric("service.tcp.exchange_us", _US, "lower",
           "socket write to response reassembled, median per request"),
    Metric("service.tcp.residual_us", _US, "lower",
           "exchange minus the server's span for the same request"),
    Metric("service.tcp.rtt_floor_us", _US, "lower",
           "idle fleetStatus round trip: the framework's own overhead"),
    # service.batching
    Metric("service.batching.wait_us", _US, "lower",
           "offer to deliver minus the dispatch that answered it"),
    Metric("service.batching.mean_batch", "count", "higher",
           "batched requests per batch"),
    Metric("service.batching.coalesce_ratio", "ratio", "higher",
           "requests answered by another request's execution / batched"),
    Metric("service.batching.refusals", "count", "lower",
           "QoS refusals (expected 0)"),
    # service.server
    Metric("service.server.self_us", _US, "lower",
           "handle_frame_stream / dispatch span minus registry and DAL children"),
    Metric("service.server.dedup_hits", "count", "lower",
           "mutations answered from the dedup table (expected 0)"),
    # core.registry
    Metric("core.registry.model_query_self_us", _US, "lower",
           "Gallery.model_query minus store children", on=_QUERIES),
    Metric("core.registry.serving_for_self_us", _US, "lower",
           "Gallery.serving_for minus store children", on=_SERVING),
    Metric("core.registry.upload_model_self_us", _US, "lower",
           "Gallery.upload_model minus store children", on=_PUBLISH),
    Metric("core.registry.rows_per_result", "ratio", "lower",
           "candidate rows fetched from the store per instance returned",
           on=_QUERIES),
    # store.dal + store.cache
    Metric("store.dal.self_us", _US, "lower",
           "DataAccessLayer method minus store children (a bare modelQuery"
           " goes from the registry straight to the store)", on=_SERVING),
    Metric("store.cache.doc_hit_rate", "ratio", "higher",
           "document cache hits / lookups during the traced phase", on=_QUERIES),
    Metric("store.cache.doc_invalidations", "count", "lower",
           "documents invalidated during the traced phase"),
    Metric("store.cache.blob_hit_rate", "ratio", "higher",
           "DAL blob loads that reached no blob store call / DAL blob loads",
           on=_FETCH),
    # store.sharding over store.metadata_store
    Metric("store.sharding.busy_us_per_op", _US, "lower",
           "time inside the sharded metadata store per client op"),
    Metric("store.sharding.calls_per_op", "count", "lower",
           "sharded metadata store calls per client op"),
    Metric("store.sharding.commit_us", _US, "lower",
           "median of the store's write methods", on=_PUBLISH),
    # store.blob
    Metric("store.blob.put_us", _US, "lower", "median FilesystemBlobStore.put",
           on=_PUBLISH),
    Metric("store.blob.read_us", _US, "lower",
           "median get / open_region / get_range", on=_FETCH),
    Metric("store.blob.calls_per_fetch", "count", "lower",
           "blob store calls per client op (a fetch, on blob_fetch)"),
    # how far the budget can be trusted
    Metric("trace.overhead_share", "ratio", "lower",
           "1 - traced ops/s / untraced ops/s, same invocation"),
    Metric("trace.unattributed_share", "ratio", "lower",
           "server span time that joins no client request / all server span time"),
    Metric("trace.budget_gap_share", "ratio", "lower",
           "|sum of per-op layer medians - untraced op p50| / that p50"),
)

# ISSUE 12 asked for 0.10 throughout.  The driver accepts a benchmark whose
# ten-seed quartile spreads stay inside the bounds and asks for a third of them;
# three studies of ten seeds each on the parent commit saw up to 5.7% on rates,
# 6.7% on medians, 9.8% on p95 and 7.2% on the reader's lookups (README,
# "Baseline and steadiness"), hence 0.15 and 0.25, the contract's ceiling.


def benchmark_json() -> dict:
    """``BENCHMARK.json`` as the contract spells it."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in everywhere(END_TO_END)
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in everywhere(PER_LAYER)
        ],
    }
