"""Closed-loop load generator: per-thread drivers, the phase runner, the stats.

Closed loop because Gallery's callers are services that block on the reply:
each client thread owns one ``connect()`` client and sends its next operation
only when the previous one has been answered and checked.  Extra in-flight
depth comes from ``GalleryClient.pipeline()``, never from more threads.

A driver splits an operation in three so that only the program is timed::

    plan = driver.plan()              # seeded choice of inputs    (untimed)
    out = driver.op(client, plan)     # the client calls           (timed)
    bad = driver.check(client, plan, out)   # oracle comparison    (untimed)
"""

from __future__ import annotations

import hashlib
import random
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from . import corpus as corpora
from .spec import SEGMENTS

now_ns = time.perf_counter_ns


def _eq(field_: str, value: Any) -> dict[str, Any]:
    return {"field": field_, "operator": "equal", "value": value}


def low_mape_query(city: str) -> list[dict[str, Any]]:
    return [
        _eq("city", city),
        _eq("metricName", "mape"),
        {"field": "metricValue", "operator": "smaller_than", "value": 0.2},
    ]


def _ids(instances: list[dict[str, Any]]) -> list[str]:
    return [i["instance_id"] for i in instances]


# -- serve_hot -------------------------------------------------------------


class ServeHot:
    """One op = a pipelined refresh of 16 lookups over Zipf(1.1) scopes:
    10 servingFor, 5 modelQuery, 1 getModelInstance (60 / 30 / 10 %, rounded
    to a fixed composition so every refresh is the same amount of work), in
    seeded order."""

    kind = "refresh"
    MIX = ("serving",) * 10 + ("query",) * 5 + ("instance",)
    lookups = len(MIX)

    def __init__(self, hot: corpora.HotCorpus, rng: random.Random) -> None:
        self._hot = hot
        self._rng = rng

    def plan(self) -> list[tuple[str, str]]:
        rng, hot = self._rng, self._hot
        cities = rng.choices(hot.cities, cum_weights=hot.cum_weights, k=self.lookups)
        return list(zip(rng.sample(self.MIX, self.lookups), cities))

    def op(self, client, plan) -> list[Any]:
        serving = self._hot.serving
        with client.pipeline() as pipe:
            handles = [
                pipe.call("servingFor", scope=city) if what == "serving"
                else pipe.model_query(low_mape_query(city)) if what == "query"
                else pipe.get_model_instance(serving[city])
                for what, city in plan
            ]
        return [handle.result() for handle in handles]

    def check(self, client, plan, out) -> int:
        hot = self._hot
        bad = 0
        for (what, city), got in zip(plan, out):
            if what == "serving":
                bad += got["scope"] != city or got["instance_id"] != hot.serving[city]
            elif what == "query":
                bad += _ids(got) != hot.low_mape[city]
            else:
                bad += got != hot.instances[hot.serving[city]]
        return bad


# -- query_cold ------------------------------------------------------------


class QueryCold:
    """One op = one serial modelQuery, no document touched twice per cycle.

    One client thread, strictly serial: with two, the batcher's adaptive
    window locks the pair into lock-step batches of two on some runs and not
    on others (390 vs 550 ops/s on the parent commit), and this workload is
    the one where the batcher must have nothing to do.  The thread walks the
    segments in a seeded cyclic order.  A segment at an even position is asked once in the
    ``base_version_id`` shape (one shard, 96 candidate rows, 12 results); a
    segment at an odd position is asked city by city in the keyless ``city``
    shape (all shards, 12 rows each).  Either way each of the segment's 96
    documents is touched exactly once per cycle, so with 12,288 documents
    behind an 8,192-entry LRU nothing is ever still cached on the next visit.
    """

    kind = "query"
    lookups = 1

    def __init__(self, cold: corpora.ColdCorpus, rng: random.Random) -> None:
        self._cold = cold
        self._rng = rng
        self._segments = list(cold.segments)
        rng.shuffle(self._segments)
        self._queue: list[tuple[str, str, str]] = []
        self._cycle = 0

    def _refill(self) -> None:
        for position, segment in enumerate(self._segments):
            cities = self._cold.cities_of[segment]
            if (position + self._cycle) % 2 == 0:
                self._queue.append(("base", segment, self._rng.choice(cities)))
            else:
                self._queue.extend(("city", segment, city) for city in cities)
        self._queue.reverse()  # pop() from the end, in walk order
        self._cycle += 1

    def plan(self) -> tuple[str, str, str]:
        if not self._queue:
            self._refill()
        return self._queue.pop()

    def op(self, client, plan):
        shape, segment, city = plan
        if shape == "base":
            return client.model_query([_eq("base_version_id", segment), _eq("zone", city)])
        return client.model_query([_eq("city", city)])

    def check(self, client, plan, out) -> int:
        return int(_ids(out) != self._cold.ids_of[plan[2]])


# -- publish_mixed -----------------------------------------------------------


@dataclass
class PublishLog:
    """What the publisher has been acknowledged, shared with the reader's oracle."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    #: scope -> every instance id that was ever (about to be) assigned to it
    may_serve: dict[str, set[str]] = field(default_factory=dict)
    #: city -> published ids whose mape satisfies the reader's query
    low_mape: dict[str, set[str]] = field(default_factory=dict)
    #: acknowledged publishes: (instance_id, city, blob sha256, metrics)
    acked: list[tuple[str, str, bytes, dict[str, float]]] = field(default_factory=list)
    user_bytes: int = 0


BLOB_BYTES = 16 * corpora.KIB


class Publisher:
    """One op = uploadModel (16 KiB seeded blob) + 4 metrics + assignServing."""

    kind = "publish"
    lookups = 0

    def __init__(self, hot: corpora.HotCorpus, log: PublishLog, rng: random.Random) -> None:
        self._hot = hot
        self._log = log
        self._rng = rng

    def plan(self):
        rng = self._rng
        (city,) = rng.choices(self._hot.cities, cum_weights=self._hot.cum_weights)
        metrics = {
            "mape": round(rng.uniform(0.05, 0.35), 6),
            "bias": round(rng.uniform(-0.05, 0.05), 6),
            "rmse": round(rng.uniform(1.0, 9.0), 6),
            "coverage": round(rng.uniform(0.7, 1.0), 6),
        }
        metadata = {"city": city, "model_name": "gbt", "model_type": "forecast"}
        return city, rng.randbytes(BLOB_BYTES), metadata, metrics

    def op(self, client, plan) -> str:
        city, blob, metadata, metrics = plan
        instance = client.upload_model(
            corpora.PROJECT, f"{city}.base", blob, metadata=metadata
        )
        instance_id = instance["instance_id"]
        with self._log.lock:
            # Known to the reader's oracle before the server can show it.
            self._log.may_serve.setdefault(city, set()).add(instance_id)
            if metrics["mape"] < 0.2:
                self._log.low_mape.setdefault(city, set()).add(instance_id)
        client.insert_model_instance_metrics(instance_id, metrics)
        client.assign_serving(city, instance_id, reason="gallerybench")
        return instance_id

    def check(self, client, plan, instance_id) -> int:
        city, blob, metadata, metrics = plan
        log = self._log
        with log.lock:
            log.acked.append((instance_id, city, hashlib.sha256(blob).digest(), metrics))
            log.user_bytes += (
                len(blob) + corpora.json_len(metadata) + corpora.json_len(metrics)
            )
        # Read-your-write: one publisher, so the scope must show this publish.
        return int(client.serving_for(city)["instance_id"] != instance_id)


class Reader:
    """Serial servingFor / modelQuery lookups on the publisher's Zipf scopes."""

    kind = "lookup"
    lookups = 1

    def __init__(self, hot: corpora.HotCorpus, log: PublishLog, rng: random.Random) -> None:
        self._hot = hot
        self._log = log
        self._rng = rng

    def plan(self) -> tuple[str, str]:
        rng = self._rng
        (city,) = rng.choices(self._hot.cities, cum_weights=self._hot.cum_weights)
        return ("serving" if rng.random() < 2 / 3 else "query"), city

    def op(self, client, plan):
        what, city = plan
        if what == "serving":
            return client.serving_for(city)
        return client.model_query(low_mape_query(city))

    def check(self, client, plan, out) -> int:
        what, city = plan
        hot, log = self._hot, self._log
        with log.lock:
            may_serve = log.may_serve.get(city, set()) | {hot.serving[city]}
            published = set(log.low_mape.get(city, ()))
        if what == "serving":
            return int(out["instance_id"] not in may_serve)
        got = _ids(out)
        corpus_part = [i for i in got if i in hot.instances]
        extra = set(got) - set(corpus_part)
        return int(corpus_part != hot.low_mape[city] or not extra <= published)


# -- blob_fetch ---------------------------------------------------------------


class BlobFetch:
    """One op = servingFor(scope), then pull the blob it names.

    The size mix is a fixed round of ten — 4 small, 3 medium and 1 large whole
    loads, 2 ranges of 256 KiB out of a large blob (80% / 20%) — in a seeded
    order, so every run moves the same bytes per op (1.175 MiB); which blob of
    a class is pulled is Zipf(1.1).
    """

    kind = "fetch"
    lookups = 1
    ROUND = ("small",) * 4 + ("medium",) * 3 + ("large",) + ("range",) * 2

    def __init__(self, blobs: corpora.BlobCorpus, rng: random.Random) -> None:
        self._blobs = blobs
        self._rng = rng
        self._round = list(self.ROUND)
        rng.shuffle(self._round)
        self._step = 0
        self.verified_bytes = 0  # payload that passed check(), all phases
        self._cum = {
            name: corpora.zipf_cum_weights(len(scopes))
            for name, scopes in blobs.scopes_of.items()
        }

    def plan(self) -> tuple[str, int | None]:
        rng = self._rng
        what = self._round[self._step % len(self._round)]
        self._step += 1
        name = "large" if what == "range" else what
        (scope,) = rng.choices(self._blobs.scopes_of[name], cum_weights=self._cum[name])
        if what != "range":
            return scope, None
        size = len(self._blobs.payload_of[scope])
        return scope, rng.randrange(0, size - corpora.RANGE_BYTES + 1)

    def op(self, client, plan):
        scope, offset = plan
        instance_id = client.serving_for(scope)["instance_id"]
        if offset is None:
            return instance_id, client.load_model_blob(instance_id)
        return instance_id, client.load_blob_range(
            instance_id, offset, corpora.RANGE_BYTES
        )

    def check(self, client, plan, out) -> int:
        scope, offset = plan
        instance_id, data = out
        want = self._blobs.payload_of[scope]
        if offset is not None:
            want = want[offset : offset + corpora.RANGE_BYTES]
        if instance_id != self._blobs.instance_of[scope] or data != want:
            return 1
        self.verified_bytes += len(data)
        return 0


# -- running a phase ------------------------------------------------------------


@dataclass
class Phase:
    """Everything the client threads saw between ``start_ns`` and ``end_ns``."""

    start_ns: int
    end_ns: int
    #: per thread: (op start, op end, kind, lookups answered)
    samples: list[list[tuple[int, int, str, int]]]
    #: per thread: its ident, which is what its transport spans carry
    idents: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first_error: str = ""


def run_phase(drivers, clients, seconds: float) -> Phase:
    """Run every (driver, client) pair in its own thread for *seconds*."""
    start = now_ns()
    stop_at = start + int(seconds * 1e9)
    phase = Phase(start, stop_at, [[] for _ in drivers], [0] * len(drivers))
    lock = threading.Lock()

    def loop(n, driver, client) -> None:
        samples = phase.samples[n]
        phase.idents[n] = threading.get_ident()
        attempted = failed = 0
        error = ""
        kind, lookups = driver.kind, driver.lookups
        while now_ns() < stop_at:
            attempted += 1
            plan = driver.plan()
            try:
                t0 = now_ns()
                out = driver.op(client, plan)
                t1 = now_ns()
                bad = driver.check(client, plan, out)
            except Exception:  # noqa: BLE001 - a failed op is a result, not a crash
                failed += 1
                error = error or traceback.format_exc()
                continue
            if bad:
                failed += 1
                error = error or f"oracle mismatch on {kind} {plan!r:.200}"
            else:
                samples.append((t0, t1, kind, lookups))
        with lock:
            phase.attempted += attempted
            phase.failed += failed
            phase.first_error = phase.first_error or error

    threads = [
        threading.Thread(target=loop, args=(n, d, c), name=f"gallerybench-{n}")
        for n, (d, c) in enumerate(zip(drivers, clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return phase


# -- statistics -------------------------------------------------------------------


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted list."""
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def segment_stats(phase: Phase, kind: str) -> dict[str, tuple[float, int]]:
    """Median-of-segments throughput and latency for ops of *kind*.

    An op belongs to the segment it completed in.  Returns
    ``{metric: (value, samples behind it)}``.
    """
    length_ns = (phase.end_ns - phase.start_ns) / SEGMENTS
    latencies: list[list[float]] = [[] for _ in range(SEGMENTS)]
    lookups = [0] * SEGMENTS
    for samples in phase.samples:
        for t0, t1, sample_kind, n_lookups in samples:
            segment = int((t1 - phase.start_ns) / length_ns)
            if not 0 <= segment < SEGMENTS:
                continue  # finished after the bell
            lookups[segment] += n_lookups
            if sample_kind == kind:
                latencies[segment].append((t1 - t0) / 1e6)
    for values in latencies:
        values.sort()
    seconds = length_ns / 1e9
    ops = sum(map(len, latencies))
    median = statistics.median
    return {
        "ops_per_s": (median(len(v) / seconds for v in latencies), ops),
        "op_p50_ms": (median(percentile(v, 0.50) for v in latencies), ops),
        "op_p95_ms": (median(percentile(v, 0.95) for v in latencies), ops),
        "lookups_per_s": (median(n / seconds for n in lookups), sum(lookups)),
    }
