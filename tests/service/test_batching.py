"""The read-path micro-batcher + multi-tenant QoS (PR 10).

Properties under fuzz:

* **exactly-once**: every request handed to the batcher is answered
  exactly once, with its own ``request_id``, and the answer matches what
  an unbatched dispatch of the same frame would have produced;
* **tenant isolation**: coalescing shares *computation*, never frames —
  two tenants asking for one coordinate each get their own response
  envelope;
* **error isolation**: a failing lookup inside a window poisons only its
  own request(s), not batch-mates;
* **no starvation**: the weighted lane scheduler keeps serving the
  interactive lane while a bulk tenant floods the queue at 10x load.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import types

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import build_gallery
from repro.core import ManualClock, SeededIdFactory
from repro.errors import NotFoundError, RateLimitedError
from repro.service import wire
from repro.service.batching import (
    ANONYMOUS_TENANT,
    BATCHABLE_METHODS,
    BatchConfig,
    ReadBatcher,
    TokenBucket,
)
from repro.service.client import GalleryClient
from repro.service.server import GalleryService
from repro.service.tcp import GalleryTcpServer, PipelinedTcpTransport


def seeded_gallery(models=3, instances=2):
    gallery = build_gallery(clock=ManualClock(), id_factory=SeededIdFactory(11))
    model_ids, instance_ids = [], []
    for m in range(models):
        model = gallery.create_model(project="p", base_version_id=f"bv{m}")
        model_ids.append(model.model_id)
        for i in range(instances):
            inst = gallery.upload_model("p", f"bv{m}", blob=b"w%d" % i)
            gallery.insert_metric(inst.instance_id, "mape", 0.1 * (i + 1))
            instance_ids.append(inst.instance_id)
    return gallery, model_ids, instance_ids


class Collector:
    """Counts every delivery per request so exactly-once is checkable."""

    def __init__(self):
        self.lock = threading.Lock()
        self.frames: dict[int, list[bytes]] = {}
        self.done = threading.Event()
        self.expected = 0

    def deliver_for(self, key):
        def deliver(frame):
            with self.lock:
                self.frames.setdefault(key, []).append(frame)
                if sum(len(v) for v in self.frames.values()) >= self.expected:
                    self.done.set()

        return deliver


def make_request(method, params, request_id, client_id="c", lane="interactive"):
    return wire.Request(
        method=method, params=params, request_id=request_id,
        client_id=client_id, lane=lane,
    )


# ---------------------------------------------------------------------------
# window/dedup fuzz (deterministic: drives the executor directly)
# ---------------------------------------------------------------------------


class TestDedupFuzz:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_every_request_answered_exactly_once_and_unbatched_equal(self, data):
        gallery, model_ids, instance_ids = seeded_gallery()
        service = GalleryService(gallery)
        batcher = service.read_batcher
        coordinates = (
            [("getModel", {"model_id": m}) for m in model_ids]
            + [("getModel", {"model_id": "ghost"})]
            + [("metricsOf", {"instance_id": i}) for i in instance_ids]
            + [("metricsOf", {"instance_id": "ghost"})]
            + [("metricsForInstances", {"instance_ids": instance_ids[:2]})]
            + [("instancesOf", {"base_version_id": "bv0"})]
            + [("latestInstance", {"base_version_id": "bv1"})]
            + [("servingFor", {"scope": "nowhere"})]
            + [("familyQuery", {"family": "none"})]
        )
        n = data.draw(st.integers(min_value=1, max_value=24))
        picks = [
            data.draw(st.sampled_from(coordinates), label=f"req{k}")
            for k in range(n)
        ]
        lanes = [
            data.draw(st.sampled_from(["interactive", "bulk"]), label=f"lane{k}")
            for k in range(n)
        ]
        collector = Collector()
        collector.expected = n
        from repro.service.batching import _Waiter

        waiters, requests = [], []
        for k, (method, params) in enumerate(picks):
            request = make_request(
                method, params, request_id=k + 1,
                client_id=f"tenant-{k % 3}", lane=lanes[k],
            )
            requests.append(request)
            waiters.append(
                _Waiter(
                    request=request,
                    deliver=collector.deliver_for(k),
                    counted=service._begin_request(request),
                )
            )
        batcher._execute_batch(waiters)

        oracle = GalleryService(gallery)  # unbatched twin over the same store
        for k, request in enumerate(requests):
            frames = collector.frames.get(k, [])
            assert len(frames) == 1, f"request {k} answered {len(frames)} times"
            response = wire.decode_response(frames[0])
            assert response.request_id == request.request_id
            expected = wire.decode_response(
                oracle.handle_frame(wire.encode_request(request))
            )
            assert response.ok == expected.ok
            assert response.result == expected.result
            assert response.error_type == expected.error_type
        # in-flight accounting fully unwound
        assert service.active_requests == 0

    @given(n_dupes=st.integers(min_value=2, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_coalescing_never_crosses_tenant_result_boundaries(self, n_dupes):
        gallery, model_ids, _ = seeded_gallery()
        service = GalleryService(gallery)
        from repro.service.batching import _Waiter

        collector = Collector()
        collector.expected = n_dupes
        waiters = []
        for k in range(n_dupes):
            request = make_request(
                "getModel", {"model_id": model_ids[0]}, request_id=1000 + k,
                client_id=f"tenant-{k}",
            )
            waiters.append(
                _Waiter(request=request, deliver=collector.deliver_for(k),
                        counted=False)
            )
        service.read_batcher._execute_batch(waiters)
        for k in range(n_dupes):
            (frame,) = collector.frames[k]
            response = wire.decode_response(frame)
            # each tenant's envelope: own request_id, shared result
            assert response.request_id == 1000 + k
            assert response.ok
            assert response.result["model_id"] == model_ids[0]
        stats = service.read_batcher.stats_snapshot()
        assert stats["coalesced"] == n_dupes - 1
        assert stats["dal_batched_calls"]["getModel"] == 1

    def test_error_in_one_lookup_poisons_only_that_request(self):
        gallery, model_ids, _ = seeded_gallery()
        service = GalleryService(gallery)
        from repro.service.batching import _Waiter

        collector = Collector()
        collector.expected = 3
        specs = [
            ("getModel", {"model_id": model_ids[0]}),
            ("getModel", {"model_id": "ghost"}),
            ("latestInstance", {"base_version_id": "does-not-exist"}),
        ]
        waiters = [
            _Waiter(
                request=make_request(m, p, request_id=k + 1),
                deliver=collector.deliver_for(k),
                counted=False,
            )
            for k, (m, p) in enumerate(specs)
        ]
        service.read_batcher._execute_batch(waiters)
        ok_resp = wire.decode_response(collector.frames[0][0])
        ghost_resp = wire.decode_response(collector.frames[1][0])
        missing_resp = wire.decode_response(collector.frames[2][0])
        assert ok_resp.ok and ok_resp.result["model_id"] == model_ids[0]
        assert not ghost_resp.ok and ghost_resp.error_type == "NotFoundError"
        assert not missing_resp.ok
        with pytest.raises(NotFoundError):
            ghost_resp.raise_if_error()


# ---------------------------------------------------------------------------
# lanes & starvation
# ---------------------------------------------------------------------------


class TestLaneScheduling:
    def test_weighted_drain_prefers_interactive_4_to_1(self):
        gallery, model_ids, _ = seeded_gallery()
        service = GalleryService(gallery)
        batcher = service.read_batcher
        from repro.service.batching import _Waiter

        sink = lambda frame: None  # noqa: E731
        for k in range(40):  # the 10x bulk flood
            batcher._lanes["bulk"].append(
                _Waiter(
                    request=make_request(
                        "getModel", {"model_id": model_ids[0]},
                        request_id=k + 1, lane="bulk",
                    ),
                    deliver=sink, counted=False,
                )
            )
        for k in range(4):
            batcher._lanes["interactive"].append(
                _Waiter(
                    request=make_request(
                        "getModel", {"model_id": model_ids[1]},
                        request_id=100 + k,
                    ),
                    deliver=sink, counted=False,
                )
            )
        drained = batcher._drain_weighted(10)
        lanes = [w.request.lane for w in drained]
        # every queued interactive request surfaced in the first drain,
        # despite bulk outnumbering them 10:1
        assert lanes.count("interactive") == 4
        assert lanes.count("bulk") == 6

    def test_bulk_flood_cannot_starve_interactive_p95(self):
        """A bulk tenant at ~10x offered load: the interactive lane's p95
        stays inside the configured bound end-to-end over the event-loop
        server."""
        gallery, model_ids, _ = seeded_gallery()
        service = GalleryService(gallery, batching=BatchConfig())
        server = GalleryTcpServer(service).start()
        host, port = server.address
        p95_bound_s = 0.25  # generous CI bound; unloaded p50 is ~sub-ms
        stop = threading.Event()

        def bulk_flood(worker):
            client = GalleryClient(
                PipelinedTcpTransport(host, port),
                client_id=f"bulk-{worker}", lane="bulk",
            )
            try:
                while not stop.is_set():
                    client.call("getModel", model_id=model_ids[0])
            except Exception:
                pass
            finally:
                client.close()

        flooders = [
            threading.Thread(target=bulk_flood, args=(w,), daemon=True)
            for w in range(10)
        ]
        for thread in flooders:
            thread.start()
        try:
            interactive = GalleryClient(
                PipelinedTcpTransport(host, port), client_id="interactive-tenant"
            )
            latencies = []
            try:
                for _ in range(60):
                    t0 = time.perf_counter()
                    interactive.call("getModel", model_id=model_ids[1])
                    latencies.append(time.perf_counter() - t0)
            finally:
                interactive.close()
        finally:
            stop.set()
            for thread in flooders:
                thread.join(timeout=5.0)
            server.stop()
        latencies.sort()
        p95 = latencies[int(len(latencies) * 0.95) - 1]
        assert p95 < p95_bound_s, f"interactive p95 {p95 * 1e3:.1f}ms over bound"


# ---------------------------------------------------------------------------
# QoS: token buckets & typed refusals
# ---------------------------------------------------------------------------


class TestRateLimiting:
    def test_token_bucket_refill(self):
        bucket = TokenBucket(rate=10.0, capacity=2.0, now=0.0)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.retry_after() == pytest.approx(0.1)
        assert bucket.try_take(0.1)  # one token refilled

    def build(self, rate=2.0, burst=2.0):
        gallery, model_ids, _ = seeded_gallery()
        service = GalleryService(
            gallery, batching=BatchConfig(rate_limit=rate, burst=burst)
        )
        clock = {"now": 0.0}
        batcher = ReadBatcher(service, service.read_batcher.config,
                              clock=lambda: clock["now"])
        service.read_batcher = batcher
        return service, batcher, clock, model_ids

    def frame_for(self, model_id, request_id=1, client_id="tenant-a"):
        return wire.encode_request(
            make_request("getModel", {"model_id": model_id},
                         request_id=request_id, client_id=client_id),
        )

    def test_over_limit_refused_with_typed_retryable_error(self):
        service, batcher, clock, model_ids = self.build(rate=2.0, burst=2.0)
        lock = threading.Lock()
        got: list[bytes] = []
        done = threading.Event()

        def deliver(frame):
            with lock:
                got.append(frame)
                if len(got) == 5:
                    done.set()

        for k in range(5):
            assert batcher.offer(
                self.frame_for(model_ids[0], request_id=k + 1), deliver
            )
        # burst of 2 admitted (answered by the collector); 3 refused
        # inline — every offer gets exactly one response either way.
        assert done.wait(timeout=5.0)
        responses = [wire.decode_response(f) for f in got]
        refusals = [r for r in responses if not r.ok]
        assert len(refusals) == 3 and sum(r.ok for r in responses) == 2
        for response in refusals:
            assert response.error_type == "RateLimitedError"
            with pytest.raises(RateLimitedError) as excinfo:
                response.raise_if_error()
            assert excinfo.value.retry_after > 0
        stats = batcher.stats_snapshot()
        assert stats["refusals"] == 3
        assert stats["tenants"]["tenant-a"]["refusals"] == 3
        batcher.close()

    def test_buckets_key_on_client_id_and_refill(self):
        service, batcher, clock, model_ids = self.build(rate=1.0, burst=1.0)
        sink: list[bytes] = []
        assert batcher.offer(self.frame_for(model_ids[0], 1, "a"), sink.append)
        assert batcher.offer(self.frame_for(model_ids[0], 2, "b"), sink.append)
        # both tenants spent their single token; each is now refused
        # (admitted requests 1 and 2 also answer into sink, async, ok=True)
        batcher.offer(self.frame_for(model_ids[0], 3, "a"), sink.append)
        batcher.offer(self.frame_for(model_ids[0], 4, "b"), sink.append)
        refused = [
            r
            for r in (wire.decode_response(f) for f in list(sink))
            if not r.ok
        ]
        assert [r.error_type for r in refused] == ["RateLimitedError"] * 2
        stats = batcher.stats_snapshot()
        assert stats["tenants"]["a"]["refusals"] == 1
        assert stats["tenants"]["b"]["refusals"] == 1
        clock["now"] += 1.0  # a full second refills one token each
        assert batcher.offer(self.frame_for(model_ids[0], 5, "a"), sink.append)
        assert batcher.stats_snapshot()["tenants"]["a"]["refusals"] == 1
        batcher.close()

    def test_anonymous_requests_share_one_bucket(self):
        service, batcher, clock, model_ids = self.build(rate=1.0, burst=1.0)
        sink: list[bytes] = []
        assert batcher.offer(self.frame_for(model_ids[0], 1, ""), sink.append)
        batcher.offer(self.frame_for(model_ids[0], 2, ""), sink.append)
        refused = [
            r
            for r in (wire.decode_response(f) for f in list(sink))
            if not r.ok
        ]
        assert refused and refused[-1].error_type == "RateLimitedError"
        assert ANONYMOUS_TENANT in batcher.stats_snapshot()["tenants"]
        batcher.close()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_limit": 10.0, "burst": -5.0},  # bucket would clamp to 1
            {"rate_limit": 10.0, "burst": 0.5},
            {"rate_limit": 10.0, "burst": float("nan")},
            {"burst": 5.0},  # no bucket exists to size
            {"rate_limit": float("nan")},
            {"rate_limit": float("inf")},
        ],
    )
    def test_config_refuses_limits_the_buckets_would_not_apply(self, kwargs):
        with pytest.raises(ValueError):
            BatchConfig(**kwargs)

    @pytest.mark.parametrize("rate, burst", [(10.0, None), (10.0, 3.0), (0.5, None)])
    def test_reported_burst_is_the_bucket_capacity(self, rate, burst):
        config = BatchConfig(rate_limit=rate, burst=burst)
        bucket = TokenBucket(rate, config.bucket_capacity, now=0.0)
        assert config.to_dict() == {"rate_limit": rate, "burst": bucket.capacity}

    def test_rate_limit_and_burst_are_the_only_settings(self):
        # batch size, lane weights and the batching schedule are fixed
        assert [f.name for f in dataclasses.fields(BatchConfig)] == [
            "rate_limit", "burst",
        ]


# ---------------------------------------------------------------------------
# collector: drain what is queued, never hold
# ---------------------------------------------------------------------------


class TestCollector:
    def test_loaded_batcher_never_holds(self, monkeypatch):
        """After a burst big enough to count as load, the next burst is
        still answered at once: the collector never sleeps to let a batch
        grow."""
        from repro.service import batching
        from repro.service.batching import _Waiter

        def no_sleep(seconds):
            raise AssertionError(f"collector held a batch open for {seconds}s")

        monkeypatch.setattr(
            batching, "time",
            types.SimpleNamespace(monotonic=time.monotonic, sleep=no_sleep),
        )
        gallery, model_ids, _ = seeded_gallery()
        service = GalleryService(gallery)
        batcher = service.read_batcher

        def request(request_id):
            return make_request("getModel", {"model_id": model_ids[0]}, request_id)

        def frame(request_id):
            return wire.encode_request(request(request_id))

        first = Collector()
        first.expected = 12
        for k in range(11):  # queued before the collector thread exists
            batcher._lanes["interactive"].append(
                _Waiter(request=request(k + 1), deliver=first.deliver_for(k),
                        counted=False)
            )
        assert batcher.offer(frame(12), first.deliver_for(11))  # starts it
        assert first.done.wait(timeout=5.0)

        second = Collector()
        second.expected = 3
        for k in range(3):
            assert batcher.offer(frame(100 + k), second.deliver_for(k))
        assert second.done.wait(timeout=5.0), "second burst never answered"
        batcher.close()
        for collected in (first, second):
            assert all(len(f) == 1 for f in collected.frames.values())
            assert len(collected.frames) == collected.expected


# ---------------------------------------------------------------------------
# integration: TCP, serverStats, drain, close
# ---------------------------------------------------------------------------


class TestServerIntegration:
    def test_concurrent_duplicate_reads_coalesce_over_tcp(self):
        gallery, model_ids, _ = seeded_gallery()
        service = GalleryService(gallery, batching=BatchConfig())
        server = GalleryTcpServer(service).start()
        host, port = server.address
        results, errors = [], []

        def reader(worker):
            client = GalleryClient(
                PipelinedTcpTransport(host, port), client_id=f"w{worker}"
            )
            try:
                for _ in range(20):
                    results.append(
                        client.call("getModel", model_id=model_ids[0])
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                client.close()

        threads = [
            threading.Thread(target=reader, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        server.stop()
        assert not errors
        assert len(results) == 160
        assert all(r["model_id"] == model_ids[0] for r in results)
        stats = service.read_batcher.stats_snapshot()
        assert stats["batched_requests"] == 160
        assert stats["batches"] >= 1

    def test_server_stats_method_and_audit_summary(self):
        gallery, model_ids, _ = seeded_gallery()
        service = GalleryService(gallery, batching=BatchConfig())
        server = GalleryTcpServer(service).start()
        host, port = server.address
        client = GalleryClient(PipelinedTcpTransport(host, port), client_id="ops")
        try:
            client.call("getModel", model_id=model_ids[0])
            stats = client.server_stats()
            audit = client.call("auditStorage")
        finally:
            client.close()
            server.stop()
        assert stats["batching"]["batched_requests"] >= 1
        assert stats["batching"]["config"] == {"rate_limit": None, "burst": None}
        assert stats["fleet"]["status"] == "serving"
        assert "request_dedup" in stats
        assert "batching" in audit["summary"]

    def test_server_stats_answers_while_draining(self):
        gallery, _, _ = seeded_gallery()
        service = GalleryService(gallery)
        service.drain()
        response = wire.decode_response(
            service.handle_frame(
                wire.encode_request(wire.Request(method="serverStats"))
            )
        )
        assert response.ok
        assert response.result["fleet"]["draining"]

    def test_draining_reads_refused_not_enqueued(self):
        gallery, model_ids, _ = seeded_gallery()
        service = GalleryService(gallery)
        service.drain()
        taken = service.read_batcher.offer(
            wire.encode_request(
                make_request("getModel", {"model_id": model_ids[0]}, 1)
            ),
            lambda f: None,
        )
        assert not taken  # normal path answers with ReplicaDrainingError

    def test_mutations_and_blobs_never_enter_the_queue(self):
        for method in ("uploadModel", "loadModelBlob", "fleetStatus",
                       "collectOrphans", "serverStats"):
            assert method not in BATCHABLE_METHODS

    def test_close_flushes_queued_waiters(self):
        gallery, model_ids, _ = seeded_gallery()
        service = GalleryService(gallery)
        batcher = ReadBatcher(service, BatchConfig())
        from repro.service.batching import _Waiter

        got = []
        batcher._lanes["interactive"].append(
            _Waiter(
                request=make_request("getModel", {"model_id": model_ids[0]}, 1),
                deliver=got.append, counted=False,
            )
        )
        batcher.close()
        assert len(got) == 1
        assert wire.decode_response(got[0]).ok
