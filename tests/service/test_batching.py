"""The read-path micro-batcher (PR 10).

Properties under fuzz:

* **exactly-once**: every request handed to the batcher is answered
  exactly once, with its own ``request_id``, and the answer matches what
  an unbatched dispatch of the same frame would have produced;
* **tenant isolation**: coalescing shares *computation*, never frames —
  two tenants asking for one coordinate each get their own response
  envelope;
* **error isolation**: a failing lookup inside a window poisons only its
  own request(s), not batch-mates.
"""

from __future__ import annotations

import dataclasses
import inspect
import threading
import time
import types

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import build_gallery
from repro.core import ManualClock, SeededIdFactory
from repro.errors import NotFoundError
from repro.service import wire
from repro.service.batching import BATCHABLE_METHODS, ReadBatcher
from repro.service.client import GalleryClient
from repro.service.endpoints import FailoverTransport, connect
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


def make_request(method, params, request_id, client_id="c"):
    return wire.Request(
        method=method, params=params, request_id=request_id,
        client_id=client_id,
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
        collector = Collector()
        collector.expected = n
        from repro.service.batching import _Waiter

        waiters, requests = [], []
        for k, (method, params) in enumerate(picks):
            request = make_request(
                method, params, request_id=k + 1,
                client_id=f"tenant-{k % 3}",
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

        dispatched = []
        dispatch = service.dispatch

        def counting_dispatch(request):
            dispatched.append(request)
            return dispatch(request)

        service.dispatch = counting_dispatch
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
        assert len(dispatched) == 1  # one execution for all n duplicates

    @pytest.mark.parametrize(
        ("method", "params"),
        [
            ("getModel", {"model_id": "MODEL"}),
            ("getModel", {"model_id": "ghost"}),
            ("getModel", {"model_id": 7}),
            ("getModel", {"model_id": ["MODEL"]}),
            ("getModel", {"model_id": "MODEL", "extra": 1}),
            ("getModel", {}),
            ("metricsOf", {"instance_id": "INSTANCE"}),
            ("metricsOf", {"instance_id": 7}),
            ("metricsOf", {"instance_id": "INSTANCE", "extra": 1}),
            ("metricsForInstances", {"instance_ids": ["INSTANCE", "ghost"]}),
            ("metricsForInstances", {"instance_ids": "INSTANCE"}),
            ("metricsForInstances", {"instance_ids": [7]}),
            ("metricsForInstances", {"instance_ids": [], "extra": 1}),
        ],
    )
    def test_batched_methods_answer_like_dispatch(self, method, params):
        """Every group, canonical or not, gets the answer dispatch gives."""
        gallery, model_ids, instance_ids = seeded_gallery()
        service = GalleryService(gallery)
        from repro.service.batching import _Waiter

        swap = {"MODEL": model_ids[0], "INSTANCE": instance_ids[0]}
        params = {
            key: [swap.get(v, v) for v in value] if isinstance(value, list)
            else swap.get(value, value) if isinstance(value, str) else value
            for key, value in params.items()
        }
        request = make_request(method, params, request_id=9)
        collector = Collector()
        collector.expected = 1
        service.read_batcher._execute_batch(
            [_Waiter(request=request, deliver=collector.deliver_for(0), counted=False)]
        )
        (frame,) = collector.frames[0]
        batched = wire.decode_response(frame)
        # through the codec too, as the batcher's answer went
        expected = wire.decode_response(
            wire.encode_response(service.dispatch(request))
        )
        assert (batched.ok, batched.result, batched.error_type) == (
            expected.ok, expected.result, expected.error_type
        )

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
# settings: there are none
# ---------------------------------------------------------------------------


class TestNoSettings:
    def test_batcher_and_service_have_no_settings(self):
        # batch size and the batching schedule are fixed, and
        # every offered read is admitted: nothing is left to configure
        assert list(inspect.signature(ReadBatcher).parameters) == ["service"]
        assert list(inspect.signature(GalleryService).parameters) == [
            "gallery", "engine",
        ]

    def test_client_stack_has_no_lane_or_error_class_knob(self):
        # every read travels one FIFO queue, and the transient error set
        # is the client module's: no request field or parameter picks them
        assert list(inspect.signature(GalleryClient).parameters) == [
            "transport", "client_id",
        ]
        assert list(inspect.signature(connect).parameters) == [
            "url", "client_id", "policies", "transport_factory",
            "failure_threshold", "reset_timeout",
        ]
        assert list(inspect.signature(FailoverTransport).parameters) == [
            "endpoints", "policies", "transport_factory", "failure_threshold",
            "reset_timeout", "sleep", "clock", "drain_ttl", "rng",
        ]
        assert [f.name for f in dataclasses.fields(wire.Request)] == [
            "method", "params", "request_id", "client_id",
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

        # batching imports no clock at all; the stand-in catches one
        # coming back with a sleep in the collector
        monkeypatch.setattr(
            batching, "time",
            types.SimpleNamespace(monotonic=time.monotonic, sleep=no_sleep),
            raising=False,
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
            batcher._queue.append(
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
        service = GalleryService(gallery)
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
        service = GalleryService(gallery)
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
        assert stats["batching"]["refusals"] == 0
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
        batcher = ReadBatcher(service)
        from repro.service.batching import _Waiter

        got = []
        batcher._queue.append(
            _Waiter(
                request=make_request("getModel", {"model_id": model_ids[0]}, 1),
                deliver=got.append, counted=False,
            )
        )
        batcher.close()
        assert len(got) == 1
        assert wire.decode_response(got[0]).ok
