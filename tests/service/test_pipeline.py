"""Pipelined transport and client pipeline helpers.

The serving plane allows many requests in flight at once:

* :class:`PipelinedTcpTransport` multiplexes one connection by request_id
  (responses may return in any order) and rides out a server restart on
  the blocking path (half-open replay);
* :meth:`GalleryClient.pipeline` batches calls over it, falling back to
  sequential exchanges on a plain transport.
"""

from __future__ import annotations

import select
import socket
import threading

import pytest

from repro import build_gallery
from repro.core import ManualClock, SeededIdFactory
from repro.errors import NotFoundError, ServiceError
from repro.service import wire
from repro.service.batching import BATCHABLE_METHODS
from repro.service.client import GalleryClient, connect_in_process
from repro.service.server import GalleryService
from repro.service.tcp import (
    _RECV_CHUNK,
    GalleryTcpServer,
    PipelinedTcpTransport,
)


def build_service():
    gallery = build_gallery(clock=ManualClock(), id_factory=SeededIdFactory(9))
    return gallery, GalleryService(gallery)


class HangUpOnceProxy:
    """TCP forwarder that, once armed, hangs up on the next request bytes.

    The hang-up lands while the client's call is in flight on a connection
    that already served traffic — the half-open case, made deterministic.
    """

    def __init__(self, upstream):
        self._upstream = upstream
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self.armed = False
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._forward, args=(downstream,), daemon=True
            ).start()

    def _forward(self, downstream):
        with downstream, socket.create_connection(self._upstream) as upstream:
            while True:
                ready, _, _ = select.select([downstream, upstream], [], [])
                for source in ready:
                    try:
                        data = source.recv(65536)
                    except OSError:
                        return
                    if not data:
                        return
                    if source is downstream and self.armed:
                        self.armed = False
                        return  # drop the request, close both ends
                    (upstream if source is downstream else downstream).sendall(data)

    def close(self):
        self._listener.close()


@pytest.fixture
def pipelined_stack():
    gallery, service = build_service()
    server = GalleryTcpServer(service).start()
    host, port = server.address
    transport = PipelinedTcpTransport(host, port, timeout=15.0)
    client = GalleryClient(transport)
    yield gallery, service, server, client, transport
    transport.close()
    server.stop()


class TestBlockingContract:
    def test_full_workflow_blocking_calls(self, pipelined_stack):
        _, _, _, client, _ = pipelined_stack
        client.create_gallery_model("p", "demand", owner="pipe")
        instance = client.upload_model(
            "p", "demand", b"pipelined-bytes", metadata={"model_name": "rf"}
        )
        hits = client.model_query(
            [{"field": "modelName", "operator": "equal", "value": "rf"}]
        )
        assert [h["instance_id"] for h in hits] == [instance["instance_id"]]
        assert client.load_model_blob(instance["instance_id"]) == b"pipelined-bytes"

    def test_errors_cross_the_pipelined_socket(self, pipelined_stack):
        _, _, _, client, _ = pipelined_stack
        with pytest.raises(NotFoundError):
            client.get_model("ghost")

    def test_close_then_reuse_redials(self, pipelined_stack):
        _, _, _, client, transport = pipelined_stack
        client.create_gallery_model("p", "demand")
        transport.close()
        assert client.audit_storage()["consistent"]

    def test_reconnects_after_server_restart(self):
        _, service = build_service()
        server = GalleryTcpServer(service).start()
        host, port = server.address
        transport = PipelinedTcpTransport(host, port, timeout=15.0)
        client = GalleryClient(transport)
        try:
            client.create_gallery_model("p", "demand")
            server.stop()
            # Same service, same port: only the LISTENER bounced — exactly
            # the restart a long-lived client is expected to ride out.
            server = GalleryTcpServer(service, host=host, port=port).start()
            instance = client.upload_model("p", "demand", b"after-restart")
            assert client.load_model_blob(instance["instance_id"]) == b"after-restart"
            # The reader thread usually sees the listener's FIN first and
            # the next call simply re-dials; if the call wins the race it
            # is replayed.  Either way: transparent, at most one replay.
            assert transport.reconnects <= 1
        finally:
            transport.close()
            server.stop()

    def test_connection_dying_under_a_call_is_replayed_once(self, pipelined_stack):
        _, _, server, _, _ = pipelined_stack
        proxy = HangUpOnceProxy(server.address)
        transport = PipelinedTcpTransport(*proxy.address, timeout=15.0)
        client = GalleryClient(transport, client_id="half-open")
        try:
            client.create_gallery_model("p", "demand")  # connection now in use
            proxy.armed = True
            instance = client.upload_model("p", "demand", b"replayed")
            assert transport.reconnects == 1
            assert client.load_model_blob(instance["instance_id"]) == b"replayed"
            assert transport.reconnects == 1  # healed, not flapping
            assert len(client.model_query([])) == 1  # no duplicate write
        finally:
            transport.close()
            proxy.close()

    def test_fresh_connection_failure_surfaces(self):
        _, service = build_service()
        server = GalleryTcpServer(service).start()
        host, port = server.address
        server.stop()
        transport = PipelinedTcpTransport(host, port, timeout=2.0)
        client = GalleryClient(transport)
        with pytest.raises((ServiceError, OSError)):
            client.audit_storage()
        assert transport.reconnects <= 1  # no reconnect storm against a corpse
        transport.close()


class TestMultiplexing:
    def test_submit_many_resolves_every_handle(self, pipelined_stack):
        _, _, _, client, transport = pipelined_stack
        client.create_gallery_model("p", "demand")
        frames = [
            wire.encode_request(
                wire.Request(
                    method="auditStorage", request_id=100 + i, client_id="mx"
                ),
            )
            for i in range(32)
        ]
        handles = transport.submit_many(frames)
        for i, handle in enumerate(handles):
            response = wire.decode_response(handle.wait(15.0))
            assert response.ok
            assert response.request_id == 100 + i

    def test_out_of_order_responses_are_correlated(self, pipelined_stack):
        # A cheap query and an expensive blob upload race on one socket;
        # whichever finishes first, each response lands on its own handle.
        _, _, _, client, transport = pipelined_stack
        client.create_gallery_model("p", "demand")
        big = bytes(range(256)) * 4096  # 1 MiB upload: the slow request
        slow = wire.encode_request(
            wire.Request(
                method="uploadModel",
                params={
                    "project": "p",
                    "base_version_id": "demand",
                    "blob": big,
                    "metadata": None,
                    "parent_instance_id": None,
                },
                request_id=7001,
                client_id="mx",
            ),
        )
        fast = wire.encode_request(
            wire.Request(method="auditStorage", request_id=7002, client_id="mx"),
        )
        slow_handle = transport.submit(slow)
        fast_handle = transport.submit(fast)
        fast_response = wire.decode_response(fast_handle.wait(15.0))
        slow_response = wire.decode_response(slow_handle.wait(15.0))
        assert fast_response.request_id == 7002 and fast_response.ok
        assert slow_response.request_id == 7001 and slow_response.ok

    def test_crashed_dispatcher_fails_only_its_own_request(self, pipelined_stack):
        # One poisoned request among eight pipelined ones: the server's
        # error reply must name that request, not read as a stream-level
        # failure that takes every in-flight exchange down with it.
        _, service, _, _, transport = pipelined_stack
        poisoned = 503
        crashed = threading.Event()
        dispatch = service.handle_frame_stream

        def crashing(frame, chunk_size):
            if wire.peek_request_id(frame) == poisoned:
                raise RuntimeError("dispatcher crashed")
            crashed.wait(10.0)  # stay in flight until the crash was answered
            return dispatch(frame, chunk_size)

        service.handle_frame_stream = crashing
        ids = range(500, 508)
        handles = transport.submit_many(
            [
                wire.encode_request(
                    wire.Request(method="auditStorage", request_id=i, client_id="mx")
                )
                for i in ids
            ]
        )
        by_id = dict(zip(ids, handles))
        with pytest.raises(ServiceError, match="dispatcher crashed"):
            wire.decode_response(by_id.pop(poisoned).wait(15.0)).raise_if_error()
        crashed.set()
        for request_id, handle in by_id.items():
            response = wire.decode_response(handle.wait(15.0))
            assert response.ok and response.request_id == request_id
        assert transport.reconnects == 0

    def test_many_threads_share_one_pipelined_transport(self, pipelined_stack):
        gallery, _, _, client, _ = pipelined_stack
        client.create_gallery_model("p", "demand")
        errors: list[Exception] = []

        def worker(worker_id: int) -> None:
            try:
                for index in range(8):
                    client.upload_model("p", "demand", f"w{worker_id}-{index}".encode())
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert len(gallery.instances_of("demand")) == 48


def request_frame(method, request_id, **params):
    return wire.encode_request(
        wire.Request(
            method=method, params=params, request_id=request_id, client_id="mx"
        )
    )


class TestEventLoopOffersReads:
    """Read frames go event loop -> batcher; no worker is on their path."""

    def test_reads_resolve_while_the_only_worker_is_parked(self):
        gallery, service = build_service()
        gallery.create_model("p", "demand")
        instance = gallery.upload_model("p", "demand", b"artifact")
        gallery.assign_serving("sf", instance.instance_id)
        parked, release = threading.Event(), threading.Event()
        dispatch = service.handle_frame_stream

        def parking(frame, chunk_size):
            if wire.peek_method(frame) == "createGalleryModel":
                parked.set()
                release.wait(15.0)
            return dispatch(frame, chunk_size)

        service.handle_frame_stream = parking
        with GalleryTcpServer(service, workers=1) as server:
            transport = PipelinedTcpTransport(*server.address, timeout=15.0)
            try:
                mutation = transport.submit(
                    request_frame(
                        "createGalleryModel", 900, project="p",
                        base_version_id="supply",
                    )
                )
                assert parked.wait(5.0)
                reads = transport.submit_many(
                    [request_frame("servingFor", 901 + i, scope="sf") for i in range(8)]
                )
                for i, handle in enumerate(reads):
                    response = wire.decode_response(handle.wait(5.0))
                    assert response.ok and response.request_id == 901 + i
                    assert response.result["instance_id"] == instance.instance_id
                assert not mutation.done()
                release.set()
                assert wire.decode_response(mutation.wait(5.0)).ok
            finally:
                release.set()
                transport.close()

    def test_each_frame_takes_exactly_one_path(self, pipelined_stack):
        _, service, _, _, transport = pipelined_stack
        offered: dict[int, list[str]] = {}
        streamed: dict[int, list[str]] = {}

        def recording(seen, fn):
            def wrapper(frame, *rest):
                seen.setdefault(wire.peek_request_id(frame), []).append(
                    threading.current_thread().name
                )
                return fn(frame, *rest)

            return wrapper

        # Instance attributes, looked up per call by the event loop.
        service.read_batcher.offer = recording(offered, service.read_batcher.offer)
        service.handle_frame_stream = recording(streamed, service.handle_frame_stream)

        others = sorted(set(service.methods()) - BATCHABLE_METHODS)
        oversized = 1 + len(others)  # a read too big to decode on the loop
        frames = [request_frame(method, 1 + i) for i, method in enumerate(others)]
        frames.append(
            request_frame("getModel", oversized, model_id="m" * (_RECV_CHUNK + 1))
        )
        for handle in transport.submit_many(frames):
            handle.wait(15.0)  # many are typed errors (no params); all answer
        for request_id in range(1, oversized + 1):
            (thread,) = streamed[request_id]  # once ...
            assert thread.startswith("gallery-worker-")  # ... via the pool
            assert request_id not in offered

        service.undrain()  # fleetDrain was among the frames above
        small = oversized + 1
        transport.submit(request_frame("getModel", small, model_id="ghost")).wait(15.0)
        assert offered[small] == ["gallery-tcp"]
        assert small not in streamed


    def test_draining_replica_still_refuses_a_read_typed(self, pipelined_stack):
        _, service, server, _, transport = pipelined_stack
        assert server.drain(wait_timeout=5.0)
        handle = transport.submit(request_frame("servingFor", 1, scope="sf"))
        response = wire.decode_response(handle.wait(15.0))
        assert response.error_type == "ReplicaDrainingError"
        assert response.request_id == 1
        assert service.read_batcher.stats_snapshot()["batched_requests"] == 0


class TestClientPipeline:
    def test_pipeline_over_pipelined_transport(self, pipelined_stack):
        _, _, _, client, _ = pipelined_stack
        client.create_gallery_model("p", "demand")
        uploaded = [
            client.upload_model("p", "demand", f"blob-{i}".encode()) for i in range(4)
        ]
        with client.pipeline() as pipe:
            query = pipe.model_query([])
            blobs = [pipe.load_model_blob(u["instance_id"]) for u in uploaded]
            missing = pipe.get_model("ghost")
        assert len(query.result()) == 4
        for i, handle in enumerate(blobs):
            assert handle.result() == f"blob-{i}".encode()
        # One failed call parks its error without poisoning the batch.
        with pytest.raises(NotFoundError):
            missing.result()

    def test_pipeline_falls_back_on_plain_transport(self):
        _, service = build_service()
        client = connect_in_process(service)
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"plain")
        with client.pipeline() as pipe:
            blob = pipe.load_model_blob(instance["instance_id"])
            latest = pipe.latest_instance("demand")
        assert blob.result() == b"plain"
        assert latest.result()["instance_id"] == instance["instance_id"]

    def test_unflushed_handle_is_a_programming_error(self):
        _, service = build_service()
        client = connect_in_process(service)
        pipe = client.pipeline()
        handle = pipe.call("auditStorage")
        assert not handle.done()
        with pytest.raises(RuntimeError, match="not flushed"):
            handle.result()
        pipe.flush()
        assert handle.result()["consistent"]

    def test_exception_inside_with_block_skips_flush(self):
        _, service = build_service()
        client = connect_in_process(service)
        with pytest.raises(ValueError):
            with client.pipeline() as pipe:
                pipe.call("auditStorage")
                raise ValueError("caller bug")
        # The queued call was never sent; its handle stays unresolved.

    def test_batch_helpers(self, pipelined_stack):
        _, _, _, client, _ = pipelined_stack
        client.create_gallery_model("p", "demand")
        instances = [
            client.upload_model(
                "p", "demand", f"b{i}".encode(), metadata={"model_name": "rf"}
            )
            for i in range(3)
        ]
        ids = [i["instance_id"] for i in instances]

        blobs = client.load_model_blobs(ids)
        assert blobs == {ids[i]: f"b{i}".encode() for i in range(3)}

        metrics = client.insert_metrics_many(
            {ids[0]: {"bias": 0.1, "rmse": 2.0}, ids[1]: {"bias": 0.2}}
        )
        assert len(metrics[ids[0]]) == 2
        assert len(metrics[ids[1]]) == 1

        results = client.model_query_many(
            [
                [{"field": "modelName", "operator": "equal", "value": "rf"}],
                [{"field": "modelName", "operator": "equal", "value": "absent"}],
            ]
        )
        assert len(results[0]) == 3
        assert results[1] == []
