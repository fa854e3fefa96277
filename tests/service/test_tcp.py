"""Tests for the TCP transport: framing over a real socket."""

import socket
import struct
import threading

import pytest

from repro import build_gallery
from repro.core import ManualClock, SeededIdFactory
from repro.errors import NotFoundError, ServiceError
from repro.service import wire
from repro.service.client import GalleryClient
from repro.service.server import GalleryService
from repro.service.tcp import MAX_FRAME_BYTES, GalleryTcpServer, PipelinedTcpTransport


@pytest.fixture
def tcp_stack():
    gallery = build_gallery(clock=ManualClock(), id_factory=SeededIdFactory(3))
    service = GalleryService(gallery)
    server = GalleryTcpServer(service).start()
    host, port = server.address
    transport = PipelinedTcpTransport(host, port)
    client = GalleryClient(transport)
    yield gallery, server, client, transport
    transport.close()
    server.stop()


class TestRoundTrips:
    def test_full_workflow_over_tcp(self, tcp_stack):
        _, _, client, _ = tcp_stack
        client.create_gallery_model("p", "demand", owner="net")
        instance = client.upload_model(
            "p", "demand", b"network-bytes", metadata={"model_name": "rf"}
        )
        client.insert_model_instance_metric(instance["instance_id"], "bias", 0.02)
        hits = client.model_query(
            [{"field": "modelName", "operator": "equal", "value": "rf"}]
        )
        assert [h["instance_id"] for h in hits] == [instance["instance_id"]]
        assert client.load_model_blob(instance["instance_id"]) == b"network-bytes"

    def test_large_blob_over_tcp(self, tcp_stack):
        _, _, client, _ = tcp_stack
        client.create_gallery_model("p", "demand")
        payload = bytes(range(256)) * 8192  # 2 MiB
        instance = client.upload_model("p", "demand", payload)
        assert client.load_model_blob(instance["instance_id"]) == payload

    def test_errors_cross_the_socket(self, tcp_stack):
        _, _, client, _ = tcp_stack
        with pytest.raises(NotFoundError):
            client.get_model("ghost")

    def test_many_sequential_requests_one_connection(self, tcp_stack):
        _, _, client, _ = tcp_stack
        client.create_gallery_model("p", "demand")
        for index in range(50):
            client.upload_model("p", "demand", f"v{index}".encode())
        assert len(client.instances_of("demand")) == 50


class TestConcurrency:
    def test_parallel_clients(self, tcp_stack):
        gallery, server, _, _ = tcp_stack
        host, port = server.address
        errors: list[Exception] = []

        def worker(worker_id: int) -> None:
            try:
                with PipelinedTcpTransport(host, port) as transport:
                    client = GalleryClient(transport)
                    client.create_gallery_model("p", f"demand-{worker_id}")
                    for index in range(10):
                        client.upload_model(
                            "p", f"demand-{worker_id}", f"w{worker_id}-{index}".encode()
                        )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        total = gallery.dal.metadata.counts()["instances"]
        assert total == 40


class TestLifecycleAndErrors:
    def test_double_start_rejected(self):
        gallery = build_gallery()
        server = GalleryTcpServer(GalleryService(gallery)).start()
        try:
            with pytest.raises(ServiceError):
                server.start()
        finally:
            server.stop()

    def test_connection_to_stopped_server_fails(self):
        gallery = build_gallery()
        server = GalleryTcpServer(GalleryService(gallery)).start()
        host, port = server.address
        server.stop()
        transport = PipelinedTcpTransport(host, port, timeout=1.0)
        client = GalleryClient(transport)
        with pytest.raises((ServiceError, OSError)):
            client.get_model("x")

    def test_context_manager_form(self):
        gallery = build_gallery()
        with GalleryTcpServer(GalleryService(gallery)) as server:
            host, port = server.address
            with PipelinedTcpTransport(host, port) as transport:
                client = GalleryClient(transport)
                model = client.create_gallery_model("p", "demand")
                assert model["project"] == "p"

    def test_stop_returns_true_on_clean_shutdown(self):
        server = GalleryTcpServer(GalleryService(build_gallery())).start()
        assert server.stop() is True
        assert server.stopped_cleanly


class TestMalformedFrames:
    """A bad frame earns a structured wire error, not a silent hangup."""

    def _raw_exchange(self, address, payload):
        with socket.create_connection(address, timeout=5.0) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)  # we're done sending; read the reply
            sock.settimeout(5.0)
            chunks = []
            while True:
                try:
                    chunk = sock.recv(65536)
                except socket.timeout:
                    break
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def test_oversized_frame_gets_wire_format_error(self):
        with GalleryTcpServer(GalleryService(build_gallery())) as server:
            bogus_prefix = struct.pack(">Q", MAX_FRAME_BYTES + 1)
            raw = self._raw_exchange(server.address, bogus_prefix)
            response = wire.decode_response(raw)
            assert not response.ok
            assert response.error_type == "WireFormatError"
            assert "exceeds the limit" in response.error_message

    def test_truncated_frame_gets_wire_format_error(self):
        # A frame whose body fails to decode is answered per-request by the
        # service; a frame TRUNCATED mid-body is a stream-level wire error:
        # declare 1000 bytes, send 11, close.
        with GalleryTcpServer(GalleryService(build_gallery())) as server:
            truncated = struct.pack(">Q", 1000) + b"only-eleven"
            raw = self._raw_exchange(server.address, truncated)
            response = wire.decode_response(raw)
            assert not response.ok
            assert response.error_type == "WireFormatError"

    def test_connection_stays_usable_for_other_clients(self):
        with GalleryTcpServer(GalleryService(build_gallery())) as server:
            self._raw_exchange(
                server.address, struct.pack(">Q", MAX_FRAME_BYTES + 1)
            )
            host, port = server.address
            with PipelinedTcpTransport(host, port) as transport:
                client = GalleryClient(transport)
                assert client.create_gallery_model("p", "demand")["project"] == "p"
