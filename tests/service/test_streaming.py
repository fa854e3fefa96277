"""Server-side chunked response streaming over the event-loop server.

The acceptance bar for PR 5's streaming layer:

* serving a 4 MiB blob never puts more than ``chunk_size`` of encoded
  body in any one wire frame (verified by instrumenting frame sizes on a
  raw socket);
* a response that fits one chunk stays a single plain frame;
* an error raised mid-stream (after the first chunk is already on the
  wire) surfaces to the client as a typed wire error, not a hung
  reassembly;
* the pipelined client path reassembles transparently.
"""

from __future__ import annotations

import socket
import struct

import pytest

from repro import build_gallery
from repro.core import ManualClock, SeededIdFactory
from repro.errors import ServiceError
from repro.service import wire
from repro.service.client import GalleryClient
from repro.service.server import GalleryService
from repro.service.tcp import GalleryTcpServer, PipelinedTcpTransport
from repro.service.wire import Request

_PREFIX = struct.Struct(">Q")
_BLOB = bytes(range(256)) * (4 * 4096)  # 4 MiB


def build_service():
    gallery = build_gallery(clock=ManualClock(), id_factory=SeededIdFactory(7))
    return GalleryService(gallery)


def upload_blob(address, blob=_BLOB):
    with PipelinedTcpTransport(*address) as transport:
        client = GalleryClient(transport)
        client.create_gallery_model("p", "demand")
        instance = client.upload_model(
            "p", "demand", blob, metadata={"model_name": "rf"}
        )
    return instance["instance_id"]


def read_frames_until_complete(sock):
    """Read whole frames off *sock* until the reassembler emits a response.

    Returns ``(frame_sizes, complete_response_frame)``.
    """
    reassembler = wire.ChunkReassembler()
    sizes = []
    buf = bytearray()
    while True:
        while len(buf) >= _PREFIX.size:
            (length,) = _PREFIX.unpack_from(buf)
            total = _PREFIX.size + length
            if len(buf) < total:
                break
            frame = bytes(buf[:total])
            del buf[:total]
            sizes.append(len(frame))
            complete = reassembler.feed(frame)
            if complete is not None:
                return sizes, complete
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise AssertionError("connection closed before a full response")
        buf += chunk


class TestServerFrameBounds:
    def test_4mib_blob_streams_in_bounded_frames(self):
        chunk_size = wire.DEFAULT_CHUNK_SIZE  # 256 KiB
        with GalleryTcpServer(build_service()) as server:
            instance_id = upload_blob(server.address)
            request = wire.encode_request(
                Request(
                    method="loadModelBlob",
                    params={"instance_id": instance_id},
                    request_id=41,
                ),
            )
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(request)
                sizes, complete = read_frames_until_complete(sock)
        # The response was actually chunked...
        assert len(sizes) >= len(_BLOB) // chunk_size
        # ...and no frame ever carried more than chunk_size of body (plus
        # the fixed length-prefix + chunk-header overhead).
        limit = _PREFIX.size + wire._CHUNK_HEADER.size + chunk_size
        assert max(sizes) <= limit
        response = wire.decode_response(complete)
        assert response.ok
        assert response.result == _BLOB

    def test_custom_chunk_size_is_honoured(self):
        chunk_size = 32 * 1024
        service = build_service()
        with GalleryTcpServer(service, chunk_size=chunk_size) as server:
            instance_id = upload_blob(server.address, b"x" * 200_000)
            request = wire.encode_request(
                Request(
                    method="loadModelBlob",
                    params={"instance_id": instance_id},
                    request_id=42,
                ),
            )
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(request)
                sizes, complete = read_frames_until_complete(sock)
        limit = _PREFIX.size + wire._CHUNK_HEADER.size + chunk_size
        assert len(sizes) > 1
        assert max(sizes) <= limit
        assert wire.decode_response(complete).result == b"x" * 200_000

    def test_blob_under_one_chunk_gets_one_frame(self):
        small = _BLOB[: wire.DEFAULT_CHUNK_SIZE // 2]
        with GalleryTcpServer(build_service()) as server:
            instance_id = upload_blob(server.address, small)
            request = wire.encode_request(
                Request(
                    method="loadModelBlob",
                    params={"instance_id": instance_id},
                    request_id=43,
                ),
            )
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(request)
                sizes, complete = read_frames_until_complete(sock)
        assert len(sizes) == 1  # fits one chunk: a plain response frame
        response = wire.decode_response(complete)
        assert wire.decode_blob(response.result) == small


class _AbortAfterFirstChunk(wire.ResponseStream):
    """A chunked stream whose producer dies after the first chunk."""

    def __iter__(self):
        inner = super().__iter__()

        def frames():
            yield next(inner)
            raise RuntimeError("backing store vanished mid-stream")

        return frames()


class _MidStreamFailingService:
    """Delegates to a real service but breaks every chunked stream."""

    def __init__(self, service):
        self._service = service

    def __getattr__(self, name):
        return getattr(self._service, name)

    def handle_frame_stream(self, data, chunk_size=wire.DEFAULT_CHUNK_SIZE):
        stream = self._service.handle_frame_stream(data, chunk_size)
        if stream.single is not None:
            return stream
        return _AbortAfterFirstChunk(
            parts=stream._parts,
            total=stream.total,
            request_id=stream.request_id,
            chunk_size=stream._chunk_size,
        )


class TestMidStreamErrors:
    """Regression: a producer failure after chunk 1 must not hang clients."""

    def test_pipelined_client_sees_typed_error_not_a_hang(self):
        service = _MidStreamFailingService(build_service())
        with GalleryTcpServer(service) as server:
            instance_id = upload_blob(server.address)
            with PipelinedTcpTransport(*server.address, timeout=10.0) as t:
                client = GalleryClient(t)
                with pytest.raises(ServiceError) as excinfo:
                    client.load_model_blob(instance_id)
        assert "RuntimeError" in str(excinfo.value)

    def test_small_responses_unaffected_by_breaking_wrapper(self):
        # Single-frame responses never enter the stream path, so the same
        # wrapped server still answers document calls.
        service = _MidStreamFailingService(build_service())
        with GalleryTcpServer(service) as server:
            with PipelinedTcpTransport(*server.address) as transport:
                client = GalleryClient(transport)
                assert client.audit_storage()["consistent"]


class TestPipelinedStreaming:
    def test_pipeline_of_chunked_blobs_reassembles(self):
        """Eight multi-chunk responses interleaving on one connection."""
        with GalleryTcpServer(build_service()) as server:
            instance_id = upload_blob(server.address)
            with PipelinedTcpTransport(*server.address) as transport:
                client = GalleryClient(transport)
                with client.pipeline() as pipe:
                    handles = [
                        pipe.load_model_blob(instance_id) for _ in range(8)
                    ]
                assert all(handle.result() == _BLOB for handle in handles)
