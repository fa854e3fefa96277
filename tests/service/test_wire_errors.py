"""Tests for the typed error mapping across the wire.

A server-relayed failure must come back as the *same exception class* the
server raised — clients catch :class:`NotFoundError`, not a stringly-typed
:class:`ServiceError` they have to re-parse — while ``.error_type`` keeps
the wire-level name for legacy callers.
"""

import pytest

from repro import errors
from repro.errors import (
    BlobCorruptionError,
    GalleryError,
    NotFoundError,
    ServiceError,
    ValidationError,
)
from repro.service import wire


class TestErrorClassFor:
    def test_known_types_resolve_to_their_classes(self):
        assert errors.error_class_for("NotFoundError") is NotFoundError
        assert errors.error_class_for("ValidationError") is ValidationError
        assert errors.error_class_for("BlobCorruptionError") is BlobCorruptionError
        assert errors.error_class_for("ServiceError") is ServiceError
        assert errors.error_class_for("GalleryError") is GalleryError

    def test_unknown_types_resolve_to_none(self):
        assert errors.error_class_for("TotallyMadeUpError") is None
        assert errors.error_class_for("") is None

    def test_non_gallery_names_are_not_resolvable(self):
        # only the repro.errors hierarchy is addressable from the wire —
        # a malicious/buggy error_type cannot summon arbitrary classes
        assert errors.error_class_for("KeyError") is None
        assert errors.error_class_for("SystemExit") is None


def raise_from_wire(error_type, message="boom"):
    response = wire.Response(
        ok=False, error_type=error_type, error_message=message, request_id=1
    )
    with pytest.raises(Exception) as excinfo:
        response.raise_if_error()
    return excinfo.value


class TestRaiseIfError:
    def test_ok_response_returns_the_result(self):
        assert wire.Response(ok=True, result=41).raise_if_error() == 41

    @pytest.mark.parametrize(
        "error_type, exc_class",
        [
            ("NotFoundError", NotFoundError),
            ("ValidationError", ValidationError),
            ("BlobCorruptionError", BlobCorruptionError),
            ("ServiceError", ServiceError),
        ],
    )
    def test_typed_errors_raise_their_original_class(self, error_type, exc_class):
        exc = raise_from_wire(error_type, "instance ghost not found")
        assert type(exc) is exc_class
        assert "instance ghost not found" in str(exc)
        assert exc.error_type == error_type

    def test_unknown_error_type_falls_back_to_service_error(self):
        exc = raise_from_wire("ExoticFutureError", "what even")
        assert type(exc) is ServiceError
        assert "ExoticFutureError" in str(exc)  # name preserved in message
        assert exc.error_type == "ExoticFutureError"

    def test_empty_error_type_falls_back_to_service_error(self):
        exc = raise_from_wire("", "anonymous failure")
        assert type(exc) is ServiceError
        assert exc.error_type == ""

    def test_round_trip_through_encode_decode(self):
        encoded = wire.encode_response(
            wire.error_response(NotFoundError("no such instance"), request_id=9)
        )
        decoded = wire.decode_response(encoded)
        with pytest.raises(NotFoundError) as excinfo:
            decoded.raise_if_error()
        assert excinfo.value.error_type == "NotFoundError"


class TestEndToEnd:
    def test_client_catches_typed_errors_from_a_live_service(self, tmp_path):
        from repro.core.clock import ManualClock
        from repro.core.ids import SeededIdFactory
        from repro.core.registry import Gallery
        from repro.service.client import GalleryClient, InProcessTransport
        from repro.service.server import GalleryService
        from repro.store.blob import FilesystemBlobStore
        from repro.store.cache import LRUBlobCache
        from repro.store.dal import DataAccessLayer
        from repro.store.metadata_store import SQLiteMetadataStore

        dal = DataAccessLayer(
            SQLiteMetadataStore(":memory:"),
            FilesystemBlobStore(tmp_path),
            LRUBlobCache(4),
        )
        gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(11))
        client = GalleryClient(InProcessTransport(GalleryService(gallery)))
        with pytest.raises(NotFoundError):
            client.call("getModelInstance", instance_id="ghost")
        client.create_gallery_model("p", "demand")
        with pytest.raises(ValidationError):
            client.create_gallery_model("p", "demand")  # duplicate

    def test_nan_metric_over_a_live_socket_is_a_validation_error(self):
        """A NaN metric value is the caller's mistake: a ValidationError,
        not a DuplicateError from the store's NOT NULL column, and no
        metric of the batch is written."""
        from repro import build_gallery
        from repro.service import connect
        from repro.service.server import GalleryService
        from repro.service.tcp import GalleryTcpServer

        with GalleryTcpServer(GalleryService(build_gallery())) as server:
            host, port = server.address
            client = connect(f"gallery://{host}:{port}")
            try:
                client.create_gallery_model("p", "demand")
                instance = client.upload_model("p", "demand", blob=b"w")
                with pytest.raises(ValidationError, match="NaN"):
                    client.insert_model_instance_metrics(
                        instance["instance_id"], {"bias": 0.1, "mape": float("nan")}
                    )
                assert client.metrics_of(instance["instance_id"]) == []
            finally:
                client.close()

    def test_json_frame_over_a_live_socket_gets_a_typed_wire_error(self):
        """The removed JSON dialect is refused loudly: a typed reply in the
        one wire format, not a hang and not a dropped connection."""
        import socket
        import struct

        from repro import build_gallery
        from repro.service.server import GalleryService
        from repro.service.tcp import GalleryTcpServer

        def read_response(sock):
            prefix = sock.recv(8, socket.MSG_WAITALL)
            (length,) = struct.unpack(">Q", prefix)
            return wire.decode_response(prefix + sock.recv(length, socket.MSG_WAITALL))

        body = b'{"method":"auditStorage","params":{},"request_id":5}'
        with GalleryTcpServer(GalleryService(build_gallery())) as server:
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(struct.pack(">Q", len(body)) + body)
                # decode_response only accepts the one (binary) format.
                response = read_response(sock)
                assert not response.ok
                assert response.error_type == "WireFormatError"
                assert "unknown wire format" in response.error_message
                # The connection survived: a well-formed call still answers.
                sock.sendall(
                    wire.encode_request(
                        wire.Request(method="auditStorage", request_id=6)
                    )
                )
                followup = read_response(sock)
                assert followup.ok and followup.request_id == 6
