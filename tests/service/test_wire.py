"""Tests for the wire protocol: framing, errors, blob payloads."""

import pytest

from repro.errors import NotFoundError, ServiceError, WireFormatError
from repro.service import wire
from repro.service.wire import Request, Response


class TestRequestFraming:
    def test_round_trip(self):
        request = Request(method="modelQuery", params={"constraints": []}, request_id=7)
        restored = wire.decode_request(wire.encode_request(request))
        assert restored == request

    def test_empty_method_rejected(self):
        with pytest.raises(WireFormatError):
            Request(method="")

    def test_truncated_frame_rejected(self):
        data = wire.encode_request(Request(method="m"))
        with pytest.raises(WireFormatError):
            wire.decode_request(data[:-3])

    def test_short_frame_rejected(self):
        with pytest.raises(WireFormatError):
            wire.decode_request(b"123")

    def test_body_without_version_byte_rejected(self):
        frame = wire.encode_request(Request(method="m"))
        corrupted = frame[:8] + b"x" * (len(frame) - 8)
        with pytest.raises(WireFormatError, match="unknown wire format"):
            wire.decode_request(corrupted)

    def test_non_map_params_rejected(self):
        frame = wire.encode_request(Request(method="m", params={}))
        assert frame.endswith(b"{}")  # empty params: one embedded document
        with pytest.raises(WireFormatError, match="must decode to a map"):
            wire.decode_request(frame[:-2] + b"[]")

    def test_unserializable_params_rejected(self):
        with pytest.raises(WireFormatError, match="not wire-encodable"):
            wire.encode_request(Request(method="m", params={"blob": object()}))


class TestResponseFraming:
    def test_success_round_trip(self):
        response = Response(ok=True, result={"x": 1}, request_id=3)
        restored = wire.decode_response(wire.encode_response(response))
        assert restored.raise_if_error() == {"x": 1}
        assert restored.request_id == 3

    def test_error_reraises_original_class(self):
        response = wire.error_response(NotFoundError("no model m1"), request_id=2)
        restored = wire.decode_response(wire.encode_response(response))
        with pytest.raises(NotFoundError, match="no model m1"):
            restored.raise_if_error()

    def test_unknown_error_type_falls_back_to_service_error(self):
        response = Response(ok=False, error_type="AlienError", error_message="?")
        with pytest.raises(ServiceError):
            response.raise_if_error()


class TestBlobPayloads:
    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_bytes_like_payloads_come_back_as_bytes(self, kind):
        payload = bytes(range(256))
        blob = wire.decode_blob(kind(payload))
        assert type(blob) is bytes and blob == payload

    def test_empty_blob(self):
        assert wire.decode_blob(b"") == b""

    def test_text_blob_rejected(self):
        with pytest.raises(WireFormatError, match="must be bytes"):
            wire.decode_blob("aGVsbG8=")
