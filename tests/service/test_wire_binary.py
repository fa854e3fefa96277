"""The wire format: fuzz/property coverage.

Invariants:

* encode/decode is the identity over arbitrary wire-encodable payloads,
  including raw ``bytes`` and integers beyond i64 (the bigint escape
  hatch);
* the decoder is **total**: any byte string either decodes or raises
  :class:`WireFormatError` — truncations, mutations, and random garbage
  never escape as other exceptions;
* frames survive arbitrary packet fragmentation over a real socket;
* a frame that does not start with the version byte — ``{`` included — is
  rejected with a typed :class:`WireFormatError`;
* malformed frames with a recoverable request_id are answered with that
  id (pipelined clients must be able to correlate the failure), and
  unknown error types survive ``raise_if_error`` with their name intact.
"""

from __future__ import annotations

import random
import socket
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import build_gallery
from repro.core import ManualClock, SeededIdFactory
from repro.errors import ServiceError, WireFormatError
from repro.service import wire
from repro.service.client import GalleryClient
from repro.service.server import GalleryService
from repro.service.tcp import GalleryTcpServer
from repro.service.wire import BINARY_VERSION, Request, Response

_PREFIX = struct.Struct(">Q")

wire_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),  # crosses the i64 line
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
        st.binary(max_size=64),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)

wire_params = st.dictionaries(st.text(min_size=1, max_size=12), wire_values, max_size=5)


def build_service():
    gallery = build_gallery(clock=ManualClock(), id_factory=SeededIdFactory(5))
    return GalleryService(gallery)


class TestRoundTrips:
    @given(
        st.text(min_size=1, max_size=20),
        wire_params,
        st.integers(0, 2**64 - 1),
        st.text(max_size=16),
        st.sampled_from([wire.LANE_INTERACTIVE, wire.LANE_BULK]),
    )
    @settings(max_examples=200)
    def test_request_round_trip(self, method, params, request_id, client_id, lane):
        request = Request(
            method=method,
            params=params,
            request_id=request_id,
            client_id=client_id,
            lane=lane,
        )
        frame = wire.encode_request(request)
        restored = wire.decode_request(frame)
        assert restored == request
        assert restored.client_id == client_id  # read-path QoS keys on this
        assert restored.lane == lane
        assert wire.peek_method(frame) == method  # what the event loop routes on
        # what the failover transport retries on
        assert wire.peek_request_head(frame) == (method, client_id)

    @given(
        st.text(min_size=1, max_size=20),
        st.dictionaries(  # blob-free: params ride the document fast path
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(2**50), max_value=2**50),
                st.text(max_size=12),
            ),
            max_size=4,
        ),
        st.text(max_size=16),
        st.sampled_from([wire.LANE_INTERACTIVE, wire.LANE_BULK]),
    )
    @settings(max_examples=100)
    def test_request_identity_fields_round_trip_beside_document_params(
        self, method, params, client_id, lane
    ):
        """client_id and lane survive beside params that took the embedded
        document path — the token buckets and lane scheduler must see the
        tenant the sender named."""
        request = Request(
            method=method, params=params, request_id=7,
            client_id=client_id, lane=lane,
        )
        restored = wire.decode_request(wire.encode_request(request))
        assert (restored.client_id, restored.lane) == (client_id, lane)
        assert restored.params == params

    def test_unknown_lane_code_degrades_to_interactive(self):
        frame = bytearray(wire.encode_request(Request(method="getModel")))
        # prefix | header | u16 + method | u16 + empty client_id | lane u8
        lane_at = _PREFIX.size + wire._BIN_HEADER.size + 2 + len("getModel") + 2
        assert frame[lane_at] == 0
        frame[lane_at] = 9  # a future lane
        assert wire.decode_request(bytes(frame)).lane == wire.LANE_INTERACTIVE

    @given(wire_values, st.integers(0, 2**64 - 1))
    @settings(max_examples=200)
    def test_success_response_round_trip(self, result, request_id):
        response = Response(ok=True, result=result, request_id=request_id)
        restored = wire.decode_response(wire.encode_response(response))
        assert restored.ok
        assert restored.result == result
        assert restored.request_id == request_id

    @given(st.text(max_size=30), st.text(max_size=60), st.integers(0, 2**32))
    @settings(max_examples=100)
    def test_error_response_round_trip(self, error_type, message, request_id):
        response = Response(
            ok=False,
            error_type=error_type,
            error_message=message,
            request_id=request_id,
        )
        restored = wire.decode_response(wire.encode_response(response))
        assert not restored.ok
        assert restored.error_type == error_type
        assert restored.error_message == message
        assert restored.request_id == request_id

    def test_blobs_cross_as_raw_bytes_without_inflation(self):
        payload = bytes(range(256)) * 64
        response = Response(ok=True, result=payload, request_id=9)
        frame = wire.encode_response(response)
        # Raw bytes plus a bounded header — no text-encoding blow-up.
        assert len(frame) < len(payload) + 64
        assert wire.decode_response(frame).result == payload

    def test_bigint_beyond_i64_round_trips(self):
        huge = 2**80 + 17
        request = Request(method="m", params={"n": huge, "m": -huge})
        restored = wire.decode_request(wire.encode_request(request))
        assert restored.params == {"n": huge, "m": -huge}


class TestDecoderTotality:
    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_total_over_binary_tagged_garbage(self, data):
        body = bytes([BINARY_VERSION]) + data
        frame = _PREFIX.pack(len(body)) + body
        for decoder in (wire.decode_request, wire.decode_response):
            try:
                decoder(frame)
            except WireFormatError:
                pass

    @given(
        st.text(min_size=1, max_size=10),
        wire_params,
        st.integers(0, 2**32),
        st.data(),
    )
    @settings(max_examples=200)
    def test_any_proper_prefix_is_rejected(self, method, params, request_id, data):
        frame = wire.encode_request(
            Request(method=method, params=params, request_id=request_id)
        )
        body = frame[_PREFIX.size :]
        cut = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
        truncated = _PREFIX.pack(cut) + body[:cut]
        with pytest.raises(WireFormatError):
            wire.decode_request(truncated)

    @given(st.text(min_size=1, max_size=10), wire_params, st.data())
    @settings(max_examples=200)
    def test_single_byte_mutations_never_escape(self, method, params, data):
        frame = bytearray(wire.encode_request(Request(method=method, params=params)))
        index = data.draw(st.integers(min_value=_PREFIX.size, max_value=len(frame) - 1))
        frame[index] ^= data.draw(st.integers(min_value=1, max_value=255))
        try:
            wire.decode_request(bytes(frame))
        except WireFormatError:
            pass

    @pytest.mark.parametrize("first", [0x02, ord("{")])
    def test_unsupported_version_byte_is_rejected(self, first):
        body = bytes([first]) + b"\x00" * 16
        frame = _PREFIX.pack(len(body)) + body
        for decoder in (wire.decode_request, wire.decode_response):
            with pytest.raises(WireFormatError, match="unknown wire format"):
                decoder(frame)


class TestRequestIdRecovery:
    """Satellite bugfix: malformed frames still answer with their id."""

    def test_recover_from_malformed_binary_body(self):
        body = wire._BIN_HEADER.pack(BINARY_VERSION, 0x00, 4242) + b"\xff\xff"
        frame = _PREFIX.pack(len(body)) + body
        with pytest.raises(WireFormatError):
            wire.decode_request(frame)
        assert wire.recover_request_id(frame) == 4242

    @given(st.binary(max_size=120))
    @settings(max_examples=300)
    def test_recovery_never_raises(self, data):
        assert wire.recover_request_id(data) >= 0

    def test_server_echoes_recoverable_id_on_wire_error(self):
        service = build_service()
        body = wire._BIN_HEADER.pack(BINARY_VERSION, 0x00, 911) + b"\xff"
        frame = _PREFIX.pack(len(body)) + body
        response = wire.decode_response(service.handle_frame(frame))
        assert not response.ok
        assert response.error_type == "WireFormatError"
        assert response.request_id == 911


class TestPeekMethod:
    """The event loop routes on the method name without decoding params."""

    FRAME = wire.encode_request(
        Request(method="servingFor", params={"scope": "sf"}, request_id=7)
    )

    def test_every_proper_prefix_is_none(self):
        for cut in range(len(self.FRAME)):
            assert wire.peek_method(self.FRAME[:cut]) is None

    def test_wrong_version_and_non_request_frames_are_none(self):
        wrong_version = bytearray(self.FRAME)
        wrong_version[_PREFIX.size] = 0x02
        assert wire.peek_method(bytes(wrong_version)) is None
        response = wire.encode_response(Response(ok=True, result=1, request_id=7))
        assert wire.peek_method(response) is None
        assert wire.peek_method(wire.encode_response_abort(ValueError("x"), 7)) is None

    def test_method_length_past_the_frame_or_bad_utf8_is_none(self):
        at = _PREFIX.size + wire._BIN_HEADER.size
        overlong = bytearray(self.FRAME)
        overlong[at:at + 2] = struct.pack(">H", len(self.FRAME))
        assert wire.peek_method(bytes(overlong)) is None
        bad_utf8 = bytearray(self.FRAME)
        bad_utf8[at + 2] = 0xFF
        assert wire.peek_method(bytes(bad_utf8)) is None

    @given(st.binary(max_size=120))
    @settings(max_examples=300)
    def test_never_raises(self, data):
        assert isinstance(wire.peek_method(data), str | None)


class TestErrorTypePreservation:
    """Satellite bugfix: unknown error types survive raise_if_error."""

    def test_unknown_error_type_kept_in_message_and_attribute(self):
        response = Response(
            ok=False, error_type="FancyFutureError", error_message="boom"
        )
        with pytest.raises(ServiceError) as excinfo:
            response.raise_if_error()
        assert "FancyFutureError" in str(excinfo.value)
        assert "boom" in str(excinfo.value)
        assert excinfo.value.error_type == "FancyFutureError"

    def test_known_error_type_exposes_wire_name(self):
        from repro.errors import NotFoundError

        response = Response(ok=False, error_type="NotFoundError", error_message="gone")
        with pytest.raises(NotFoundError) as excinfo:
            response.raise_if_error()
        assert excinfo.value.error_type == "NotFoundError"


class TestFragmentationOverSocket:
    """Frames survive arbitrary TCP fragmentation in both directions."""

    def _send_fragmented(self, sock, frame, rng):
        offset = 0
        while offset < len(frame):
            step = rng.randint(1, 7)
            sock.sendall(frame[offset : offset + step])
            offset += step

    def _read_frames(self, sock, count):
        """Read exactly *count* frames, however TCP coalesces them."""
        buf = bytearray()
        frames = []
        while len(frames) < count:
            while True:
                if len(buf) >= _PREFIX.size:
                    (length,) = _PREFIX.unpack_from(buf)
                    total = _PREFIX.size + length
                    if len(buf) >= total:
                        frames.append(bytes(buf[:total]))
                        del buf[:total]
                        if len(frames) == count:
                            break
                        continue
                break
            if len(frames) < count:
                buf += sock.recv(65536)
        return frames

    def test_byte_dribbled_binary_request_decodes(self):
        with GalleryTcpServer(build_service()) as server:
            rng = random.Random(1234)
            frame = wire.encode_request(
                Request(method="auditStorage", request_id=21)
            )
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._send_fragmented(sock, frame, rng)
                (raw,) = self._read_frames(sock, 1)
                response = wire.decode_response(raw)
                assert response.ok
                assert response.request_id == 21

    def test_two_frames_in_one_segment_both_answered(self):
        with GalleryTcpServer(build_service()) as server:
            frames = b"".join(
                wire.encode_request(Request(method="auditStorage", request_id=i))
                for i in (31, 32)
            )
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(frames)
                first, second = self._read_frames(sock, 2)
                ids = {
                    wire.decode_response(first).request_id,
                    wire.decode_response(second).request_id,
                }
                assert ids == {31, 32}


class TestChunkedStreaming:
    """PR 5: multi-MB responses stream as bounded chunk frames."""

    def _stream_frames(self, payload, request_id, chunk_size):
        response = Response(ok=True, result=payload, request_id=request_id)
        return list(wire.encode_response_stream(response, chunk_size=chunk_size))

    def test_small_response_stays_single_frame(self):
        frames = self._stream_frames(b"tiny", 5, 256 * 1024)
        assert len(frames) == 1
        assert wire.decode_response(frames[0]).result == b"tiny"

    def test_large_blob_chunks_and_reassembles(self):
        payload = bytes(range(256)) * 4096  # 1 MiB
        chunk_size = 64 * 1024
        frames = self._stream_frames(payload, 7, chunk_size)
        assert len(frames) > 1
        # Every frame is bounded: chunk header + at most chunk_size payload.
        limit = _PREFIX.size + wire._CHUNK_HEADER.size + chunk_size
        assert all(len(frame) <= limit for frame in frames)
        reassembler = wire.ChunkReassembler()
        outputs = [reassembler.feed(frame) for frame in frames]
        assert all(out is None for out in outputs[:-1])
        response = wire.decode_response(outputs[-1])
        assert response.ok
        assert response.result == payload
        assert response.request_id == 7
        assert len(reassembler) == 0

    def test_interleaved_request_ids_reassemble_independently(self):
        payloads = {
            11: bytes([1]) * 300_000,
            12: bytes([2]) * 200_000,
            13: bytes([3]) * 250_000,
        }
        per_stream = {
            rid: self._stream_frames(payload, rid, 64 * 1024)
            for rid, payload in payloads.items()
        }
        # Round-robin interleave the three streams (in-stream order kept).
        rng = random.Random(99)
        cursors = {rid: 0 for rid in per_stream}
        reassembler = wire.ChunkReassembler()
        done = {}
        while cursors:
            rid = rng.choice(sorted(cursors))
            frames = per_stream[rid]
            out = reassembler.feed(frames[cursors[rid]])
            cursors[rid] += 1
            if cursors[rid] == len(frames):
                del cursors[rid]
            if out is not None:
                done[rid] = wire.decode_response(out)
        assert set(done) == set(payloads)
        for rid, payload in payloads.items():
            assert done[rid].result == payload
            assert done[rid].request_id == rid

    def test_truncated_stream_yields_nothing_and_tracks_partial(self):
        frames = self._stream_frames(b"z" * 500_000, 21, 64 * 1024)
        reassembler = wire.ChunkReassembler()
        for frame in frames[:-1]:
            assert reassembler.feed(frame) is None
        assert len(reassembler) == 1  # partial body parked, nothing emitted

    def test_out_of_order_chunk_raises(self):
        frames = self._stream_frames(b"z" * 500_000, 22, 64 * 1024)
        reassembler = wire.ChunkReassembler()
        assert reassembler.feed(frames[0]) is None
        with pytest.raises(WireFormatError, match="out-of-order"):
            reassembler.feed(frames[2])

    def test_mid_stream_start_raises(self):
        frames = self._stream_frames(b"z" * 500_000, 23, 64 * 1024)
        reassembler = wire.ChunkReassembler()
        with pytest.raises(WireFormatError, match="offset"):
            reassembler.feed(frames[1])

    def test_abort_frame_becomes_typed_error_response(self):
        frames = self._stream_frames(b"z" * 500_000, 24, 64 * 1024)
        reassembler = wire.ChunkReassembler()
        assert reassembler.feed(frames[0]) is None
        abort = wire.encode_response_abort(RuntimeError("disk gone"), 24)
        out = reassembler.feed(abort)
        response = wire.decode_response(out)
        assert not response.ok
        assert response.error_type == "RuntimeError"
        assert response.error_message == "disk gone"
        assert response.request_id == 24
        assert len(reassembler) == 0  # partial buffer discarded

    def test_plain_frames_pass_through_untouched(self):
        reassembler = wire.ChunkReassembler()
        frame = wire.encode_response(Response(ok=True, result=[1, 2], request_id=1))
        assert reassembler.feed(frame) == frame

    @given(st.data())
    @settings(max_examples=120)
    def test_fuzzed_chunk_interleaving_across_ids(self, data):
        """Any in-stream-order interleave across ids must reassemble."""
        ids = data.draw(
            st.lists(
                st.integers(1, 2**32), min_size=1, max_size=3, unique=True
            )
        )
        chunk_size = data.draw(st.sampled_from([1024, 4096, 65536]))
        # Payload shape (size + repeating fill) is what matters here, not
        # its entropy — drawing raw st.binary() at these sizes trips the
        # too_slow health check.
        payloads = {}
        for rid in ids:
            size = data.draw(
                st.integers(chunk_size + 1, 4 * chunk_size)
            )
            fill = data.draw(st.binary(min_size=1, max_size=16))
            payloads[rid] = (fill * (size // len(fill) + 1))[:size]
        per_stream = {
            rid: self._stream_frames(payload, rid, chunk_size)
            for rid, payload in payloads.items()
        }
        reassembler = wire.ChunkReassembler()
        cursors = {rid: 0 for rid in per_stream}
        done = {}
        while cursors:
            rid = data.draw(st.sampled_from(sorted(cursors)))
            out = reassembler.feed(per_stream[rid][cursors[rid]])
            cursors[rid] += 1
            if cursors[rid] == len(per_stream[rid]):
                del cursors[rid]
            if out is not None:
                done[rid] = wire.decode_response(out)
        for rid, payload in payloads.items():
            assert done[rid].result == payload

    @given(st.binary(max_size=200), st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_reassembler_is_total_over_chunk_garbage(self, garbage, rid):
        """Arbitrary chunk/abort-typed bodies never escape WireFormatError."""
        for msgtype in (0x02, 0x03):
            body = wire._BIN_HEADER.pack(BINARY_VERSION, msgtype, rid) + garbage
            frame = _PREFIX.pack(len(body)) + body
            reassembler = wire.ChunkReassembler()
            try:
                reassembler.feed(frame)
            except WireFormatError:
                pass


def build_family_service():
    """A service with one family: an enabled, a disabled, and a serving row."""
    gallery = build_gallery(clock=ManualClock(), id_factory=SeededIdFactory(11))
    gallery.create_model("p", "demand", family="demand_rf")
    enabled = gallery.upload_model("p", "demand", blob=b"a", family="sf:rf")
    disabled = gallery.upload_model(
        "p", "demand", blob=b"b", family="sf:rf", enabled=False
    )
    gallery.assign_serving("sf", enabled.instance_id, reason="launch")
    return GalleryService(gallery), enabled, disabled


class TestFamilyServingWireFuzz:
    """PR9 wire methods fuzzed through the codec.

    familyQuery / servingFor / assignServing must produce the same result
    (or the same typed error) through a full encode → handle_frame → decode
    round trip as the dispatcher produces with no codec in the way.
    """

    def _round_trip(self, service, method, params):
        direct = service.dispatch(Request(method=method, params=params, request_id=1))
        frame = wire.encode_request(
            Request(method=method, params=params, request_id=2)
        )
        wired = wire.decode_response(service.handle_frame(frame))
        assert wired.request_id == 2
        assert wired.ok == direct.ok, f"{method}: the codec changed the outcome"
        if direct.ok:
            assert wired.result == direct.result
        else:
            assert wired.error_type == direct.error_type
            assert wired.error_message == direct.error_message
        return wired

    @given(
        family=st.one_of(st.sampled_from(["sf:rf", "", "ghost"]), st.text(max_size=12)),
        include_disabled=st.booleans(),
        include_deprecated=st.booleans(),
        models=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_family_query_round_trip(
        self, family, include_disabled, include_deprecated, models
    ):
        service, enabled, disabled = build_family_service()
        response = self._round_trip(
            service,
            "familyQuery",
            {
                "family": family,
                "include_disabled": include_disabled,
                "include_deprecated": include_deprecated,
                "models": models,
            },
        )
        assert response.ok
        assert isinstance(response.result, list)
        if family == "sf:rf" and not models:
            ids = {doc["instance_id"] for doc in response.result}
            assert enabled.instance_id in ids
            assert (disabled.instance_id in ids) == include_disabled

    @given(scope=st.one_of(st.just("sf"), st.text(max_size=8)))
    @settings(max_examples=50, deadline=None)
    def test_serving_for_round_trip(self, scope):
        service, enabled, _disabled = build_family_service()
        response = self._round_trip(service, "servingFor", {"scope": scope})
        if scope == "sf":
            assert response.ok
            assert response.result["instance_id"] == enabled.instance_id
            assert response.result["family"] == "sf:rf"
        else:
            assert not response.ok
            assert response.error_type == "NotFoundError"

    @given(
        scope=st.text(max_size=8),
        target=st.sampled_from(["enabled", "disabled", "ghost"]),
        reason=st.text(max_size=16),
    )
    @settings(max_examples=50, deadline=None)
    def test_assign_serving_round_trip(self, scope, target, reason):
        service, enabled, disabled = build_family_service()
        instance_id = {
            "enabled": enabled.instance_id,
            "disabled": disabled.instance_id,
            "ghost": "no-such-instance",
        }[target]
        response = self._round_trip(
            service,
            "assignServing",
            {"scope": scope, "instance_id": instance_id, "reason": reason},
        )
        if target == "ghost":
            assert response.error_type == "NotFoundError"
        elif target == "disabled":
            assert response.error_type == "ValidationError", "enablement gate"
        elif not scope:
            assert response.error_type == "ValidationError"
        else:
            assert response.ok
            assert response.result["scope"] == scope
            assert response.result["instance_id"] == enabled.instance_id


class TestUnknownMethodCompat:
    """A new client against a pre-PR9 server: typed, fail-fast errors.

    The old server never registered the family methods, so it answers with
    UnknownMethodError — which must cross the wire typed (not a generic
    ServiceError) and must NOT be retried: the error is deterministic, so
    burning the retry budget on it would only delay the caller's fallback.
    """

    def _old_server(self):
        service = build_service()
        for method in ("familyQuery", "servingFor", "assignServing"):
            service._methods.pop(method, None)  # noqa: SLF001 - simulate pre-PR9
        return service

    def test_unknown_method_is_typed_on_the_wire(self):
        frame = wire.encode_request(
            Request(method="familyQuery", params={"family": "x"}, request_id=5)
        )
        response = wire.decode_response(self._old_server().handle_frame(frame))
        assert not response.ok
        assert response.error_type == "UnknownMethodError"
        assert response.request_id == 5

    def test_new_client_fails_fast_without_retry_burn(self):
        from repro.errors import UnknownMethodError
        from repro.service.client import InProcessTransport
        from repro.service.endpoints import Endpoint, FailoverTransport

        old_server = InProcessTransport(self._old_server())
        transport = FailoverTransport(
            [Endpoint("old-server", 1)],
            transport_factory=lambda _endpoint: old_server,
        )
        client = GalleryClient(transport)
        with pytest.raises(UnknownMethodError):
            client.family_query("sf:rf")
        with pytest.raises(UnknownMethodError):
            client.serving_for("sf")
        with pytest.raises(UnknownMethodError):
            client.assign_serving("sf", "i-1")
        assert transport.attempts == 3, "deterministic errors must not be retried"
