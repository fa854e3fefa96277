"""Property-based tests for the wire protocol.

Invariants: encode/decode round-trips are the identity for arbitrary
document-shaped params; blobs of any bytes round-trip; decoders are total
(value or WireFormatError) over arbitrary byte strings.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.errors import WireFormatError
from repro.service import wire
from repro.service.wire import Request, Response

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**31), max_value=2**31),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)

params = st.dictionaries(st.text(min_size=1, max_size=12), json_values, max_size=5)


@given(st.text(min_size=1, max_size=20), params, st.integers(0, 2**31))
@settings(max_examples=200)
def test_request_round_trip(method, request_params, request_id):
    request = Request(method=method, params=request_params, request_id=request_id)
    assert wire.decode_request(wire.encode_request(request)) == request


@given(json_values, st.integers(0, 2**31))
@settings(max_examples=200)
def test_success_response_round_trip(result, request_id):
    response = Response(ok=True, result=result, request_id=request_id)
    restored = wire.decode_response(wire.encode_response(response))
    assert restored.ok
    assert restored.result == result
    assert restored.request_id == request_id


@given(st.text(max_size=30), st.text(max_size=60))
@settings(max_examples=100)
def test_error_response_round_trip(error_type, message):
    response = Response(ok=False, error_type=error_type, error_message=message)
    restored = wire.decode_response(wire.encode_response(response))
    assert not restored.ok
    assert restored.error_type == error_type
    assert restored.error_message == message


@given(st.binary(max_size=4096))
@settings(max_examples=200)
def test_blob_round_trip(payload):
    frame = wire.encode_response(Response(ok=True, result=payload))
    assert wire.decode_blob(wire.decode_response(frame).result) == payload


@given(st.binary(max_size=200))
@settings(max_examples=300)
def test_decoders_total_over_arbitrary_bytes(data):
    for decoder in (wire.decode_request, wire.decode_response):
        try:
            decoder(data)
        except WireFormatError:
            pass
