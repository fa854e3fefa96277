"""Wire format for the Gallery service (Section 4.1).

Uber exposes Gallery through one Thrift IDL with language-specific clients.
This reproduction keeps the same shape — typed request/response structs,
binary framing, language-neutral payloads — in **one** encoding behind an
8-byte big-endian length prefix: a compact self-describing body of one
version byte (0x01), a message type, a fixed header, then struct-packed
type-tagged values with length-prefixed strings/bytes.  Blobs travel as
**raw bytes** — no text inflation, one copy in and one out.

A frame whose body does not start with :data:`BINARY_VERSION` is rejected
with a typed :class:`~repro.errors.WireFormatError`; there is no second
encoding to negotiate.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro import errors
from repro.errors import WireFormatError

_LENGTH = struct.Struct(">Q")

#: The only value the second parameter of :func:`encode_request` and
#: :func:`encode_response` accepts.  Kept because ``benchmarks/gallerybench``
#: passes it and may not be edited alongside this module.
DIALECT_BINARY = "binary"

#: First body byte of every frame.  Bump on incompatible layout changes.
BINARY_VERSION = 0x01

_MSG_REQUEST = 0x00
_MSG_RESPONSE = 0x01
_MSG_RESPONSE_CHUNK = 0x02
_MSG_RESPONSE_ABORT = 0x03

#: version u8 | msgtype u8 | request_id u64 — the request id sits at a
#: fixed offset so pipelined transports can correlate frames without a
#: full decode.
_BIN_HEADER = struct.Struct(">BBQ")

#: Where a response frame's version and msgtype bytes start, and where its
#: ok flag sits (:func:`peek_response_error`).
_RESPONSE_HEAD = bytes((BINARY_VERSION, _MSG_RESPONSE))
_OK_AT = _LENGTH.size + _BIN_HEADER.size

#: Chunk frames extend the header with the total reassembled body length
#: and this chunk's offset into it: version u8 | msgtype u8 | request_id
#: u64 | total_len u64 | offset u64.  The first chunk's total_len lets the
#: receiver preallocate the whole reassembly buffer up front.
_CHUNK_HEADER = struct.Struct(">BBQQQ")

#: Default streaming chunk size: responses whose encoded body exceeds this
#: are shipped as a sequence of chunk frames instead of one big frame.
DEFAULT_CHUNK_SIZE = 256 * 1024

# Value type tags.
_T_NULL = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_I64 = 0x03
_T_F64 = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_MAP = 0x08
_T_BIGINT = 0x09  # ints beyond i64, as length-prefixed decimal text
_T_JSON = 0x0A  # a blob-free subtree as length-prefixed UTF-8 JSON

_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_U8 = struct.Struct(">B")
_TAG_I64 = struct.Struct(">Bq")
_TAG_F64 = struct.Struct(">Bd")
_TAG_U32 = struct.Struct(">BI")
_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

#: bytes payloads at least this large are carried by reference through the
#: writer instead of being copied into its buffer (one copy total, at frame
#: assembly — or zero when the frame is streamed as chunks).
_INLINE_LIMIT = 4096

#: The document fast path serializes blob-free subtrees with the stdlib's
#: C-accelerated JSON encoder.  One prebuilt encoder, not json.dumps —
#: dumps constructs a fresh encoder per call.
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))
_json_encode = _JSON_ENCODER.encode
_json_loads = json.loads

#: QoS lanes a request can travel in.  ``interactive`` is the default and
#: gets the lion's share of the batch scheduler's weight; ``bulk`` marks
#: backfills/sweeps that tolerate extra queueing.  On the binary wire the
#: lane is one byte (0 = interactive, 1 = bulk); unknown values decode to
#: interactive so old frames and future lanes degrade to the safe default.
LANE_INTERACTIVE = "interactive"
LANE_BULK = "bulk"
_LANE_CODES = {LANE_INTERACTIVE: 0, LANE_BULK: 1}
_LANE_NAMES = {1: LANE_BULK}


@dataclass(frozen=True, slots=True)
class Request:
    """One RPC request: a method name and keyword parameters.

    ``client_id`` + ``request_id`` together identify one *logical* call
    across retries: a client that resends a frame after a lost response
    reuses both, and the server's dedup cache replays the stored response
    instead of executing the mutation twice.  An empty ``client_id`` opts
    out of deduplication (the pre-reliability wire format).

    ``lane`` is the QoS lane the sender asked for (``interactive`` by
    default, ``bulk`` for throughput work); the server's batch scheduler
    uses it to weight queue draining so bulk tenants cannot starve
    interactive reads.
    """

    method: str
    params: Mapping[str, Any] = field(default_factory=dict)
    request_id: int = 0
    client_id: str = ""
    lane: str = LANE_INTERACTIVE

    def __post_init__(self) -> None:
        if not self.method:
            raise WireFormatError("request method must be non-empty")
        if self.lane not in _LANE_CODES:
            raise WireFormatError(f"unknown QoS lane {self.lane!r}")
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True, slots=True)
class Response:
    """One RPC response: a result, or an error type + message."""

    ok: bool
    result: Any = None
    error_type: str = ""
    error_message: str = ""
    request_id: int = 0

    def raise_if_error(self) -> Any:
        """Return the result, or re-raise the error as its original class.

        The wire ``error_type`` string is resolved through
        :func:`repro.errors.error_class_for`, so callers catch the real
        exception classes (:class:`~repro.errors.NotFoundError`,
        :class:`~repro.errors.ValidationError`,
        :class:`~repro.errors.BlobCorruptionError`, ...).  Unknown error
        types fall back to :class:`~repro.errors.ServiceError` but keep the
        original type name in the message, and every raised exception
        exposes the wire-level name as ``exc.error_type`` so legacy callers
        can still discriminate on the string.
        """
        if self.ok:
            return self.result
        exc_class = errors.error_class_for(self.error_type)
        if exc_class is None:
            label = self.error_type or "UnknownError"
            exc: Exception = errors.ServiceError(f"{label}: {self.error_message}")
        else:
            exc = exc_class(self.error_message)
        exc.error_type = self.error_type  # type: ignore[attr-defined]
        raise exc


# ---------------------------------------------------------------------------
# Frame entry points
# ---------------------------------------------------------------------------


def _split_frame(data: bytes) -> memoryview:
    """Validate the length prefix and version byte and return the body."""
    if len(data) < _LENGTH.size:
        raise WireFormatError("frame shorter than length prefix")
    (length,) = _LENGTH.unpack_from(data)
    body = memoryview(data)[_LENGTH.size:]
    if len(body) != length:
        raise WireFormatError(
            f"frame length mismatch: header says {length}, got {len(body)}"
        )
    if length == 0:
        raise WireFormatError("empty frame body")
    if body[0] != BINARY_VERSION:
        raise WireFormatError(
            f"unknown wire format (first body byte 0x{body[0]:02x})"
        )
    return body


def _require_binary(dialect: str) -> None:
    if dialect != DIALECT_BINARY:
        raise WireFormatError(f"unknown wire dialect {dialect!r}")


def error_response(exc: Exception, request_id: int = 0) -> Response:
    """Fold an exception into a wire error response."""
    return Response(
        ok=False,
        error_type=type(exc).__name__,
        error_message=str(exc),
        request_id=request_id,
    )


def recover_request_id(data: bytes) -> int:
    """Best-effort request_id from a frame that failed to decode.

    A malformed request still deserves an error reply the sender can
    correlate: the header is fixed-offset, so the id survives a bad length
    prefix or a garbled payload.  Never raises; falls back to 0.
    """
    body = memoryview(data)[_LENGTH.size:]
    if len(body) >= _BIN_HEADER.size and body[0] == BINARY_VERSION:
        return _BIN_HEADER.unpack_from(body)[2]
    return 0


def _peek_header(data: bytes) -> tuple[int, int]:
    """(msgtype, request_id) from the fixed-offset header, no full decode."""
    body = _split_frame(data)
    if len(body) < _BIN_HEADER.size:
        raise WireFormatError("binary frame shorter than its header")
    _, msgtype, request_id = _BIN_HEADER.unpack_from(body)
    return msgtype, request_id


def peek_request_id(data: bytes) -> int:
    """The request_id of an encoded request frame, without decoding it."""
    msgtype, request_id = _peek_header(data)
    if msgtype != _MSG_REQUEST:
        raise WireFormatError("frame is not a request")
    return request_id


def peek_request_head(data: bytes) -> tuple[str, str] | None:
    """``(method, client_id)`` of an encoded request frame, without decoding.

    Both names sit back to back right after the fixed header (``u16``
    length + bytes each), so this is O(1) and touches no params.  Never
    raises: a frame that is short, malformed or not a request is ``None``.
    """
    try:
        cur = _Cursor(_split_frame(data))
        _, msgtype, _ = cur.unpack(_BIN_HEADER)
        if msgtype != _MSG_REQUEST:
            return None
        return cur.text(_U16), cur.text(_U16)
    except WireFormatError:
        return None


def peek_method(data: bytes) -> str | None:
    """The method half of :func:`peek_request_head` (``None`` likewise)."""
    head = peek_request_head(data)
    return None if head is None else head[0]


def peek_response_request_id(data: bytes) -> int:
    """The request_id an encoded response frame answers, without decoding.

    Accepts anything that carries a response: plain response frames, chunk
    frames, and abort frames — all three put the request id at the same
    fixed header offset.
    """
    msgtype, request_id = _peek_header(data)
    if msgtype not in (_MSG_RESPONSE, _MSG_RESPONSE_CHUNK, _MSG_RESPONSE_ABORT):
        raise WireFormatError("frame is not a response")
    return request_id


def peek_response_error(data: bytes) -> str | None:
    """The error type a response frame carries, ``""`` when it is ok.

    Reads only the fixed head: an ok response is one byte compare, an error
    one short text, and the result is never decoded.  ``None`` for a frame
    whose head does not parse as a response.
    """
    if (
        len(data) > _OK_AT
        and data[_OK_AT] == 1
        and data[_LENGTH.size : _LENGTH.size + 2] == _RESPONSE_HEAD
    ):
        return ""
    try:
        cur = _Cursor(_split_frame(data))
        _, msgtype, _ = cur.unpack(_BIN_HEADER)
        if msgtype != _MSG_RESPONSE:
            return None
        return "" if cur.u8() == 1 else cur.text(_U16)
    except WireFormatError:
        return None


# ---------------------------------------------------------------------------
# Codec internals
# ---------------------------------------------------------------------------


def _is_region(value: Any) -> bool:
    """True for file-backed blob regions (``repro.store.blob.BlobRegion``).

    Duck-typed on the ``is_file_region`` marker so the wire layer stays
    import-free of the store layer.  Regions carry ``__len__``, ``fileno``,
    ``pread(rel_offset, count)`` and ``close``.
    """
    return getattr(value, "is_file_region", False) is True


def _region_bytes(region: Any) -> bytes:
    """Materialize a region (copy fallback paths) and release its fd."""
    try:
        return region.read()
    finally:
        region.close()


class _Writer:
    """Zero-copy-minded frame writer.

    Small values pack straight into one growing ``bytearray`` with
    ``pack_into`` — no per-value ``bytes`` objects, no intermediate
    concatenation (the PR-3 encoder built every tag + length + payload as a
    fresh ``bytes``, an allocation storm on document-heavy responses).
    Payloads of :data:`_INLINE_LIMIT` bytes or more are carried *by
    reference*: the filled prefix of the buffer is sealed into the parts
    list as a ``memoryview`` and the payload object itself follows it, so a
    multi-megabyte blob is copied at most once (into the assembled frame)
    and not at all when the response is streamed as chunks.
    """

    __slots__ = ("_buf", "_pos", "_parts")

    def __init__(self, initial: int = 512) -> None:
        self._buf = bytearray(initial)
        self._pos = 0
        self._parts: list[Any] = []

    def _grow(self, need: int) -> None:
        target = self._pos + need
        size = len(self._buf)
        if target > size:
            self._buf.extend(bytes(max(target - size, size)))

    def pack(self, fmt: struct.Struct, *values: Any) -> None:
        self._grow(fmt.size)
        fmt.pack_into(self._buf, self._pos, *values)
        self._pos += fmt.size

    def u8(self, value: int) -> None:
        self._grow(1)
        self._buf[self._pos] = value
        self._pos += 1

    def raw_small(self, data: bytes) -> None:
        count = len(data)
        self._grow(count)
        self._buf[self._pos:self._pos + count] = data
        self._pos += count

    def raw(self, data: bytes) -> None:
        """Append a payload; large ones ride by reference, uncopied."""
        if len(data) >= _INLINE_LIMIT:
            self._seal()
            self._parts.append(data)
        else:
            self.raw_small(data)

    def raw_region(self, region: Any) -> None:
        """Append a file region by reference; small ones are materialized.

        Sub-``_INLINE_LIMIT`` regions are not worth carrying an open fd
        for — copy them inline and close.  Larger ones ride as parts, so
        chunked streaming can hand them to ``os.sendfile`` uncopied.
        """
        if len(region) < _INLINE_LIMIT:
            self.raw_small(_region_bytes(region))
        else:
            self._seal()
            self._parts.append(region)

    def _seal(self) -> None:
        if self._pos:
            # The sealed prefix is never mutated again: the writer moves to
            # a fresh buffer, so exposing it as a memoryview is safe.
            self._parts.append(memoryview(self._buf)[:self._pos])
            self._buf = bytearray(512)
            self._pos = 0

    def parts(self) -> list[Any]:
        """The frame body as an ordered list of buffers (no join yet)."""
        self._seal()
        return self._parts


def _encode_document(value: Any, writer: _Writer) -> bool:
    """Try the embedded-JSON fast path for a blob-free subtree.

    Documents (modelQuery results, instance/metric dicts) are exactly the
    payloads the stdlib's C JSON encoder serializes fastest; wrapping that
    output in a single :data:`_T_JSON` value beats walking the tree in
    Python by a wide margin.  Subtrees carrying ``bytes`` (or anything else
    JSON cannot express) report False and fall back to the tagged walk —
    note the fast path inherits JSON's key semantics (int keys coerce to
    strings).
    """
    if type(value) is not dict and type(value) is not list:
        return False
    try:
        text = _json_encode(value).encode("utf-8")
    except (TypeError, ValueError):
        return False
    writer.pack(_TAG_U32, _T_JSON, len(text))
    writer.raw(text)
    return True


def _encode_value(value: Any, writer: _Writer) -> None:
    """Write the tagged encoding of *value* into *writer*."""
    tp = type(value)
    if tp is str:
        encoded = value.encode("utf-8")
        writer.pack(_TAG_U32, _T_STR, len(encoded))
        writer.raw(encoded)
    elif tp is bool:
        writer.u8(_T_TRUE if value else _T_FALSE)
    elif tp is int:
        if _I64_MIN <= value <= _I64_MAX:
            writer.pack(_TAG_I64, _T_I64, value)
        else:
            text = str(value).encode("ascii")
            writer.pack(_TAG_U32, _T_BIGINT, len(text))
            writer.raw(text)
    elif value is None:
        writer.u8(_T_NULL)
    elif tp is float:
        writer.pack(_TAG_F64, _T_F64, value)
    elif tp is bytes:
        writer.pack(_TAG_U32, _T_BYTES, len(value))
        writer.raw(value)
    elif tp is dict:
        writer.pack(_TAG_U32, _T_MAP, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireFormatError(
                    f"map keys must be strings, got {type(key).__name__}"
                )
            encoded = key.encode("utf-8")
            writer.pack(_U32, len(encoded))
            writer.raw(encoded)
            _encode_value(item, writer)
    elif tp is list or tp is tuple:
        writer.pack(_TAG_U32, _T_LIST, len(value))
        for item in value:
            _encode_value(item, writer)
    else:
        _encode_value_other(value, writer)


def _encode_value_other(value: Any, writer: _Writer) -> None:
    """Subclasses and buffer types the exact-type fast checks skipped."""
    if isinstance(value, bool):
        writer.u8(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            writer.pack(_TAG_I64, _T_I64, int(value))
        else:
            text = str(int(value)).encode("ascii")
            writer.pack(_TAG_U32, _T_BIGINT, len(text))
            writer.raw(text)
    elif isinstance(value, float):
        writer.pack(_TAG_F64, _T_F64, float(value))
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        writer.pack(_TAG_U32, _T_STR, len(encoded))
        writer.raw(encoded)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        writer.pack(_TAG_U32, _T_BYTES, len(raw))
        writer.raw(raw)
    elif isinstance(value, (list, tuple)):
        writer.pack(_TAG_U32, _T_LIST, len(value))
        for item in value:
            _encode_value(item, writer)
    elif isinstance(value, dict):
        writer.pack(_TAG_U32, _T_MAP, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireFormatError(
                    f"map keys must be strings, got {type(key).__name__}"
                )
            encoded = key.encode("utf-8")
            writer.pack(_U32, len(encoded))
            writer.raw(encoded)
            _encode_value(item, writer)
    elif _is_region(value):
        # File-backed blob region: encoded as _T_BYTES on the wire, but the
        # payload travels by reference so the server can sendfile it.
        writer.pack(_TAG_U32, _T_BYTES, len(value))
        writer.raw_region(value)
    else:
        raise WireFormatError(
            f"value of type {type(value).__name__} is not wire-encodable"
        )


class _Cursor:
    """Bounds-checked reader over a frame body.

    Every length field is validated against the remaining buffer before a
    slice is taken, so the decoder is total: any byte string either decodes
    or raises :class:`WireFormatError` — never an IndexError or a bogus
    multi-gigabyte allocation.
    """

    __slots__ = ("_buf", "_pos", "_end")

    def __init__(self, buf: memoryview, pos: int = 0) -> None:
        self._buf = buf
        self._pos = pos
        self._end = len(buf)

    def take(self, count: int) -> memoryview:
        if count < 0 or self._end - self._pos < count:
            raise WireFormatError("binary frame truncated")
        start = self._pos
        self._pos = start + count
        return self._buf[start:self._pos]

    def u8(self) -> int:
        if self._pos >= self._end:
            raise WireFormatError("binary frame truncated")
        value = self._buf[self._pos]
        self._pos += 1
        return value

    def unpack(self, fmt: struct.Struct) -> tuple:
        if self._end - self._pos < fmt.size:
            raise WireFormatError("binary frame truncated")
        values = fmt.unpack_from(self._buf, self._pos)
        self._pos += fmt.size
        return values

    def text(self, length_struct: struct.Struct = _U32) -> str:
        (length,) = self.unpack(length_struct)
        try:
            return bytes(self.take(length)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"invalid UTF-8 in binary frame: {exc}") from exc

    def done(self) -> bool:
        return self._pos == self._end


def _decode_value(cur: _Cursor) -> Any:
    tag = cur.u8()
    if tag == _T_NULL:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_I64:
        return cur.unpack(_I64)[0]
    if tag == _T_F64:
        return cur.unpack(_F64)[0]
    if tag == _T_STR:
        return cur.text()
    if tag == _T_BYTES:
        (length,) = cur.unpack(_U32)
        return bytes(cur.take(length))
    if tag == _T_LIST:
        (count,) = cur.unpack(_U32)
        return [_decode_value(cur) for _ in range(count)]
    if tag == _T_MAP:
        (count,) = cur.unpack(_U32)
        result = {}
        for _ in range(count):
            key = cur.text()
            result[key] = _decode_value(cur)
        return result
    if tag == _T_BIGINT:
        (length,) = cur.unpack(_U32)
        text = bytes(cur.take(length))
        try:
            return int(text.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise WireFormatError(f"invalid bigint payload: {exc}") from exc
    if tag == _T_JSON:
        (length,) = cur.unpack(_U32)
        raw = cur.take(length)
        try:
            # Decoding to str first skips json.loads' bytes sniffing
            # (detect_encoding + surrogatepass) — measurably faster.
            return _json_loads(bytes(raw).decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise WireFormatError(f"invalid embedded JSON: {exc}") from exc
    raise WireFormatError(f"unknown value tag 0x{tag:02x}")


def _assemble(chunks: list[Any]) -> bytes:
    payload_len = sum(map(len, chunks))
    if any(map(_is_region, chunks)):
        chunks = [_region_bytes(c) if _is_region(c) else c for c in chunks]
    return b"".join([_LENGTH.pack(payload_len), *chunks])


def encode_request(request: Request, dialect: str = DIALECT_BINARY) -> bytes:
    _require_binary(dialect)
    method = request.method.encode("utf-8")
    client_id = request.client_id.encode("utf-8")
    if request.request_id < 0 or request.request_id > 2**64 - 1:
        raise WireFormatError("request_id out of range (must fit a u64)")
    writer = _Writer()
    writer.pack(_BIN_HEADER, BINARY_VERSION, _MSG_REQUEST, request.request_id)
    writer.pack(_U16, len(method))
    writer.raw_small(method)
    writer.pack(_U16, len(client_id))
    writer.raw_small(client_id)
    writer.pack(_U8, _LANE_CODES[request.lane])
    if not _encode_document(request.params, writer):
        _encode_value(request.params, writer)
    return _assemble(writer.parts())


def decode_request(data: bytes) -> Request:
    cur = _Cursor(_split_frame(data))
    _, msgtype, request_id = cur.unpack(_BIN_HEADER)
    if msgtype != _MSG_REQUEST:
        raise WireFormatError("expected a request frame")
    method = cur.text(_U16)
    client_id = cur.text(_U16)
    (lane_code,) = cur.unpack(_U8)
    params = _decode_value(cur)
    if not isinstance(params, dict):
        raise WireFormatError("request params must decode to a map")
    if not cur.done():
        raise WireFormatError("trailing bytes after binary request")
    return Request(
        method=method,
        params=params,
        request_id=request_id,
        client_id=client_id,
        lane=_LANE_NAMES.get(lane_code, LANE_INTERACTIVE),
    )


def _encode_response_parts(response: Response) -> list[Any]:
    """The encoded response body as an ordered list of buffers.

    Splitting body assembly from frame assembly is what chunked streaming
    rides on: a blob response's parts are a small packed head plus the blob
    object *by reference*, so the server can slice chunk frames out of the
    logical body without ever materializing it.
    """
    error_type = response.error_type.encode("utf-8")
    error_message = response.error_message.encode("utf-8")
    request_id = response.request_id
    if request_id < 0 or request_id > 2**64 - 1:
        raise WireFormatError("request_id out of range (must fit a u64)")
    result = response.result
    if type(result) is dict or type(result) is list:
        # Document fast path: one C-accelerated JSON encode of the result,
        # head assembled in a single join (measured faster than incremental
        # writes for this fixed small layout).
        try:
            text = _json_encode(result).encode("utf-8")
        except (TypeError, ValueError):
            text = None  # bytes (or other non-JSON) inside: tagged walk
        if text is not None:
            if response.ok and not error_type and not error_message:
                head = (
                    _BIN_HEADER.pack(BINARY_VERSION, _MSG_RESPONSE, request_id)
                    + _OK_NO_ERROR
                    + _TAG_U32.pack(_T_JSON, len(text))
                )
            else:
                head = b"".join(
                    (
                        _BIN_HEADER.pack(BINARY_VERSION, _MSG_RESPONSE, request_id),
                        b"\x01" if response.ok else b"\x00",
                        _U16.pack(len(error_type)),
                        error_type,
                        _U32.pack(len(error_message)),
                        error_message,
                        _TAG_U32.pack(_T_JSON, len(text)),
                    )
                )
            return [head, text]
    writer = _Writer()
    writer.pack(_BIN_HEADER, BINARY_VERSION, _MSG_RESPONSE, request_id)
    writer.u8(1 if response.ok else 0)
    writer.pack(_U16, len(error_type))
    writer.raw_small(error_type)
    writer.pack(_U32, len(error_message))
    writer.raw_small(error_message)
    _encode_value(result, writer)
    return writer.parts()


def encode_response(response: Response, dialect: str = DIALECT_BINARY) -> bytes:
    _require_binary(dialect)
    return _assemble(_encode_response_parts(response))


#: ok=1 plus empty error_type (u16) and error_message (u32) — the fixed
#: middle section of every successful binary response.
_OK_NO_ERROR = b"\x01\x00\x00\x00\x00\x00\x00"
_FAST_RESULT_AT = _BIN_HEADER.size + len(_OK_NO_ERROR)  # tag byte offset


def decode_response(data: bytes) -> Response:
    body = _split_frame(data)
    # Fast path for the dominant shape — a successful response whose result
    # is one embedded-JSON document: fixed-offset compares, one u32, one
    # slice into the C JSON parser.  Anything else (errors, tagged values,
    # malformed bytes) falls through to the total bounds-checked decoder.
    if (
        len(body) >= _FAST_RESULT_AT + 5
        and body[1] == _MSG_RESPONSE
        and body[_FAST_RESULT_AT] == _T_JSON
        and body[_BIN_HEADER.size:_FAST_RESULT_AT] == _OK_NO_ERROR
    ):
        (length,) = _U32.unpack_from(body, _FAST_RESULT_AT + 1)
        start = _FAST_RESULT_AT + 5
        if start + length == len(body):
            try:
                result = _json_loads(bytes(body[start:]).decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise WireFormatError(f"invalid embedded JSON: {exc}") from exc
            return Response(
                ok=True,
                result=result,
                request_id=_BIN_HEADER.unpack_from(body)[2],
            )
    cur = _Cursor(body)
    _, msgtype, request_id = cur.unpack(_BIN_HEADER)
    if msgtype != _MSG_RESPONSE:
        raise WireFormatError("expected a response frame")
    ok_byte = cur.u8()
    if ok_byte not in (0, 1):
        raise WireFormatError(f"invalid ok flag 0x{ok_byte:02x}")
    error_type = cur.text(_U16)
    error_message = cur.text(_U32)
    result = _decode_value(cur)
    if not cur.done():
        raise WireFormatError("trailing bytes after binary response")
    return Response(
        ok=bool(ok_byte),
        result=result,
        error_type=error_type,
        error_message=error_message,
        request_id=request_id,
    )


# ---------------------------------------------------------------------------
# Chunked response streaming
# ---------------------------------------------------------------------------

#: Ceiling for one reassembled chunked response — same bound the TCP layer
#: enforces per frame, applied here to the *logical* body so a bogus
#: total_len cannot trigger a multi-gigabyte preallocation.
MAX_REASSEMBLED_BYTES = 256 * 1024 * 1024


def _chunk_frame(
    request_id: int, total: int, offset: int, payload: list[Any], count: int
) -> bytes:
    head = _LENGTH.pack(_CHUNK_HEADER.size + count) + _CHUNK_HEADER.pack(
        BINARY_VERSION, _MSG_RESPONSE_CHUNK, request_id, total, offset
    )
    return b"".join([head, *payload])


class RegionChunk:
    """One chunk frame whose payload tail is a file-region slice.

    ``head`` is fully materialized: the frame length prefix, the chunk
    header, and any literal body bytes that share this chunk.  The rest of
    the payload is ``region[offset : offset + length]`` (region-relative)
    and is meant to leave the process via ``os.sendfile``; :meth:`to_bytes`
    materializes the whole frame for copy fallbacks.  The region is shared
    across the chunks sliced from it — closing it is the stream's job, not
    the chunk's.
    """

    __slots__ = ("head", "region", "offset", "length")

    def __init__(self, head: bytes, region: Any, offset: int, length: int) -> None:
        self.head = head
        self.region = region
        self.offset = offset
        self.length = length

    def to_bytes(self) -> bytes:
        return self.head + self.region.pread(self.offset, self.length)


def _iter_wire_chunks(
    parts: list[Any], total: int, request_id: int, chunk_size: int
):
    """Yield ``bytes`` chunk frames and :class:`RegionChunk` items.

    Literal parts chunk exactly as before — one chunk's worth of body
    materialized at a time, the rest as memoryview slices.  A file region
    part is sliced into :class:`RegionChunk` items instead; literal bytes
    pending when a region starts are folded into the first region chunk's
    head so chunk boundaries match the all-literal layout.
    """
    offset = 0
    pending: list[Any] = []
    pending_len = 0
    for part in parts:
        if _is_region(part):
            pos = 0
            remaining = len(part)
            while remaining > 0:
                take = min(chunk_size - pending_len, remaining)
                count = pending_len + take
                head = b"".join(
                    [
                        _LENGTH.pack(_CHUNK_HEADER.size + count),
                        _CHUNK_HEADER.pack(
                            BINARY_VERSION,
                            _MSG_RESPONSE_CHUNK,
                            request_id,
                            total,
                            offset,
                        ),
                        *pending,
                    ]
                )
                pending = []
                pending_len = 0
                yield RegionChunk(head, part, pos, take)
                offset += count
                pos += take
                remaining -= take
            continue
        view = memoryview(part)
        while len(view) > 0:
            take = min(chunk_size - pending_len, len(view))
            pending.append(view[:take])
            pending_len += take
            view = view[take:]
            if pending_len == chunk_size:
                yield _chunk_frame(request_id, total, offset, pending, pending_len)
                offset += pending_len
                pending = []
                pending_len = 0
    if pending_len:
        yield _chunk_frame(request_id, total, offset, pending, pending_len)


def _iter_chunk_frames(
    parts: list[Any], total: int, request_id: int, chunk_size: int
):
    """Yield fully-materialized chunk frames (copy path / tests)."""
    for item in _iter_wire_chunks(parts, total, request_id, chunk_size):
        yield item if isinstance(item, bytes) else item.to_bytes()


class ResponseStream:
    """One encoded response: a single frame, or a bounded chunk sequence.

    ``single`` holds the complete frame when the response fits in (or must
    ship as) one frame; otherwise it is ``None`` and iterating the stream
    yields chunk frames one at a time — the producer never holds more than
    one ``chunk_size`` slice of encoded body at once, which is the
    server-side memory bound chunked streaming exists for.
    """

    __slots__ = ("single", "request_id", "total", "_parts", "_chunk_size")

    def __init__(
        self,
        *,
        single: bytes | None = None,
        request_id: int = 0,
        parts: list[Any] | None = None,
        total: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        self.single = single
        self.request_id = request_id
        self.total = total
        self._parts = parts
        self._chunk_size = chunk_size

    def __iter__(self):
        if self.single is not None:
            return iter((self.single,))
        assert self._parts is not None
        return self._iter_materialized()

    def _iter_materialized(self):
        try:
            yield from _iter_chunk_frames(
                self._parts, self.total, self.request_id, self._chunk_size
            )
        finally:
            self.close()

    def wire_chunks(self):
        """Frames for sendfile-capable writers: ``bytes`` | ``RegionChunk``.

        The consumer owns calling :meth:`close` once done (normally or
        not) so region file descriptors are released deterministically.
        Subclasses that override ``__iter__`` (fault injection, custom
        frame production) keep their semantics: their materialized frames
        are served as-is and the zero-copy path stays out of the way.
        """
        if type(self).__iter__ is not ResponseStream.__iter__:
            return iter(self)
        if self.single is not None:
            return iter((self.single,))
        assert self._parts is not None
        return _iter_wire_chunks(
            self._parts, self.total, self.request_id, self._chunk_size
        )

    def close(self) -> None:
        """Release any file regions held by an unconsumed/partial stream."""
        if self._parts:
            for part in self._parts:
                if _is_region(part):
                    part.close()


def encode_response_stream(
    response: Response, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> ResponseStream:
    """Encode a response for streaming delivery.

    Responses whose encoded body exceeds *chunk_size* come back as a chunk
    sequence; small responses and ``chunk_size <= 0`` are a single frame.
    """
    parts = _encode_response_parts(response)
    total = sum(map(len, parts))
    if chunk_size <= 0 or total <= chunk_size:
        return ResponseStream(
            single=_assemble(parts), request_id=response.request_id, total=total
        )
    return ResponseStream(
        request_id=response.request_id,
        parts=parts,
        total=total,
        chunk_size=chunk_size,
    )


def encode_response_abort(exc: Exception, request_id: int) -> bytes:
    """An abort frame: a mid-stream failure, typed like a wire error.

    Sent after one or more chunk frames when the remainder of a chunked
    response cannot be produced; the receiver discards its partial
    reassembly and surfaces the carried error instead of hanging.
    """
    error_type = type(exc).__name__.encode("utf-8")
    error_message = str(exc).encode("utf-8")
    writer = _Writer()
    writer.pack(_BIN_HEADER, BINARY_VERSION, _MSG_RESPONSE_ABORT, request_id)
    writer.pack(_U16, len(error_type))
    writer.raw_small(error_type)
    writer.pack(_U32, len(error_message))
    writer.raw_small(error_message)
    return _assemble(writer.parts())


class ChunkReassembler:
    """Client-side reassembly of chunked responses, per request id.

    ``feed`` takes one frame off the wire and returns a complete response
    frame when one is available, else ``None``:

    * plain response frames pass straight through;
    * chunk frames accumulate into a buffer preallocated from the first
      chunk's total_len — offsets must arrive in order, the payload lands
      via one slice assignment per chunk;
    * an abort frame discards the partial body and comes back as a
      synthesized error response, so callers surface a typed wire
      error through the normal decode path instead of hanging.

    Anything malformed — mid-stream start, out-of-order offset, total
    mismatch, overrun, oversized or empty chunks — raises
    :class:`WireFormatError`: the stream is desynchronized and the
    connection is beyond saving, exactly like a bad length prefix.
    """

    __slots__ = ("_partial",)

    def __init__(self) -> None:
        # request_id -> [buffer (length prefix preplaced), received bytes]
        self._partial: dict[int, list[Any]] = {}

    def __len__(self) -> int:
        return len(self._partial)

    def feed(self, frame: bytes) -> bytes | None:
        body = _split_frame(frame)
        if len(body) < _BIN_HEADER.size:
            raise WireFormatError("binary frame shorter than its header")
        _, msgtype, request_id = _BIN_HEADER.unpack_from(body)
        if msgtype == _MSG_RESPONSE_CHUNK:
            return self._feed_chunk(request_id, body)
        if msgtype == _MSG_RESPONSE_ABORT:
            return self._feed_abort(request_id, body)
        return frame  # complete request/response frame: pass through

    def _feed_abort(self, request_id: int, body: memoryview) -> bytes:
        cur = _Cursor(body, _BIN_HEADER.size)
        error_type = cur.text(_U16)
        error_message = cur.text(_U32)
        if not cur.done():
            raise WireFormatError("trailing bytes after abort frame")
        self._partial.pop(request_id, None)
        return encode_response(
            Response(
                ok=False,
                error_type=error_type,
                error_message=error_message,
                request_id=request_id,
            )
        )

    def _feed_chunk(self, request_id: int, body: memoryview) -> bytes | None:
        if len(body) < _CHUNK_HEADER.size:
            raise WireFormatError("chunk frame shorter than its header")
        _, _, _, total, offset = _CHUNK_HEADER.unpack_from(body)
        payload = body[_CHUNK_HEADER.size:]
        dest = self.begin_chunk(request_id, total, offset, len(payload))
        dest[:] = payload
        return self.commit_chunk(request_id, len(payload))

    def begin_chunk(
        self, request_id: int, total: int, offset: int, size: int
    ) -> memoryview:
        """Validate a chunk header and expose its destination window.

        This is the zero-copy half of :meth:`feed`: transports that read
        the chunk header themselves call this, ``recv_into`` the payload
        straight into the returned memoryview, then :meth:`commit_chunk`.
        All the ordering/bounds checks of the copy path apply.
        """
        if size == 0:
            raise WireFormatError("empty chunk payload")
        entry = self._partial.get(request_id)
        if entry is None:
            if offset != 0:
                raise WireFormatError(
                    f"chunked response for request {request_id} began at "
                    f"offset {offset}, not 0"
                )
            if total == 0 or total > MAX_REASSEMBLED_BYTES:
                raise WireFormatError(
                    f"chunked response total of {total} bytes is out of range"
                )
            # Preplace the length prefix so completion is a single copy.
            buffer = bytearray(_LENGTH.size + total)
            buffer[:_LENGTH.size] = _LENGTH.pack(total)
            entry = [buffer, 0]
            self._partial[request_id] = entry
        buffer, received = entry
        total_expected = len(buffer) - _LENGTH.size
        if total != total_expected:
            raise WireFormatError(
                f"chunk total changed mid-stream ({total_expected} -> {total})"
            )
        if offset != received:
            raise WireFormatError(
                f"out-of-order chunk for request {request_id}: expected "
                f"offset {received}, got {offset}"
            )
        if offset + size > total_expected:
            raise WireFormatError("chunk payload overruns the declared total")
        start = _LENGTH.size + offset
        return memoryview(buffer)[start:start + size]

    def commit_chunk(self, request_id: int, size: int) -> bytes | None:
        """Account *size* received payload bytes; returns the complete frame."""
        entry = self._partial[request_id]
        entry[1] += size
        if entry[1] == len(entry[0]) - _LENGTH.size:
            buffer, _ = self._partial.pop(request_id)
            return bytes(buffer)
        return None


# ---------------------------------------------------------------------------
# Blob helpers
# ---------------------------------------------------------------------------


def decode_blob(payload: bytes | bytearray | memoryview) -> bytes:
    """A wire blob as ``bytes``; anything but a bytes-like payload is rejected."""
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return bytes(payload)
    raise WireFormatError(
        f"blob payload must be bytes, got {type(payload).__name__}"
    )
