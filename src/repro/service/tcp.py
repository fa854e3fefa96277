"""TCP transport and server for the Gallery service (Section 4.1/4).

Gallery at Uber is "a stateless microservice ... horizontally scalable":
clients talk to it over the network through Thrift.  This module carries
the reproduction's wire frames over real sockets:

* :class:`GalleryTcpServer` — a ``selectors``-based **event-loop server**:
  one non-blocking accept/read/write loop hands read-class frames to the
  service's micro-batcher itself and everything else to a bounded pool of
  daemon worker threads, so a thousand idle connections cost zero threads
  and a read never waits for a worker.  Responses may complete out of order;
  each one carries its request_id, which is what pipelined clients
  correlate on.
* :class:`PipelinedTcpTransport` — keeps many requests in flight on one
  connection, correlating responses by request_id; ``submit``/
  ``submit_many`` expose the asynchronous path and ``__call__`` keeps the
  plain ``bytes -> bytes`` transport contract.

Framing is the same 8-byte big-endian length prefix as
:mod:`repro.service.wire`; server and transport tolerate arbitrary packet
fragmentation.
"""

from __future__ import annotations

import logging
import os
import queue
import selectors
import socket
import struct
import threading
from collections import deque
from typing import Callable

from repro.errors import ServiceError, WireFormatError
from repro.service import wire
from repro.service.batching import BATCHABLE_METHODS
from repro.service.server import GalleryService

logger = logging.getLogger(__name__)

_LENGTH = struct.Struct(">Q")
#: Upper bound on a single frame; protects the server from bogus prefixes.
MAX_FRAME_BYTES = 256 * 1024 * 1024
_RECV_CHUNK = 1 << 16

#: ``os.sendfile`` where the platform provides it (Linux, macOS, most BSDs).
#: Held as a module global so tests can monkeypatch it to ``None`` and force
#: the copy fallback; everything that serves regions checks this at use time.
_sendfile = getattr(os, "sendfile", None)


def sendfile_available() -> bool:
    """True when the zero-copy server fast path is active."""
    return _sendfile is not None


# ---------------------------------------------------------------------------
# Event-loop server
# ---------------------------------------------------------------------------


class _WorkerPool:
    """Bounded pool of daemon threads draining a shared task queue.

    Daemon threads on purpose: a handler wedged inside the service must be
    reportable and abandonable, never able to pin the process open.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("worker pool needs at least one thread")
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = [
            threading.Thread(
                target=self._run, name=f"gallery-worker-{i}", daemon=True
            )
            for i in range(size)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, fn: Callable[[], None]) -> None:
        self._tasks.put(fn)

    def _run(self) -> None:
        while True:
            fn = self._tasks.get()
            if fn is None:
                return
            try:
                fn()
            except Exception:  # noqa: BLE001 - workers must never die
                logger.exception("gallery worker task failed")

    def stop(self, timeout: float) -> bool:
        """Stop workers; False when one outlived the timeout (wedged)."""
        for _ in self._threads:
            self._tasks.put(None)
        per_thread = timeout / max(1, len(self._threads))
        clean = True
        for thread in self._threads:
            thread.join(timeout=per_thread)
            if thread.is_alive():
                clean = False
        return clean


class _Connection:
    """Per-connection state owned by the event loop thread."""

    __slots__ = ("sock", "inbuf", "out", "events", "read_closed", "in_flight")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.out: "deque[memoryview | _StreamOut]" = deque()
        self.events = 0  # currently registered selector interest (0 = none)
        self.read_closed = False
        self.in_flight = 0  # frames dispatched to workers, response pending


class _SendfileTask:
    """In-progress kernel copy: the chunk body leaving via ``os.sendfile``."""

    __slots__ = ("fd", "offset", "remaining")

    def __init__(self, fd: int, offset: int, remaining: int) -> None:
        self.fd = fd
        self.offset = offset  # absolute file offset of the next byte
        self.remaining = remaining


class _StreamOut:
    """A ``conn.out`` entry that yields one encoded chunk frame at a time.

    The server-side memory bound lives here: the next chunk frame is only
    materialized after the previous one has been fully written to the
    socket, so a multi-MB response never occupies more than ~chunk_size of
    encoded body.  File-region chunks do even better: only the chunk
    *header* is materialized (exposed via ``buf``); the body follows as a
    :class:`_SendfileTask` the flush loop hands to ``os.sendfile``, so blob
    bytes never enter userspace at all.  When ``os.sendfile`` is missing
    (or monkeypatched away) region chunks materialize through ``pread`` and
    take the ordinary copy path.  An exception raised by the underlying
    iterator turns into an abort frame so the client's reassembler surfaces
    a typed error instead of hanging on a forever-incomplete response.
    """

    __slots__ = ("_items", "_request_id", "_stream", "buf", "sendfile", "_done")

    def __init__(self, stream: wire.ResponseStream) -> None:
        self._stream = stream
        self._items = stream.wire_chunks()
        self._request_id = stream.request_id
        self.buf: memoryview | None = None
        self.sendfile: _SendfileTask | None = None
        self._done = False

    def current(self) -> "memoryview | _SendfileTask | None":
        """The in-progress chunk frame, pulling the next one if needed."""
        if self.buf is not None:
            return self.buf
        if self.sendfile is not None:
            return self.sendfile
        if self._done:
            return None
        try:
            item = next(self._items)
            if isinstance(item, wire.RegionChunk):
                if _sendfile is not None:
                    self.sendfile = _SendfileTask(
                        item.region.fileno(),
                        item.region.offset + item.offset,
                        item.length,
                    )
                    self.buf = memoryview(item.head)
                else:
                    self.buf = memoryview(item.to_bytes())
            else:
                self.buf = memoryview(item)
        except StopIteration:
            self._done = True
            self._stream.close()
            return None
        except Exception as exc:  # noqa: BLE001 - producer failed mid-stream
            self._done = True
            self._stream.close()
            self.sendfile = None
            self.buf = memoryview(
                wire.encode_response_abort(exc, self._request_id)
            )
        return self.buf

    def close(self) -> None:
        """Drop buffered state and release region file descriptors."""
        self._done = True
        self.buf = None
        self.sendfile = None
        self._stream.close()


class _EventLoopCore:
    """The selectors loop: accepts, frames, dispatches, writes.

    Single-threaded over the sockets; the only cross-thread traffic is the
    completion deque (worker -> loop) plus a wake socketpair.
    """

    def __init__(
        self,
        address: tuple[str, int],
        service: GalleryService,
        workers: int,
        chunk_size: int = wire.DEFAULT_CHUNK_SIZE,
    ) -> None:
        self._service = service
        self._chunk_size = chunk_size
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind(address)
            listener.listen(128)
            listener.setblocking(False)
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._completed: deque[
            tuple[_Connection, "bytes | wire.ResponseStream"]
        ] = deque()
        self._conns: dict[socket.socket, _Connection] = {}
        self._stopping = False
        self.pool = _WorkerPool(workers)

    # -- cross-thread entry points ------------------------------------------

    def wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (OSError, ValueError):
            pass  # already stopping, or a wake is already pending

    def request_stop(self) -> None:
        self._stopping = True
        self.wake()

    def _complete(
        self, conn: _Connection, response: "bytes | wire.ResponseStream"
    ) -> None:
        """Worker thread: hand a finished response back to the loop."""
        self._completed.append((conn, response))
        self.wake()

    # -- the loop -----------------------------------------------------------

    def run(self) -> None:
        try:
            self._selector.register(self._listener, selectors.EVENT_READ, "accept")
            self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
            while not self._stopping:
                for key, mask in self._selector.select():
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wake":
                        self._drain_wake()
                    else:
                        conn: _Connection = key.data
                        # A connection may have been closed by an earlier
                        # event in this same batch; its key is then stale.
                        if mask & selectors.EVENT_READ and conn.sock in self._conns:
                            self._readable(conn)
                        if mask & selectors.EVENT_WRITE and conn.sock in self._conns:
                            self._flush(conn)
                self._drain_completed()
        except Exception:  # noqa: BLE001 - the loop must report, not vanish
            if not self._stopping:
                logger.exception("gallery event loop crashed")
        finally:
            self._cleanup()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            sock.setblocking(False)
            conn = _Connection(sock)
            self._conns[sock] = conn
            self._update_interest(conn)

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass

    def _drain_completed(self) -> None:
        per_conn: dict[_Connection, list["bytes | wire.ResponseStream"]] = {}
        while True:
            try:
                conn, response = self._completed.popleft()
            except IndexError:
                break
            per_conn.setdefault(conn, []).append(response)
        for conn, responses in per_conn.items():
            conn.in_flight -= len(responses)
            if conn.sock not in self._conns:
                # Connection died while the worker was busy; release any
                # file regions the orphaned streams were holding.
                for item in responses:
                    if isinstance(item, wire.ResponseStream):
                        item.close()
                continue
            # Coalesce single frames: one buffer, one send for a burst of
            # pipelined responses instead of a syscall per frame.  Chunked
            # streams stay lazy — they enter the queue as _StreamOut and
            # materialize one chunk at a time as the socket drains.
            batch: list[bytes] = []
            for item in responses:
                single: bytes | None
                if isinstance(item, wire.ResponseStream):
                    single = item.single
                else:
                    single = item
                if single is not None:
                    batch.append(single)
                    continue
                if batch:
                    conn.out.append(memoryview(b"".join(batch)))
                    batch = []
                conn.out.append(_StreamOut(item))  # type: ignore[arg-type]
            if batch:
                conn.out.append(memoryview(b"".join(batch)))
            self._flush(conn)

    def _readable(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            conn.read_closed = True
            if conn.inbuf:
                # Half a frame then EOF: answer with a structured error
                # before closing, so the client learns why.
                exc = WireFormatError("connection closed mid-frame")
                self._send_stream_error(conn, exc)
                conn.inbuf.clear()
            self._update_interest(conn)
            self._maybe_close(conn)
            return
        conn.inbuf += data
        self._parse_frames(conn)

    def _parse_frames(self, conn: _Connection) -> None:
        buf = conn.inbuf
        while len(buf) >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(buf)
            if length > MAX_FRAME_BYTES:
                # The stream is now desynchronized; answer, flush, close.
                exc = WireFormatError(
                    f"frame of {length} bytes exceeds the limit"
                )
                self._send_stream_error(conn, exc)
                conn.read_closed = True
                buf.clear()
                self._update_interest(conn)
                self._maybe_close(conn)
                return
            total = _LENGTH.size + length
            if len(buf) < total:
                return
            frame = bytes(buf[:total])
            del buf[:total]
            conn.in_flight += 1
            if not self._offer(conn, frame):
                self.pool.submit(lambda f=frame, c=conn: self._process(c, f))

    def _offer(self, conn: _Connection, frame: bytes) -> bool:
        """Loop thread: hand a read-class frame straight to the micro-batcher.

        ``True`` means the batcher took ownership and its collector thread
        answers via ``_complete`` (safe from any thread) — no worker is
        woken, so reads never queue behind workers stuck in a publish
        fsync.  Everything else — mutations, blobs, admin, frames larger
        than one recv chunk (decoding them here would stall the loop),
        anything the batcher declines (disabled, draining, stopped,
        undecodable) — is ``False`` and goes to the worker pool.
        """
        if (
            len(frame) > _RECV_CHUNK
            or wire.peek_method(frame) not in BATCHABLE_METHODS
        ):
            return False
        try:
            return self._service.read_batcher.offer(
                frame, lambda encoded, c=conn: self._complete(c, encoded)
            )
        except Exception:  # noqa: BLE001 - the loop must outlive a bad offer
            logger.exception("read batcher raised; dispatching the frame")
            return False

    def _process(self, conn: _Connection, frame: bytes) -> None:
        """Worker thread: run one frame; a response ALWAYS comes back so
        the connection's in-flight accounting can never leak.  (Reads the
        batcher took never get here; a traced server sees them as
        ``service.batching.offer`` spans instead.)"""
        response: bytes | wire.ResponseStream
        try:
            response = self._service.handle_frame_stream(
                frame, self._chunk_size
            )
        except Exception as exc:  # noqa: BLE001 - dispatcher isolation
            logger.exception("handle_frame raised; answering with an error")
            # Echo the id from the fixed-offset header: only the request
            # that crashed sees the error, not every exchange in flight.
            response = wire.encode_response(
                wire.error_response(exc, wire.recover_request_id(frame))
            )
        self._complete(conn, response)

    def _send_stream_error(self, conn: _Connection, exc: Exception) -> None:
        # request_id 0 on purpose: there is no request to name, so the
        # client fails every exchange in flight on this connection.
        response = wire.encode_response(wire.error_response(exc))
        conn.out.append(memoryview(response))
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        while conn.out:
            head = conn.out[0]
            if isinstance(head, _StreamOut):
                buf = head.current()
                if buf is None:  # stream exhausted
                    conn.out.popleft()
                    continue
                if isinstance(buf, _SendfileTask):
                    try:
                        sent = _sendfile(
                            conn.sock.fileno(), buf.fd, buf.offset, buf.remaining
                        )
                    except (BlockingIOError, InterruptedError):
                        break
                    except (OSError, ValueError):
                        self._close_conn(conn)
                        return
                    if sent == 0:
                        # The *file* ran dry mid-chunk (truncated under us).
                        # The chunk header already promised these bytes, so
                        # the stream is unrecoverable — drop the connection
                        # and let the client's reassembler surface the EOF.
                        self._close_conn(conn)
                        return
                    buf.offset += sent
                    buf.remaining -= sent
                    if buf.remaining == 0:
                        head.sendfile = None  # body done; pull the next chunk
                    continue
            else:
                buf = head
            try:
                sent = conn.sock.send(buf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            if sent < len(buf):
                remaining = buf[sent:]
                if isinstance(head, _StreamOut):
                    head.buf = remaining
                else:
                    conn.out[0] = remaining
                break
            if isinstance(head, _StreamOut):
                head.buf = None  # chunk fully written; pull the next lazily
            else:
                conn.out.popleft()
        self._update_interest(conn)
        self._maybe_close(conn)

    def _update_interest(self, conn: _Connection) -> None:
        if conn.sock not in self._conns:
            return
        events = 0
        if not conn.read_closed:
            events |= selectors.EVENT_READ
        if conn.out:
            events |= selectors.EVENT_WRITE
        if events == conn.events:
            return
        try:
            if conn.events == 0:
                self._selector.register(conn.sock, events, conn)
            elif events == 0:
                self._selector.unregister(conn.sock)
            else:
                self._selector.modify(conn.sock, events, conn)
            conn.events = events
        except (KeyError, ValueError, OSError):
            self._close_conn(conn)

    def _maybe_close(self, conn: _Connection) -> None:
        if conn.read_closed and not conn.out and conn.in_flight == 0:
            self._close_conn(conn)

    def _close_conn(self, conn: _Connection) -> None:
        if self._conns.pop(conn.sock, None) is None:
            return
        for item in conn.out:
            if isinstance(item, _StreamOut):
                item.close()
        conn.out.clear()
        if conn.events:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
            conn.events = 0
        try:
            conn.sock.close()
        except OSError:
            pass

    def _cleanup(self) -> None:
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        for sock in (self._listener, self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass
        try:
            self._selector.close()
        except OSError:
            pass


class GalleryTcpServer:
    """Serves a :class:`GalleryService` on a TCP port via an event loop.

    One daemon thread runs the non-blocking accept/read/write loop and
    offers read-class frames to ``service.read_batcher``; a bounded pool of
    daemon workers executes ``service.handle_frame_stream`` for the rest.
    Idle connections cost a selector entry, not a thread, and responses
    are written back (coalesced) as workers finish — possibly out of
    request order, which pipelined clients resolve by request_id.  Large
    responses are streamed as *chunk_size* chunk frames so a multi-MB blob
    never sits fully encoded in server memory.  Stateless by construction:
    all state lives behind the dispatched service.
    """

    def __init__(
        self,
        service: GalleryService,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 16,
        chunk_size: int = wire.DEFAULT_CHUNK_SIZE,
    ) -> None:
        self._core = _EventLoopCore(
            (host, port), service, workers, chunk_size=chunk_size
        )
        self._service = service
        self._thread: threading.Thread | None = None
        #: outcome of the last stop(): False when the loop or a worker had
        #: to be abandoned past its join timeout.
        self.stopped_cleanly = True

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._core.address
        return str(host), int(port)

    @property
    def draining(self) -> bool:
        return self._service.draining

    def drain(self, wait_timeout: float | None = None) -> bool:
        """Flip the replica into draining and wait for in-flight work.

        New data-plane requests are refused with a typed retryable
        :class:`~repro.errors.ReplicaDrainingError`; admin methods keep
        answering.  Returns ``True`` once every in-flight request finished
        (``False`` if *wait_timeout* elapsed first).  The listener stays
        up — call :meth:`stop` afterwards for a zero-loss shutdown, or
        :meth:`undrain` to return to service.
        """
        self._service.drain()
        return self._service.wait_drained(wait_timeout)

    def undrain(self) -> None:
        self._service.undrain()

    def start(self) -> "GalleryTcpServer":
        if self._thread is not None:
            raise ServiceError("server already started")
        self._thread = threading.Thread(
            target=self._core.run, name="gallery-tcp", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, join_timeout: float = 5.0) -> bool:
        """Shut the server down; returns True when it stopped cleanly.

        A loop or worker thread that outlives *join_timeout* is reported
        (logged, ``False`` returned, recorded on :attr:`stopped_cleanly`)
        instead of blocking the caller forever — every thread is a daemon,
        so a wedged handler cannot keep the process alive either way.
        """
        self._core.request_stop()
        thread, self._thread = self._thread, None
        clean = True
        if thread is None:
            # Never started (or already stopped): the loop's finally block
            # never ran, so release the listener here.
            self._core._cleanup()  # noqa: SLF001 - owning wrapper
        else:
            thread.join(timeout=join_timeout)
            if thread.is_alive():
                logger.warning(
                    "gallery-tcp event loop still alive %.1fs after shutdown; "
                    "abandoning it (daemon thread)",
                    join_timeout,
                )
                clean = False
        if not self._core.pool.stop(timeout=join_timeout):
            logger.warning(
                "gallery worker thread still alive %.1fs after shutdown; "
                "abandoning it (daemon thread)",
                join_timeout,
            )
            clean = False
        self.stopped_cleanly = clean
        return clean

    def __enter__(self) -> "GalleryTcpServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# Client transports
# ---------------------------------------------------------------------------


class _FrameReceiver:
    """Per-connection frame reader with zero-copy chunk reassembly.

    The PR 5 client read path buffered every chunk frame as ``bytes`` and
    then copied it into the reassembly buffer.  This receiver classifies
    each frame from its first bytes: chunk frames get their payload
    ``recv_into``'d straight into the reassembler's preallocated buffer
    (one kernel→user copy, no intermediate per-chunk ``bytes``), while
    everything else — single responses, aborts — accumulates and goes
    through :meth:`wire.ChunkReassembler.feed` unchanged.

    EOF at a frame boundary with nothing partial raises
    :class:`ConnectionResetError` (orderly close); EOF anywhere else raises
    :class:`WireFormatError` — either way a truncated response can never be
    returned as complete.
    """

    __slots__ = ("_sock", "_buf", "_reassembler")

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = bytearray()
        # Chunked responses for different request_ids may interleave on the
        # wire; the reassembler tracks each id independently.
        self._reassembler = wire.ChunkReassembler()

    def _fill(self, need: int, at_boundary: bool) -> None:
        buf = self._buf
        while len(buf) < need:
            chunk = self._sock.recv(_RECV_CHUNK)
            if not chunk:
                if at_boundary and not buf and not len(self._reassembler):
                    raise ConnectionResetError("server closed the connection")
                raise WireFormatError("connection closed mid-frame")
            buf += chunk

    def _recv_chunk_frame(self, length: int) -> bytes | None:
        """recv_into the payload of the chunk frame whose header is buffered."""
        buf = self._buf
        _, _, request_id, total, offset = wire._CHUNK_HEADER.unpack_from(
            buf, _LENGTH.size
        )
        size = length - wire._CHUNK_HEADER.size
        dest = self._reassembler.begin_chunk(request_id, total, offset, size)
        del buf[:_LENGTH.size + wire._CHUNK_HEADER.size]
        have = min(len(buf), size)
        if have:
            dest[:have] = buf[:have]
            del buf[:have]
        filled = have
        while filled < size:
            received = self._sock.recv_into(dest[filled:])
            if received == 0:
                raise WireFormatError("connection closed mid-frame")
            filled += received
        return self._reassembler.commit_chunk(request_id, size)

    def next_response(self) -> bytes:
        """Block until one complete (reassembled) response frame arrives."""
        buf = self._buf
        while True:
            self._fill(_LENGTH.size, at_boundary=True)
            (length,) = _LENGTH.unpack_from(buf)
            if length > MAX_FRAME_BYTES:
                raise WireFormatError(
                    f"frame of {length} bytes exceeds the limit"
                )
            if length >= wire._CHUNK_HEADER.size:
                self._fill(_LENGTH.size + wire._CHUNK_HEADER.size, at_boundary=False)
                if (
                    buf[_LENGTH.size] == wire.BINARY_VERSION
                    and buf[_LENGTH.size + 1] == wire._MSG_RESPONSE_CHUNK
                ):
                    complete = self._recv_chunk_frame(length)
                    if complete is not None:
                        return complete
                    continue
            total = _LENGTH.size + length
            self._fill(total, at_boundary=False)
            frame = bytes(buf[:total])
            del buf[:total]
            complete = self._reassembler.feed(frame)
            if complete is not None:
                return complete


class _PendingExchange:
    """One in-flight pipelined call: an event plus its outcome."""

    __slots__ = ("_event", "_frame", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._frame: bytes | None = None
        self._error: BaseException | None = None

    def resolve(self, frame: bytes) -> None:
        self._frame = frame
        self._event.set()

    def fail(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()

    def wait(self, timeout: float | None) -> bytes:
        if not self._event.wait(timeout):
            raise TimeoutError("timed out waiting for a pipelined response")
        if self._error is not None:
            raise self._error
        assert self._frame is not None
        return self._frame

    def done(self) -> bool:
        return self._event.is_set()


class PipelinedTcpTransport:
    """Many requests in flight on one connection, correlated by request_id.

    * ``submit(frame)`` registers the frame's request_id, sends, and
      returns a :class:`_PendingExchange` immediately; a background reader
      thread completes it when the matching response arrives (responses
      may arrive in any order).
    * ``submit_many(frames)`` registers a whole batch and ships it with a
      **single** ``sendall`` — one syscall for N requests.
    * ``__call__`` keeps the plain blocking ``bytes -> bytes`` transport
      contract (submit + wait) with half-open handling: a failure on a
      connection that existed before the call is replayed once on a fresh
      one; a fresh connection failing is a real outage and raises
      :class:`ServiceError`.

    Thread-safe: any number of threads may submit concurrently.  Two
    in-flight requests may not share a request_id — a colliding submit
    waits for the earlier call to finish (this also serializes id-0
    frames, which cannot be correlated).
    """

    def __init__(
        self, host: str, port: int, timeout: float = 30.0
    ) -> None:
        self._address = (host, port)
        self._timeout = timeout
        self._state = threading.Condition()
        self._send_lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._generation = 0
        self._pending: dict[int, _PendingExchange] = {}
        #: connections transparently replaced after a mid-call failure
        self.reconnects = 0

    # -- connection management ----------------------------------------------

    def _ensure_connected_locked(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self._address, timeout=self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
            self._sock = sock
            generation = self._generation
            reader = threading.Thread(
                target=self._read_loop,
                args=(sock, generation),
                name="gallery-pipeline-reader",
                daemon=True,
            )
            reader.start()
        return self._sock

    def _drop_locked(self, exc: BaseException) -> None:
        """Fail every pending call and discard the connection."""
        self._generation += 1
        sock, self._sock = self._sock, None
        if sock is not None:
            # shutdown() before close(): the reader thread is blocked in
            # recv() on this socket and holds a kernel reference, so a bare
            # close() would neither wake it nor send FIN — the connection
            # (and the server's end of it) would leak until process exit.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        pending, self._pending = self._pending, {}
        for entry in pending.values():
            entry.fail(exc)
        self._state.notify_all()

    def _fail_generation(self, generation: int, exc: BaseException) -> None:
        with self._state:
            if generation != self._generation:
                return  # a newer connection already superseded this one
            self._drop_locked(exc)

    # -- reader thread -------------------------------------------------------

    def _read_loop(self, sock: socket.socket, generation: int) -> None:
        receiver = _FrameReceiver(sock)
        try:
            while True:
                frame = receiver.next_response()
                self._dispatch_response(generation, frame)
        except Exception as exc:  # noqa: BLE001 - all failures fail the conn
            self._fail_generation(generation, exc)

    def _dispatch_response(self, generation: int, frame: bytes) -> None:
        request_id = wire.peek_response_request_id(frame)
        with self._state:
            if generation != self._generation:
                return
            entry = self._pending.pop(request_id, None)
            if entry is not None:
                self._state.notify_all()
        if entry is not None:
            entry.resolve(frame)
            return
        # Unsolicited frame: either a response whose waiter already timed
        # out (drop it) or a stream-level error the server emitted before
        # hanging up (fail everything with the decoded error).
        response = wire.decode_response(frame)
        if not response.ok:
            self._fail_generation(
                generation,
                ServiceError(
                    f"server reported {response.error_type}: "
                    f"{response.error_message}"
                ),
            )

    # -- submission ----------------------------------------------------------

    def _register(self, data: bytes) -> tuple[_PendingExchange, int, int, socket.socket]:
        request_id = wire.peek_request_id(data)
        with self._state:
            while request_id in self._pending:
                if not self._state.wait(timeout=self._timeout):
                    raise ServiceError(
                        f"request_id {request_id} still in flight after "
                        f"{self._timeout}s"
                    )
            sock = self._ensure_connected_locked()
            entry = _PendingExchange()
            self._pending[request_id] = entry
            return entry, request_id, self._generation, sock

    def _discard(self, request_id: int, generation: int, entry: _PendingExchange) -> None:
        with self._state:
            if (
                generation == self._generation
                and self._pending.get(request_id) is entry
            ):
                del self._pending[request_id]
                self._state.notify_all()

    def submit(self, data: bytes) -> _PendingExchange:
        """Send one frame; return a handle the response will complete."""
        entry, request_id, generation, sock = self._register(data)
        try:
            with self._send_lock:
                sock.sendall(data)
        except OSError as exc:
            self._discard(request_id, generation, entry)
            self._fail_generation(generation, exc)
            raise
        return entry

    def submit_many(self, frames: list[bytes]) -> list[_PendingExchange]:
        """Send a batch of frames with one sendall; return their handles."""
        registered: list[tuple[_PendingExchange, int, int]] = []
        sock: socket.socket | None = None
        try:
            for data in frames:
                entry, request_id, generation, sock = self._register(data)
                registered.append((entry, request_id, generation))
            if sock is not None:
                with self._send_lock:
                    sock.sendall(b"".join(frames))
        except OSError as exc:
            for entry, request_id, generation in registered:
                self._discard(request_id, generation, entry)
            if registered:
                self._fail_generation(registered[0][2], exc)
            raise
        return [entry for entry, _, _ in registered]

    # -- blocking transport contract ----------------------------------------

    def _roundtrip(self, data: bytes) -> bytes:
        entry, request_id, generation, sock = self._register(data)
        try:
            with self._send_lock:
                sock.sendall(data)
            return entry.wait(self._timeout)
        except BaseException as exc:
            self._discard(request_id, generation, entry)
            if isinstance(exc, OSError) and not isinstance(exc, TimeoutError):
                # The socket itself broke: everything in flight on this
                # generation is lost.  (A timeout only abandons THIS call —
                # other multiplexed calls may still be progressing.)
                self._fail_generation(generation, exc)
            raise

    def __call__(self, data: bytes) -> bytes:
        reused = self._sock is not None
        try:
            return self._roundtrip(data)
        except (OSError, WireFormatError, TimeoutError) as exc:
            if not reused:
                raise ServiceError(f"transport failure: {exc}") from exc
        # Half-open race: the pre-existing connection died under this call.
        # Replay once on a fresh connection (safe: reads are idempotent and
        # mutations are covered by server-side request dedup).
        self.reconnects += 1
        try:
            return self._roundtrip(data)
        except (OSError, WireFormatError, TimeoutError) as exc:
            self.close()
            raise ServiceError(f"transport failure: {exc}") from exc

    def close(self) -> None:
        with self._state:
            self._drop_locked(ConnectionError("transport closed"))

    def __enter__(self) -> "PipelinedTcpTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
