"""Chaos: a replica dies mid-sendfile-stream.

The PR8 invariant: a blob stream cut anywhere — between chunk frames or
inside one, on the sendfile path or the copy fallback — surfaces as a
typed transport/wire error at the client and is NEVER accepted as a
truncated blob.  With a failover client in front of two replicas the cut
is invisible: the blob read retries on the survivor and returns exact
bytes.

The deterministic single-server scenario runs in tier-1 (it controls the
cut point precisely, so it is fast and repeatable); the replicated
kill-under-load scenario is marked ``chaos`` (run via ``make chaos``).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.clock import ManualClock
from repro.core.ids import SeededIdFactory
from repro.core.registry import Gallery
from repro.errors import ServiceError, WireFormatError
from repro.service import connect, tcp, wire
from repro.service.server import GalleryService
from repro.service.tcp import GalleryTcpServer
from repro.store.blob import FilesystemBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore
from repro.store.sharding import open_sharded_store

BLOB = bytes(range(256)) * (64 * 1024)  # 16 MiB — far beyond socket buffers


def _file_backed_service(tmp_path):
    store = FilesystemBlobStore(tmp_path / "blobs")
    dal = DataAccessLayer(SQLiteMetadataStore(":memory:"), store, cache=None)
    gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(7))
    gallery.create_model("p", "demand")
    instance = gallery.upload_model(
        "p", "demand", BLOB, metadata={"model_name": "rf"}
    )
    return GalleryService(gallery), instance.instance_id


@pytest.mark.parametrize("force_fallback", [False, True])
def test_mid_stream_kill_is_a_typed_error_never_truncation(
    tmp_path, monkeypatch, force_fallback
):
    """Kill the server with most of the stream undelivered.

    The client has read nothing when the server dies, and 16 MiB cannot
    hide in loopback socket buffers, so the cut is guaranteed to land
    mid-stream.  Draining what *was* delivered through the real receiver
    must end in a typed error — a completed (truncated) response would be
    the corruption bug this suite exists to catch.
    """
    if force_fallback:
        monkeypatch.setattr(tcp, "_sendfile", None)
    service, instance_id = _file_backed_service(tmp_path)
    server = GalleryTcpServer(service, chunk_size=64 * 1024).start()
    try:
        import socket as socket_module

        sock = socket_module.create_connection(server.address)
        try:
            request = wire.Request(
                method="loadModelBlob",
                params={"instance_id": instance_id},
                request_id=1,
            )
            sock.sendall(wire.encode_request(request))
            # Wait until the server has started streaming (its send buffer
            # fills because we are not reading), then kill it mid-chunk.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if sock.recv(1, socket_module.MSG_PEEK):
                    break
                time.sleep(0.005)
        finally:
            server.stop()
        try:
            receiver = tcp._FrameReceiver(sock)  # noqa: SLF001 - the real path
            with pytest.raises((ServiceError, ConnectionError, OSError)) as exc:
                while True:
                    frame = receiver.next_response()
                    response = wire.decode_response(frame)
                    # A complete response off a cut stream must not parse
                    # into a full-length blob.
                    assert response.ok
                    assert len(response.result) != len(BLOB), (
                        "truncated stream was accepted as a complete blob"
                    )
            if isinstance(exc.value, ServiceError):
                assert isinstance(exc.value, WireFormatError)
        finally:
            sock.close()
    finally:
        server.stop()


class _Replica:
    """A serving stack over a shared shard layout + shared blob tree."""

    def __init__(self, tmp_path):
        self.store = open_sharded_store(str(tmp_path / "shards"), 3)
        self.dal = DataAccessLayer(
            self.store,
            FilesystemBlobStore(tmp_path / "blobs"),
            LRUBlobCache(8),
        )
        self.gallery = Gallery(self.dal)
        self.service = GalleryService(self.gallery)
        self.server = GalleryTcpServer(
            self.service, chunk_size=256 * 1024
        ).start()

    @property
    def address(self):
        host, port = self.server.address
        return f"{host}:{port}"

    def stop(self):
        self.server.stop()
        self.store.close()


@pytest.mark.chaos
def test_failover_hides_a_replica_killed_mid_stream(tmp_path):
    """Two replicas, one killed while blob fetches are in flight.

    Every ``load_model_blob`` through the failover client must return the
    exact bytes — the interrupted stream is retried on the survivor, and
    the kill shows up only in the transport's failover counter.
    """
    replicas = [_Replica(tmp_path), _Replica(tmp_path)]
    url = "gallery://" + ",".join(r.address for r in replicas)
    client = connect(url, client_id="stream-chaos", reset_timeout=0.2)
    try:
        client.create_gallery_model("p", "demand")
        instance = client.upload_model(
            "p", "demand", BLOB, metadata={"model_name": "rf"}
        )
        instance_id = instance["instance_id"]
        assert client.load_model_blob(instance_id) == BLOB  # warm both paths

        failovers = 0
        killer = threading.Timer(0.02, replicas[0].server.stop)
        killer.start()
        try:
            for _ in range(8):
                # A fresh client's first pick over two replicas is the
                # first one, so every fetch starts on the replica being
                # killed: the kill cuts one mid-stream or a later one
                # dials the corpse — and the fetch still recovers.
                fetcher = connect(url, client_id="stream-chaos")
                try:
                    assert fetcher.load_model_blob(instance_id) == BLOB
                    failovers += fetcher._transport.failovers  # noqa: SLF001
                finally:
                    fetcher.close()
        finally:
            killer.join()
        assert failovers >= 1
    finally:
        client.close()
        for replica in replicas:
            replica.stop()
