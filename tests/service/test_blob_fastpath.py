"""End-to-end coverage for the PR8 zero-copy blob fast path.

The invariants:

* sendfile serving and the ``_StreamOut`` copy fallback produce
  byte-identical wire payloads (forced-fallback parity via the
  ``tcp._sendfile`` hook, exactly how a sendfile-less platform presents);
* ``loadModelBlobRange`` round-trips every edge the clamp admits —
  offset 0, offset == size, length past EOF, zero-length, windows
  crossing chunk boundaries;
* range responses are digest-verified client-side, and a wrong digest
  raises :class:`BlobCorruptionError` at the client;
* bytes tampered on disk surface as a typed server-side
  :class:`BlobCorruptionError`, never as silently wrong bytes;
* a transport with no socket keeps working — it simply never takes the
  sendfile path.
"""

from __future__ import annotations

import hashlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.clock import ManualClock
from repro.core.ids import SeededIdFactory
from repro.core.registry import Gallery
from repro.errors import BlobCorruptionError, ValidationError
from repro.service import tcp
from repro.service.client import GalleryClient, connect_in_process
from repro.service.server import GalleryService
from repro.service.tcp import GalleryTcpServer, PipelinedTcpTransport
from repro.store.blob import FilesystemBlobStore
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore

# Deliberately NOT chunk-aligned: 3 full 64 KiB chunks plus a ragged tail.
BLOB = bytes(range(256)) * (768 + 1) + b"tail-bytes!"
CHUNK = 64 * 1024


def file_backed_gallery(tmp_path):
    """A file-backed gallery holding one blob: (gallery, instance_id, store)."""
    store = FilesystemBlobStore(tmp_path / "blobs")
    dal = DataAccessLayer(SQLiteMetadataStore(":memory:"), store, cache=None)
    gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(7))
    gallery.create_model("p", "demand")
    instance = gallery.upload_model(
        "p", "demand", BLOB, metadata={"model_name": "rf"}
    )
    return gallery, instance.instance_id, store


@pytest.fixture
def served_blob(tmp_path):
    """An event-loop server over a file-backed gallery with one blob."""
    gallery, instance_id, store = file_backed_gallery(tmp_path)
    with GalleryTcpServer(GalleryService(gallery), chunk_size=CHUNK) as server:
        yield server, instance_id, store


def _client(address):
    transport = PipelinedTcpTransport(*address)
    return GalleryClient(transport), transport


class TestSendfileParity:
    def test_sendfile_serves_exact_bytes(self, served_blob):
        server, instance_id, store = served_blob
        client, transport = _client(server.address)
        with transport:
            assert client.load_model_blob(instance_id) == BLOB
        # The region path verified the digest exactly once.
        assert store.stats.digest_verifications == 1

    def test_forced_fallback_is_byte_identical(self, served_blob, monkeypatch):
        server, instance_id, _ = served_blob
        client, transport = _client(server.address)
        with transport:
            via_sendfile = client.load_model_blob(instance_id)
            monkeypatch.setattr(tcp, "_sendfile", None)
            via_fallback = client.load_model_blob(instance_id)
        assert via_sendfile == via_fallback == BLOB

    def test_ranges_and_full_fetches_interleave(self, served_blob):
        server, instance_id, _ = served_blob
        client, transport = _client(server.address)
        with transport:
            for offset in (0, CHUNK - 1, CHUNK, 5 * CHUNK + 17):
                window = client.load_blob_range(instance_id, offset, 4096)
                assert window == BLOB[offset : offset + 4096]
            assert client.load_model_blob(instance_id) == BLOB

    def test_in_process_client_round_trips_without_sendfile(self, tmp_path):
        # No socket to sendfile into: handle_frame materializes the region
        # into its single response frame.
        gallery, instance_id, _ = file_backed_gallery(tmp_path)
        client = connect_in_process(GalleryService(gallery))
        assert client.load_model_blob(instance_id) == BLOB
        assert client.load_blob_range(instance_id, 10, 20) == BLOB[10:30]


class TestRangeEdges:
    @pytest.mark.parametrize(
        ("offset", "length"),
        [
            (0, 1),                      # first byte
            (0, None),                   # whole blob via the range API
            (len(BLOB) - 1, 1),          # last byte
            (len(BLOB), 16),             # offset at EOF -> empty
            (len(BLOB) + 5000, None),    # offset past EOF -> empty
            (len(BLOB) - 7, 100),        # length past EOF -> clamped tail
            (123, 0),                    # zero-length window
            (CHUNK - 3, 7),              # straddles a chunk boundary
            (2 * CHUNK, CHUNK),          # exactly one chunk, aligned
        ],
    )
    def test_range_edge_matches_slice(self, served_blob, offset, length):
        server, instance_id, _ = served_blob
        client, transport = _client(server.address)
        with transport:
            window = client.load_blob_range(instance_id, offset, length)
        expected = (
            BLOB[offset:] if length is None else BLOB[offset : offset + length]
        )
        assert window == expected

    def test_negative_offset_is_rejected(self, served_blob):
        server, instance_id, _ = served_blob
        client, transport = _client(server.address)
        with transport:
            with pytest.raises(ValidationError):
                client.load_blob_range(instance_id, -1, 10)

    @given(
        offset=st.integers(min_value=0, max_value=len(BLOB) + 100),
        length=st.one_of(
            st.none(), st.integers(min_value=0, max_value=len(BLOB))
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_fuzzed_ranges_match_slices(self, shared_served_blob, offset, length):
        client, instance_id = shared_served_blob
        window = client.load_blob_range(instance_id, offset, length)
        expected = (
            BLOB[offset:] if length is None else BLOB[offset : offset + length]
        )
        assert window == expected


@pytest.fixture(scope="module")
def shared_served_blob(tmp_path_factory):
    """One live server + client shared across hypothesis examples."""
    gallery, instance_id, _ = file_backed_gallery(
        tmp_path_factory.mktemp("fuzz-blobs")
    )
    with GalleryTcpServer(GalleryService(gallery), chunk_size=CHUNK) as server:
        with PipelinedTcpTransport(*server.address) as transport:
            yield GalleryClient(transport), instance_id


class TestIntegrity:
    def _tamper(self, store_root, location):
        digest = location.removeprefix("fs://")
        path = store_root / digest[:2] / digest[2:4] / digest
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0x40
        path.write_bytes(bytes(raw))

    def test_tampered_blob_raises_typed_error(self, served_blob, tmp_path):
        server, instance_id, store = served_blob
        [location] = store.locations()
        self._tamper(tmp_path / "blobs", location)
        client, transport = _client(server.address)
        with transport:
            with pytest.raises(BlobCorruptionError):
                client.load_model_blob(instance_id)
            with pytest.raises(BlobCorruptionError):
                client.load_blob_range(instance_id, 0, 64)

    def test_tamper_after_verified_serve_is_still_caught(
        self, served_blob, tmp_path
    ):
        server, instance_id, store = served_blob
        client, transport = _client(server.address)
        with transport:
            assert client.load_model_blob(instance_id) == BLOB  # verified
            [location] = store.locations()
            self._tamper(tmp_path / "blobs", location)  # mtime changes
            with pytest.raises(BlobCorruptionError):
                client.load_model_blob(instance_id)

    def test_client_rejects_response_with_wrong_digest(self, tmp_path):
        store = FilesystemBlobStore(tmp_path / "blobs")
        dal = DataAccessLayer(SQLiteMetadataStore(":memory:"), store, cache=None)
        gallery = Gallery(
            dal, clock=ManualClock(), id_factory=SeededIdFactory(7)
        )
        gallery.create_model("p", "demand")
        instance = gallery.upload_model(
            "p", "demand", BLOB, metadata={"model_name": "rf"}
        )

        real = gallery.load_instance_blob_range

        def lying_range(instance_id, offset, length):
            blob_range = real(instance_id, offset, length)
            blob_range.digest = hashlib.sha256(b"not the bytes").hexdigest()
            return blob_range

        gallery.load_instance_blob_range = lying_range
        with GalleryTcpServer(GalleryService(gallery)) as server:
            client, transport = _client(server.address)
            with transport:
                with pytest.raises(BlobCorruptionError):
                    client.load_blob_range(instance.instance_id, 0, 128)
