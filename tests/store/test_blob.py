"""Tests for blob stores: memory and filesystem (S3/HDFS stand-in).

The fault-injecting wrapper is tested in ``tests/reliability/test_faults.py``.
"""

import pytest

from repro.errors import BlobStoreError, NotFoundError
from repro.store.blob import FilesystemBlobStore, InMemoryBlobStore, content_address


@pytest.fixture(params=["memory", "fs"])
def blob_store(request, tmp_path):
    if request.param == "memory":
        return InMemoryBlobStore()
    return FilesystemBlobStore(tmp_path / "blobs")


class TestBlobStoreContract:
    def test_put_get_round_trip(self, blob_store):
        location = blob_store.put(b"model-bytes", hint="inst-1")
        assert blob_store.get(location) == b"model-bytes"
        assert blob_store.exists(location)

    def test_get_missing_raises(self, blob_store):
        with pytest.raises(NotFoundError):
            blob_store.get("mem://blobs/ghost" if "mem" in str(type(blob_store)).lower() else "fs://" + "0" * 64)

    def test_delete(self, blob_store):
        location = blob_store.put(b"x")
        blob_store.delete(location)
        assert not blob_store.exists(location)
        with pytest.raises(NotFoundError):
            blob_store.delete(location)

    def test_locations_lists_everything(self, blob_store):
        locations = {blob_store.put(f"blob-{i}".encode()) for i in range(5)}
        assert set(blob_store.locations()) == locations

    def test_non_bytes_rejected(self, blob_store):
        with pytest.raises(BlobStoreError):
            blob_store.put("a string")  # type: ignore[arg-type]

    def test_empty_blob_allowed(self, blob_store):
        location = blob_store.put(b"")
        assert blob_store.get(location) == b""

    def test_large_blob_round_trip(self, blob_store):
        payload = bytes(range(256)) * 4096  # 1 MiB
        assert blob_store.get(blob_store.put(payload)) == payload

    def test_stats_accounting(self, blob_store):
        blob_store.put(b"1234")
        location = blob_store.put(b"56")
        blob_store.get(location)
        assert blob_store.stats.puts == 2
        assert blob_store.stats.gets == 1
        assert blob_store.stats.bytes_written == 6
        assert blob_store.stats.bytes_read == 2


class TestFilesystemSpecifics:
    def test_content_addressing_dedupes(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        first = store.put(b"same-bytes")
        second = store.put(b"same-bytes")
        assert first == second
        assert len(store.locations()) == 1

    def test_location_embeds_digest(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        location = store.put(b"payload")
        assert location == f"fs://{content_address(b'payload')}"

    def test_corruption_detected_on_read(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        location = store.put(b"payload")
        digest = location[len("fs://"):]
        path = tmp_path / digest[:2] / digest[2:4] / digest
        path.write_bytes(b"tampered")
        with pytest.raises(BlobStoreError):
            store.get(location)

    def test_foreign_scheme_rejected(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        with pytest.raises(BlobStoreError):
            store.get("s3://other/bucket")

    def test_survives_reopen(self, tmp_path):
        location = FilesystemBlobStore(tmp_path).put(b"durable")
        assert FilesystemBlobStore(tmp_path).get(location) == b"durable"

