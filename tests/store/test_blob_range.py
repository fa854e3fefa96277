"""Range reads, zero-copy regions, and the verified-digest cache.

PR8 behaviours under test:

* ``_clamp_range`` / ``get_range`` edge semantics — offset at EOF, length
  past EOF, zero-length windows, ``None`` length — clamp instead of error,
  while negative or non-int inputs raise ``ValidationError``;
* ``FilesystemBlobStore.open_region`` hands out digest-verified regions
  and only pays the SHA-256 pass once per (mtime, size) signature;
* tampered bytes on disk fail the first serve after the change;
* sub-range digests match the served bytes exactly (hypothesis parity
  against the in-memory store's slice semantics);
* stats counters survive concurrent writers (the PR8 lock audit).
"""

from __future__ import annotations

import hashlib
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import BlobCorruptionError, NotFoundError, ValidationError
from repro.reliability import FaultInjector, FaultyBlobStore
from repro.store.blob import (
    BlobRegion,
    FilesystemBlobStore,
    InMemoryBlobStore,
    range_of_bytes,
)

PAYLOAD = b"layer-weights:" + bytes(range(256)) * 64  # 16 KiB, all byte values


def _materialize(blob_range) -> bytes:
    """Payload bytes regardless of zero-copy vs in-memory backend."""
    if isinstance(blob_range.payload, BlobRegion):
        try:
            return blob_range.payload.read()
        finally:
            blob_range.payload.close()
    return blob_range.payload


class TestClampSemantics:
    @pytest.mark.parametrize(
        ("offset", "length", "expected_slice"),
        [
            (0, None, slice(0, None)),          # whole blob
            (0, 10, slice(0, 10)),              # prefix
            (100, 50, slice(100, 150)),         # interior window
            (len(PAYLOAD), 10, slice(0, 0)),    # offset at EOF -> empty
            (len(PAYLOAD) + 999, None, slice(0, 0)),  # offset past EOF
            (len(PAYLOAD) - 5, 100, slice(len(PAYLOAD) - 5, None)),  # clamp
            (7, 0, slice(7, 7)),                # zero-length window
        ],
    )
    def test_range_matches_slice(self, offset, length, expected_slice):
        result = range_of_bytes(PAYLOAD, offset, length)
        expected = PAYLOAD[expected_slice]
        assert result.payload == expected
        assert result.length == len(expected)
        assert result.blob_size == len(PAYLOAD)
        assert result.digest == hashlib.sha256(expected).hexdigest()

    @pytest.mark.parametrize(
        ("offset", "length"),
        [(-1, None), (0, -1), ("0", None), (0, "4"), (1.5, None),
         (True, None), (0, False)],
    )
    def test_bad_inputs_raise_validation_error(self, offset, length):
        with pytest.raises(ValidationError):
            range_of_bytes(PAYLOAD, offset, length)

    def test_in_memory_store_get_range(self):
        store = InMemoryBlobStore()
        location = store.put(PAYLOAD)
        result = store.get_range(location, 64, 128)
        assert result.payload == PAYLOAD[64:192]
        assert result.offset == 64
        assert result.blob_size == len(PAYLOAD)


class TestFilesystemRegions:
    def test_open_region_round_trips_whole_blob(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        location = store.put(PAYLOAD)
        with store.open_region(location) as region:
            assert len(region) == len(PAYLOAD)
            assert region.blob_size == len(PAYLOAD)
            assert region.read() == PAYLOAD

    def test_open_region_clamps_like_slices(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        location = store.put(PAYLOAD)
        with store.open_region(location, len(PAYLOAD) - 3, 100) as region:
            assert region.read() == PAYLOAD[-3:]
        with store.open_region(location, len(PAYLOAD), 10) as region:
            assert region.read() == b""

    def test_get_range_payload_is_region_with_matching_digest(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        location = store.put(PAYLOAD)
        result = store.get_range(location, 33, 77)
        assert isinstance(result.payload, BlobRegion)
        data = _materialize(result)
        assert data == PAYLOAD[33:110]
        assert result.digest == hashlib.sha256(data).hexdigest()

    def test_missing_blob_raises_not_found(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        location = store.put(PAYLOAD)
        store.delete(location)
        with pytest.raises(NotFoundError):
            store.open_region(location)
        with pytest.raises(NotFoundError):
            store.get_range(location, 0, 4)


class TestVerifiedDigestCache:
    def test_digest_checked_once_per_signature(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        location = store.put(PAYLOAD)
        for _ in range(5):
            with store.open_region(location) as region:
                region.read()
        assert store.stats.digest_verifications == 1

    def test_get_populates_the_cache_for_regions(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        location = store.put(PAYLOAD)
        assert store.get(location) == PAYLOAD  # incremental hash, verifies
        assert store.stats.digest_verifications == 1
        with store.open_region(location) as region:
            region.read()
        assert store.stats.digest_verifications == 1  # cache hit

    def test_tampered_blob_fails_first_serve(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        location = store.put(PAYLOAD)
        with store.open_region(location) as region:
            region.read()
        digest = location.removeprefix("fs://")
        path = tmp_path / digest[:2] / digest[2:4] / digest
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))  # new mtime -> cache signature misses
        with pytest.raises(BlobCorruptionError):
            store.open_region(location)
        with pytest.raises(BlobCorruptionError):
            store.get(location)
        with pytest.raises(BlobCorruptionError):
            store.get_range(location, 0, 16)

    def test_delete_evicts_the_cache_entry(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        location = store.put(PAYLOAD)
        store.get(location)
        digest = location.removeprefix("fs://")
        assert digest in store._verified
        store.delete(location)
        assert digest not in store._verified

    def test_incremental_get_verifies_multi_chunk_blobs(self, tmp_path):
        # Bigger than _HASH_CHUNK so get() takes more than one read.
        big = bytes(range(256)) * (5 * 1024 * 4 + 3)  # ~5 MiB + remainder
        store = FilesystemBlobStore(tmp_path)
        location = store.put(big)
        assert store.get(location) == big
        digest = location.removeprefix("fs://")
        path = tmp_path / digest[:2] / digest[2:4] / digest
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(BlobCorruptionError):
            store.get(location)


class TestBackendParity:
    @given(
        payload=st.binary(min_size=0, max_size=2048),
        offset=st.integers(min_value=0, max_value=4096),
        length=st.one_of(st.none(), st.integers(min_value=0, max_value=4096)),
    )
    @settings(max_examples=120, deadline=None)
    def test_filesystem_range_matches_in_memory(
        self, tmp_path_factory, payload, offset, length
    ):
        tmp_path = tmp_path_factory.mktemp("blobs")
        fs_store = FilesystemBlobStore(tmp_path)
        mem_store = InMemoryBlobStore()
        fs_range = fs_store.get_range(fs_store.put(payload), offset, length)
        mem_range = mem_store.get_range(mem_store.put(payload), offset, length)
        assert _materialize(fs_range) == mem_range.payload
        assert fs_range.offset == mem_range.offset
        assert fs_range.length == mem_range.length
        assert fs_range.blob_size == mem_range.blob_size
        assert fs_range.digest == mem_range.digest

    def test_fault_injecting_store_falls_back_to_get(self, tmp_path):
        # faults must flow through get(), so the wrapper never exposes the
        # file-backed inner store's zero-copy regions
        store = FaultyBlobStore(FilesystemBlobStore(tmp_path), FaultInjector())
        location = store.put(PAYLOAD)
        assert store.open_region(location) is None
        result = store.get_range(location, 8, 8)
        assert result.payload == PAYLOAD[8:16]


class TestStatsThreadSafety:
    def test_concurrent_puts_never_lose_counts(self):
        store = InMemoryBlobStore()
        writers, puts_each = 8, 50
        barrier = threading.Barrier(writers)
        errors: list[Exception] = []

        def writer(worker: int) -> None:
            barrier.wait()
            try:
                for k in range(puts_each):
                    store.put(f"w{worker}-blob-{k}".encode())
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(n,)) for n in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.stats.puts == writers * puts_each
        assert len(store.locations()) == writers * puts_each
        expected_bytes = sum(
            len(f"w{n}-blob-{k}".encode())
            for n in range(writers)
            for k in range(puts_each)
        )
        assert store.stats.bytes_written == expected_bytes

    def test_concurrent_region_opens_count_one_verification(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        location = store.put(PAYLOAD)
        store.get(location)  # verify once up front so workers race on reads
        barrier = threading.Barrier(6)
        errors: list[Exception] = []

        def reader() -> None:
            barrier.wait()
            try:
                for _ in range(20):
                    with store.open_region(location, 16, 64) as region:
                        assert region.read() == PAYLOAD[16:80]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.stats.digest_verifications == 1
        assert store.stats.gets == 1 + 6 * 20
