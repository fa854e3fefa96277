"""Tests for the fault injector and its store/transport wrappers."""

import pytest

from repro.errors import (
    BlobCorruptionError,
    BlobStoreError,
    MetadataStoreError,
    NotFoundError,
    ServiceError,
)
from repro.reliability import (
    FaultInjector,
    FaultKind,
    FaultyBlobStore,
    FaultyMetadataStore,
    FaultyTransport,
    corrupt_blob_at_rest,
)
from repro.store.blob import FilesystemBlobStore, InMemoryBlobStore
from repro.store.metadata_store import SQLiteMetadataStore


class TestFaultInjector:
    def test_zero_rate_never_injects(self):
        injector = FaultInjector(seed=1, rate=0.0)
        assert all(injector.decide("op") is None for _ in range(100))

    def test_full_rate_always_injects(self):
        injector = FaultInjector(seed=1, rate=1.0)
        assert all(injector.decide("op") is not None for _ in range(20))

    def test_same_seed_same_schedule(self):
        a = FaultInjector(seed=42, rate=0.3, kinds=tuple(FaultKind))
        b = FaultInjector(seed=42, rate=0.3, kinds=tuple(FaultKind))
        assert [a.decide("x") for _ in range(200)] == [
            b.decide("x") for _ in range(200)
        ]

    def test_disarmed_injector_is_silent_until_armed(self):
        injector = FaultInjector(seed=1, rate=1.0, armed=False)
        assert injector.decide("op") is None
        injector.arm()
        assert injector.decide("op") is not None

    def test_op_filter(self):
        injector = FaultInjector(seed=1, rate=1.0, ops={"get"})
        assert injector.decide("put") is None
        assert injector.decide("get") is not None

    def test_scripted_faults_jump_the_queue(self):
        injector = FaultInjector(seed=1, rate=0.0)
        injector.inject_next("put", FaultKind.TORN_WRITE)
        assert injector.decide("put") is FaultKind.TORN_WRITE
        assert injector.decide("put") is None

    def test_injection_counters(self):
        injector = FaultInjector(seed=1, rate=1.0, kinds=(FaultKind.ERROR,))
        for _ in range(5):
            injector.decide("op")
        assert injector.total_injected() == 5
        assert injector.total_injected(FaultKind.ERROR) == 5
        assert injector.total_injected(FaultKind.TIMEOUT) == 0


class TestFaultyMetadataStore:
    def test_transparent_when_quiet(self):
        store = FaultyMetadataStore(
            SQLiteMetadataStore(":memory:"), FaultInjector(seed=1, rate=0.0)
        )
        assert store.counts()["models"] == 0

    def test_injected_errors_are_metadata_store_errors(self):
        injector = FaultInjector(seed=1, rate=0.0)
        store = FaultyMetadataStore(SQLiteMetadataStore(":memory:"), injector)
        injector.inject_next("counts", FaultKind.TIMEOUT)
        with pytest.raises(MetadataStoreError, match="injected timeout"):
            store.counts()
        assert store.counts()["models"] == 0  # next call goes through

    def test_non_callable_attributes_pass_through(self):
        inner = SQLiteMetadataStore(":memory:")
        store = FaultyMetadataStore(inner, FaultInjector(rate=0.0))
        assert store.inner is inner


class TestFaultyBlobStore:
    def test_torn_write_leaves_only_orphan_debris(self, tmp_path):
        inner = FilesystemBlobStore(tmp_path)
        injector = FaultInjector(seed=1, rate=0.0)
        store = FaultyBlobStore(inner, injector)
        payload = b"model-bytes" * 100
        injector.inject_next("put", FaultKind.TORN_WRITE)
        with pytest.raises(BlobStoreError, match="torn write"):
            store.put(payload)
        # the caller never got a location; whatever landed is orphan debris
        # and every stored blob is still internally consistent
        for location in store.locations():
            assert inner.get(location)  # readable, passes integrity check
        location = store.put(payload)  # clean retry succeeds
        assert store.get(location) == payload

    def test_corrupt_read_is_detected_not_served(self, tmp_path):
        inner = FilesystemBlobStore(tmp_path)
        injector = FaultInjector(seed=1, rate=0.0)
        store = FaultyBlobStore(inner, injector)
        location = store.put(b"precious-weights")
        injector.inject_next("get", FaultKind.CORRUPT_READ)
        with pytest.raises(BlobCorruptionError):
            store.get(location)

    def test_plain_error_faults(self):
        injector = FaultInjector(seed=1, rate=0.0)
        store = FaultyBlobStore(InMemoryBlobStore(), injector)
        injector.inject_next("get", FaultKind.TIMEOUT)
        location = store.put(b"x")
        with pytest.raises(BlobStoreError, match="timeout"):
            store.get(location)
        assert store.get(location) == b"x"


class TestCorruptAtRest:
    def test_filesystem_corruption_raises_typed_error(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        location = store.put(b"weights-v1")
        corrupt_blob_at_rest(store, location)
        with pytest.raises(BlobCorruptionError):
            store.get(location)

    def test_unwraps_chaos_wrappers(self, tmp_path):
        inner = FilesystemBlobStore(tmp_path)
        wrapped = FaultyBlobStore(inner, FaultInjector(rate=0.0))
        location = wrapped.put(b"weights-v2")
        corrupt_blob_at_rest(wrapped, location)
        with pytest.raises(BlobCorruptionError):
            inner.get(location)

    def test_missing_blob(self, tmp_path):
        store = FilesystemBlobStore(tmp_path)
        with pytest.raises(NotFoundError):
            corrupt_blob_at_rest(store, "fs://" + "0" * 64)


class TestFaultyTransport:
    def test_drop_never_reaches_the_server(self):
        delivered = []
        injector = FaultInjector(seed=1, rate=0.0)
        transport = FaultyTransport(lambda data: delivered.append(data) or b"ok", injector)
        injector.inject_next("call", FaultKind.DROP)
        with pytest.raises(ServiceError):
            transport(b"frame")
        assert delivered == []
        assert transport(b"frame") == b"ok"

    def test_lost_response_executes_then_raises(self):
        delivered = []
        injector = FaultInjector(seed=1, rate=0.0)
        transport = FaultyTransport(lambda data: delivered.append(data) or b"ok", injector)
        injector.inject_next("call", FaultKind.LOST_RESPONSE)
        with pytest.raises(ServiceError, match="response lost"):
            transport(b"frame")
        assert delivered == [b"frame"]  # the server DID process the request
