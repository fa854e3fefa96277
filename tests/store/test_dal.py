"""Tests for the data access layer: write-blob-first, read path, GC."""

import pytest

from repro.core.records import Model, ModelInstance
from repro.errors import BlobStoreError, ConsistencyError, DuplicateError
from repro.reliability import FaultInjector, FaultyBlobStore
from repro.store.blob import InMemoryBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore
from tests.core.test_query_batching import CountingStore


def make_instance(iid="i1"):
    return ModelInstance(
        instance_id=iid, model_id="m1", base_version_id="demand", created_time=1.0
    )


@pytest.fixture
def dal_parts():
    metadata = SQLiteMetadataStore(":memory:")
    blobs = InMemoryBlobStore()
    cache = LRUBlobCache(1024)
    return metadata, blobs, cache, DataAccessLayer(metadata, blobs, cache)


class TestWriteBlobFirst:
    def test_successful_save_fills_location(self, dal_parts):
        _, blobs, _, dal = dal_parts
        stored = dal.save_instance(make_instance(), b"payload")
        assert stored.blob_location
        assert blobs.exists(stored.blob_location)

    def test_blob_failure_leaves_nothing(self, dal_parts):
        metadata, _, cache, _ = dal_parts
        injector = FaultInjector()
        failing = FaultyBlobStore(InMemoryBlobStore(), injector)
        dal = DataAccessLayer(metadata, failing, cache)
        injector.inject_next("put")
        with pytest.raises(BlobStoreError):
            dal.save_instance(make_instance(), b"payload")
        assert metadata.counts()["instances"] == 0
        assert failing.locations() == []

    def test_metadata_failure_leaves_orphan_blob(self, dal_parts):
        metadata, blobs, _, dal = dal_parts
        dal.save_instance(make_instance("i1"), b"first")
        # second save of the SAME instance id: blob lands, metadata refuses
        with pytest.raises(DuplicateError):
            dal.save_instance(make_instance("i1"), b"second")
        report = dal.audit_consistency()
        assert len(report.orphan_blobs) == 1
        assert report.consistent  # orphans are legal; dangling metadata is not

    def test_orphan_gc_reclaims(self, dal_parts):
        metadata, blobs, _, dal = dal_parts
        dal.save_instance(make_instance("i1"), b"first")
        with pytest.raises(DuplicateError):
            dal.save_instance(make_instance("i1"), b"second")
        removed = dal.collect_orphan_blobs()
        assert len(removed) == 1
        assert dal.audit_consistency().orphan_blobs == ()
        # the live instance's blob is untouched
        assert dal.load_blob("i1") == b"first"


class TestReadPath:
    def test_cache_populated_on_read(self, dal_parts):
        _, blobs, cache, dal = dal_parts
        stored = dal.save_instance(make_instance(), b"payload")
        assert dal.load_blob("i1") == b"payload"   # miss -> store read
        assert dal.load_blob("i1") == b"payload"   # hit
        assert cache.stats.hits == 1
        assert blobs.stats.gets == 1  # only one physical read

    def test_no_cache_configured(self):
        dal = DataAccessLayer(SQLiteMetadataStore(":memory:"), InMemoryBlobStore(), None)
        dal.save_instance(make_instance(), b"payload")
        assert dal.load_blob("i1") == b"payload"
        assert dal.load_blob("i1") == b"payload"

    def test_missing_location_is_consistency_error(self, dal_parts):
        metadata, _, _, dal = dal_parts
        metadata.insert_instance(make_instance())  # no blob_location
        with pytest.raises(ConsistencyError):
            dal.load_blob("i1")


class TestAudit:
    def test_dangling_metadata_detected(self, dal_parts):
        metadata, blobs, _, dal = dal_parts
        stored = dal.save_instance(make_instance(), b"payload")
        blobs.delete(stored.blob_location)  # simulate external corruption
        report = dal.audit_consistency()
        assert not report.consistent
        assert report.dangling_instances == ("i1",)

    def test_clean_state_audits_clean(self, dal_parts):
        *_, dal = dal_parts
        dal.save_instance(make_instance(), b"payload")
        report = dal.audit_consistency()
        assert report.consistent and report.orphan_blobs == ()

    def test_audit_reads_the_instances_once(self, dal_parts):
        metadata, blobs, cache, _ = dal_parts
        store = CountingStore(metadata)
        dal = DataAccessLayer(store, blobs, cache)
        dal.save_instance(make_instance("i1"), b"kept")
        lost = dal.save_instance(make_instance("i2"), b"lost")
        blobs.delete(lost.blob_location)
        orphan = blobs.put(b"orphan")
        store.reset()
        report = dal.audit_consistency()
        assert report.dangling_instances == ("i2",)
        assert report.orphan_blobs == (orphan,)
        assert store.count("iter_instances") == 1
        store.reset()
        assert dal.collect_orphan_blobs() == [orphan]
        assert store.count("iter_instances") == 1

    def test_storage_summary(self, dal_parts):
        metadata, _, _, dal = dal_parts
        dal.metadata.insert_model(
            Model(model_id="m1", project="p", base_version_id="demand")
        )
        dal.save_instance(make_instance(), b"payload")
        dal.load_blob("i1")
        summary = dal.storage_summary()
        assert summary["models"] == 1
        assert summary["instances"] == 1
        assert summary["blob_count"] == 1
        assert "cache_hit_rate" in summary


def test_public_surface_is_the_blob_protocol():
    """The DAL owns write-blob-first, the blob read path and the audit;
    every other metadata operation is called on ``dal.metadata``."""
    public = {name for name in vars(DataAccessLayer) if not name.startswith("_")}
    assert public == {
        "metadata",
        "blobs",
        "cache",
        "save_instance",
        "load_blob",
        "load_blob_payload",
        "load_blob_range",
        "referenced_locations",
        "audit_consistency",
        "collect_orphan_blobs",
        "storage_summary",
        # kept only so gallerybench's serve_hot measures a DAL layer
        "serving_assignment",
    }
