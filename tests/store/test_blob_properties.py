"""Property-based tests for blob stores and the write-blob-first DAL."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.records import ModelInstance
from repro.errors import GalleryError
from repro.reliability import FaultInjector, FaultKind, FaultyBlobStore
from repro.store.blob import InMemoryBlobStore, content_address
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore


@given(st.binary(max_size=512))
@settings(max_examples=200)
def test_put_get_identity(payload):
    store = InMemoryBlobStore()
    assert store.get(store.put(payload)) == payload


@given(st.binary(max_size=256), st.binary(max_size=256))
@settings(max_examples=200)
def test_content_address_injective_on_observed_inputs(a, b):
    if a == b:
        assert content_address(a) == content_address(b)
    else:
        assert content_address(a) != content_address(b)


@given(st.lists(st.binary(max_size=64), max_size=20))
@settings(max_examples=100)
def test_locations_track_live_blobs(payloads):
    store = InMemoryBlobStore()
    locations = [store.put(p) for p in payloads]
    assert set(store.locations()) == set(locations)
    for location in locations[: len(locations) // 2]:
        store.delete(location)
    expected = set(locations[len(locations) // 2:])
    assert set(store.locations()) == expected


@given(
    st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200)
def test_write_blob_first_never_leaves_dangling_metadata(payloads, seed, rate):
    """Under arbitrary blob-write failures (plain errors and torn writes),
    metadata never points at a missing blob — the paper's consistency
    guarantee (Section 3.5)."""
    injector = FaultInjector(
        seed, rate, kinds=(FaultKind.ERROR, FaultKind.TORN_WRITE), ops={"put"}
    )
    store = FaultyBlobStore(InMemoryBlobStore(), injector)
    dal = DataAccessLayer(SQLiteMetadataStore(":memory:"), store, None)
    saved = 0
    for index, payload in enumerate(payloads):
        instance = ModelInstance(
            instance_id=f"i{index}",
            model_id="m",
            base_version_id="b",
            created_time=float(index),
        )
        try:
            dal.save_instance(instance, payload)
            saved += 1
        except GalleryError:
            pass
    report = dal.audit_consistency()
    assert report.consistent
    assert report.dangling_instances == ()
    assert dal.metadata.counts()["instances"] == saved
    # every saved instance's blob is readable
    for index in range(len(payloads)):
        try:
            instance = dal.metadata.get_instance(f"i{index}")
        except GalleryError:
            continue
        assert dal.load_blob(instance.instance_id) is not None
