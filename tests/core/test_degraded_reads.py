"""Graceful degradation: model_query served from cache when the store dies."""

import pytest

from repro.core.clock import ManualClock
from repro.core.ids import SeededIdFactory
from repro.core.registry import Gallery
from repro.errors import MetadataStoreError
from repro.reliability import FaultInjector, FaultKind, FaultyMetadataStore
from repro.store.blob import InMemoryBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore

NAME_CONSTRAINT = [{"field": "modelName", "operator": "equal", "value": "rf"}]
METRIC_CONSTRAINTS = [
    {"field": "metricName", "operator": "equal", "value": "bias"},
    {"field": "metricValue", "operator": "smaller_than", "value": 1.0},
]


@pytest.fixture
def degradable():
    """Gallery whose metadata store can be taken down on command."""
    injector = FaultInjector(seed=5, rate=0.0, armed=False, kinds=(FaultKind.ERROR,))
    metadata = FaultyMetadataStore(SQLiteMetadataStore(":memory:"), injector)
    dal = DataAccessLayer(metadata, InMemoryBlobStore(), LRUBlobCache(1 << 20))
    gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(9))
    gallery.create_model("p", "demand")
    instance = gallery.upload_model("p", "demand", b"w", metadata={"model_name": "rf"})
    gallery.insert_metric(instance.instance_id, "bias", 0.05)
    # Warm the document cache with a live query, then cut the store's cord.
    assert [i.instance_id for i in gallery.model_query(NAME_CONSTRAINT)] == [
        instance.instance_id
    ]
    injector.rate = 1.0
    injector.arm()
    return gallery, instance, injector


class TestDegradedQueries:
    def test_store_outage_serves_stale_results_from_cache(self, degradable):
        gallery, instance, _ = degradable
        hits = gallery.model_query(NAME_CONSTRAINT)
        assert [i.instance_id for i in hits] == [instance.instance_id]
        assert hits[0].metadata["stale"] is True
        assert gallery.stale_query_count == 1
        assert gallery.document_cache_stats()["stale_queries"] == 1

    def test_live_results_are_never_marked_stale(self, degradable):
        gallery, _, injector = degradable
        injector.disarm()
        hits = gallery.model_query(NAME_CONSTRAINT)
        assert "stale" not in hits[0].metadata
        assert gallery.stale_query_count == 0

    def test_allow_stale_false_reraises(self, degradable):
        gallery, _, _ = degradable
        with pytest.raises(MetadataStoreError):
            gallery.model_query(NAME_CONSTRAINT, allow_stale=False)

    def test_metric_constraints_cannot_degrade(self, degradable):
        # Metric values are not cached; a silently wrong champion would be
        # worse than an error, so these queries re-raise.
        gallery, _, _ = degradable
        with pytest.raises(MetadataStoreError):
            gallery.model_query(METRIC_CONSTRAINTS)
        assert gallery.stale_query_count == 0

    def test_degraded_results_respect_deprecation(self, degradable):
        gallery, instance, injector = degradable
        injector.disarm()
        gallery.deprecate_instance(instance.instance_id)
        gallery.model_query(NAME_CONSTRAINT, include_deprecated=True)  # re-warm
        injector.arm()
        assert gallery.model_query(NAME_CONSTRAINT) == []
        deprecated_hits = gallery.model_query(NAME_CONSTRAINT, include_deprecated=True)
        assert [i.instance_id for i in deprecated_hits] == [instance.instance_id]
