"""The read path issues O(1) store queries, not O(candidates).

``Gallery.model_query`` historically fetched each candidate's metrics (and
parent model) one query at a time — the classic N+1 pattern.  These tests
wrap the metadata store in a call-counting proxy and pin the rewritten
contract: one batched metric-values query per search (and no metric record
decoded for it), one batched model fetch per cold document batch, and zero
per-candidate lookups — on one file and on the 4-shard store the benchmark
serves from.
"""

from __future__ import annotations

import random

import pytest

from repro.core.clock import ManualClock
from repro.core.ids import SeededIdFactory
from repro.core.records import MetricRecord
from repro.core.registry import Gallery
from repro.store.blob import InMemoryBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import MetadataStore

pytestmark = pytest.mark.parametrize(
    "metadata_store", ["memory", "sqlite", "sharded"], indirect=True
)


class CountingStore(MetadataStore):
    """Transparent proxy that counts calls per MetadataStore method and
    keeps each method's latest result."""

    def __init__(self, inner: MetadataStore) -> None:
        self._inner = inner
        self.calls: dict[str, int] = {}
        self.returned: dict[str, object] = {}

    def _forward(self, method_name, /, *args, **kwargs):
        self.calls[method_name] = self.calls.get(method_name, 0) + 1
        result = getattr(self._inner, method_name)(*args, **kwargs)
        self.returned[method_name] = result
        return result

    def reset(self) -> None:
        self.calls.clear()
        self.returned.clear()

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)


def _make_forwarder(name):
    def method(self, *args, **kwargs):
        return self._forward(name, *args, **kwargs)

    method.__name__ = name
    return method


for _name in MetadataStore.__abstractmethods__:
    setattr(CountingStore, _name, _make_forwarder(_name))
CountingStore.__abstractmethods__ = frozenset()


N_CANDIDATES = 40


def _counted_gallery(metadata_store):
    store = CountingStore(metadata_store)
    dal = DataAccessLayer(store, InMemoryBlobStore(), LRUBlobCache(1 << 20))
    gallery = Gallery(
        dal, clock=ManualClock(), id_factory=SeededIdFactory(7)
    )
    gallery.create_model("p", "demand")
    return gallery, store


@pytest.fixture
def counted(metadata_store):
    """A Gallery over a counting proxy, populated with many candidates."""
    gallery, store = _counted_gallery(metadata_store)
    for index in range(N_CANDIDATES):
        instance = gallery.upload_model(
            "p",
            "demand",
            blob=b"m",
            metadata={"model_name": "rf", "city": "sf"},
        )
        gallery.insert_metrics(
            instance.instance_id, {"mape": index / 100, "bias": 0.01}
        )
    store.reset()
    return gallery, store


CITY_QUERY = [
    {"field": "city", "operator": "equal", "value": "sf"},
    {"field": "metricName", "operator": "equal", "value": "mape"},
    {"field": "metricValue", "operator": "smaller_than", "value": 0.2},
]


class TestModelQueryIsBatched:
    def test_metric_queries_are_constant_not_per_candidate(self, counted):
        gallery, store = counted
        hits = gallery.model_query(CITY_QUERY)
        assert len(hits) == 20
        assert store.count("metrics_of_instance") == 0, "N+1 metric reads are back"
        assert store.count("metric_values_for_instances") == 1
        assert store.count("metrics_for_instances") == 0
        # candidate narrowing is one indexed lookup, not a full scan
        assert store.count("find_instances_by_field") == 1
        assert store.count("iter_instances") == 0

    def test_model_fetches_batched_then_cached(self, counted):
        gallery, store = counted
        gallery.model_query(CITY_QUERY)
        assert store.count("get_model") == 0, "per-candidate model reads are back"
        assert store.count("get_models") == 1
        store.reset()
        # warm document cache: the second query re-fetches no models at all
        gallery.model_query(CITY_QUERY)
        assert store.count("get_models") == 0
        assert store.count("metric_values_for_instances") == 1
        assert store.count("metrics_for_instances") == 0

    def test_document_only_query_touches_no_metric_tables(self, counted):
        gallery, store = counted
        hits = gallery.model_query(
            [{"field": "city", "operator": "equal", "value": "sf"}]
        )
        assert len(hits) == N_CANDIDATES
        assert store.count("metric_values_for_instances") == 0
        assert store.count("metrics_for_instances") == 0
        assert store.count("metrics_of_instance") == 0

    def test_metric_query_builds_no_metric_records(self, counted, monkeypatch):
        gallery, _store = counted
        built = []
        from_dict = MetricRecord.from_dict
        monkeypatch.setattr(
            MetricRecord,
            "from_dict",
            classmethod(lambda cls, data: built.append(data) or from_dict(data)),
        )
        hits = gallery.model_query(CITY_QUERY)
        assert len(hits) == 20
        assert built == [], "the metric matcher decoded whole records"


def _seed_scored_family(gallery, family, size):
    """*size* members of *family*: most report ``mape`` more than once and
    in two scopes, every fifth never reports it, and a few are disabled."""
    values = random.Random(size)
    for index in range(size):
        instance = gallery.upload_model("p", "demand", blob=b"f", family=family)
        iid = instance.instance_id
        gallery.insert_metric(iid, "bias", values.random())
        if index % 5:
            gallery.insert_metric(iid, "mape", values.random(), scope="Production")
            gallery.insert_metric(iid, "mape", values.random())
        if index % 3 == 1:
            gallery.insert_metric(iid, "mape", values.random())
        if index % 7 == 3:
            gallery.disable_instance(iid)


def _reference_pick(gallery, family, mode, scope=None):
    """``best_in_family`` as one ``latest_metric`` read per candidate."""
    candidates = gallery.instances_in_family(family)
    scored = [
        (i, gallery.latest_metric(i.instance_id, "mape", scope=scope))
        for i in candidates
    ]
    measured = [(i, v) for i, v in scored if v is not None]
    if not measured:
        return candidates[-1].instance_id
    pick = min if mode == "min" else max
    return pick(measured, key=lambda pair: pair[1])[0].instance_id


class TestFamilySwitchIsBatched:
    def test_switch_reads_metrics_once_whatever_the_family_size(
        self, metadata_store
    ):
        gallery, store = _counted_gallery(metadata_store)
        calls = {}
        for size in (5, 40):
            family = f"fam-{size}"
            _seed_scored_family(gallery, family, size)
            for mode in ("min", "max"):
                expected = _reference_pick(gallery, family, mode)
                store.reset()
                assignment = gallery.switch_family(
                    f"scope-{size}-{mode}", family, metric="mape", mode=mode
                )
                calls[size, mode] = dict(store.calls)
                assert assignment.instance_id == expected
                for scope in ("Production", "Training"):
                    best = gallery.best_in_family(family, "mape", mode, scope=scope)
                    assert best.instance_id == _reference_pick(
                        gallery, family, mode, scope=scope
                    )
        assert calls[5, "min"] == calls[40, "min"] == calls[5, "max"]
        assert calls[5, "max"] == calls[40, "max"]
        assert calls[40, "min"]["metrics_for_instances"] == 1
        assert "metrics_of_instance" not in calls[40, "min"]


def _eq(field, value):
    return {"field": field, "operator": "equal", "value": value}


@pytest.fixture
def zoned(metadata_store):
    """Every instance carries an unindexed ``zone``, three per zone."""
    gallery, store = _counted_gallery(metadata_store)
    for index in range(12):
        gallery.upload_model(
            "p", "demand", blob=b"z", metadata={"city": "sf", "zone": f"z{index % 4}"}
        )
    store.reset()
    return gallery, store


class TestEqualitiesNarrowInSql:
    """Each equality narrows the one candidate read, so rows read = results."""

    def test_base_version_and_zone_read_only_matching_rows(self, zoned):
        gallery, store = zoned
        hits = gallery.model_query([_eq("base_version_id", "demand"), _eq("zone", "z1")])
        assert len(hits) == 3
        assert store.count("find_instances_by_field") == 1
        assert len(store.returned["find_instances_by_field"]) == len(hits)

    def test_unindexed_only_query_never_parses_the_table(self, zoned):
        gallery, store = zoned
        hits = gallery.model_query([_eq("zone", "z2")])
        assert len(hits) == 3
        assert store.count("iter_instances") == 0
        assert store.count("find_instances_by_field") == 1
        assert len(store.returned["find_instances_by_field"]) == len(hits)


class TestDocumentCacheInvalidation:
    def test_deprecate_instance_invalidates_document(self, counted):
        gallery, store = counted
        hits = gallery.model_query(CITY_QUERY)
        victim = hits[0].instance_id
        gallery.deprecate_instance(victim)
        remaining = gallery.model_query(CITY_QUERY)
        assert victim not in {i.instance_id for i in remaining}
        # but it resurfaces when deprecated instances are included
        included = gallery.model_query(CITY_QUERY, include_deprecated=True)
        doc_hit = next(i for i in included if i.instance_id == victim)
        assert doc_hit.deprecated

    def test_model_change_invalidates_member_documents(self, counted):
        gallery, store = counted
        gallery.model_query(CITY_QUERY)  # warm the cache
        model = gallery.find_model("p", "demand")
        gallery.deprecate_model(model.model_id)
        store.reset()
        gallery.model_query(CITY_QUERY)
        # every cached document was dropped, so models are re-fetched once
        assert store.count("get_models") == 1

    def test_rule_candidates_see_fresh_metrics(self, counted):
        gallery, store = counted
        docs = gallery.candidate_documents("production")
        assert len(docs) == N_CANDIDATES
        # batched: one metrics query for the whole candidate pool
        assert store.count("metrics_for_instances") == 1
        assert store.count("metrics_of_instance") == 0
        target = docs[0].instance_id
        gallery.insert_metric(target, "fresh", 1.23, scope="Production")
        updated = gallery.candidate_documents("production", instance_id=target)
        assert updated[0].document["metrics"]["fresh"] == 1.23


class TestEnablementCacheInvalidation:
    """PR9 regression: enable/disable/assign_serving must drop the cached
    search document exactly the way deprecate/evolve do — a stale document
    would keep reporting the pre-flip ``enabled`` to queries and rules."""

    def test_disable_refreshes_cached_document(self, counted):
        gallery, store = counted
        victim = gallery.model_query(CITY_QUERY)[0].instance_id
        gallery.disable_instance(victim)
        refreshed = next(
            i for i in gallery.model_query(CITY_QUERY) if i.instance_id == victim
        )
        assert refreshed.enabled is False, "query served a stale cached document"
        gallery.enable_instance(victim)
        refreshed = next(
            i for i in gallery.model_query(CITY_QUERY) if i.instance_id == victim
        )
        assert refreshed.enabled is True

    def test_enablement_flip_rebuilds_exactly_one_document(self, counted):
        gallery, store = counted
        gallery.model_query(CITY_QUERY)  # warm the cache
        victim = gallery.model_query(CITY_QUERY)[0].instance_id
        store.reset()
        gallery.model_query(CITY_QUERY)
        assert store.count("get_models") == 0, "cache was already warm"
        gallery.disable_instance(victim)
        store.reset()
        gallery.model_query(CITY_QUERY)
        # only the flipped instance's document was dropped and rebuilt
        assert store.count("get_models") == 1

    def test_noop_flip_invalidates_nothing(self, counted):
        gallery, _store = counted
        gallery.model_query(CITY_QUERY)
        victim = gallery.model_query(CITY_QUERY)[0].instance_id
        before = gallery.document_cache_stats()["invalidations"]
        gallery.enable_instance(victim)  # already enabled
        assert gallery.document_cache_stats()["invalidations"] == before

    def test_assign_serving_invalidates_target_document(self, counted):
        gallery, store = counted
        gallery.model_query(CITY_QUERY)  # warm the cache
        victim = gallery.model_query(CITY_QUERY)[0].instance_id
        before = gallery.document_cache_stats()["invalidations"]
        gallery.assign_serving("sf", victim, reason="cutover")
        assert gallery.document_cache_stats()["invalidations"] == before + 1
        store.reset()
        gallery.model_query(CITY_QUERY)
        assert store.count("get_models") == 1, "assignment target must rebuild"
