"""Tests for the service + client against a real registry (Listings 3-5)."""

import pytest

from repro import build_gallery
from repro.core.clock import ManualClock
from repro.core.ids import SeededIdFactory
from repro.core.registry import Gallery
from repro.errors import MetadataStoreError, NotFoundError, ValidationError
from repro.reliability import FaultInjector, FaultyMetadataStore
from repro.rules.engine import RuleEngine
from repro.rules.rule import action_rule, selection_rule
from repro.service import wire
from repro.service.client import connect_in_process
from repro.service.server import GalleryService
from repro.service.wire import Request
from repro.store.blob import InMemoryBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore


@pytest.fixture
def stack():
    dal = DataAccessLayer(SQLiteMetadataStore(":memory:"), InMemoryBlobStore(), LRUBlobCache(1 << 20))
    gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(1))
    engine = RuleEngine(gallery, clock=ManualClock(), bus=gallery.bus)
    service = GalleryService(gallery, engine)
    client = connect_in_process(service)
    return gallery, engine, service, client


class TestListingWorkflows:
    def test_listing3_create_and_upload(self, stack):
        _, _, _, client = stack
        model = client.create_gallery_model("example-project", "supply_rejection")
        instance = client.upload_model(
            "example-project",
            "supply_rejection",
            b"serialized-model",
            metadata={"model_name": "Random Forest", "city": "New York City",
                      "model_type": "SparkML"},
        )
        assert instance["model_id"] == model["model_id"]
        assert client.load_model_blob(instance["instance_id"]) == b"serialized-model"

    def test_listing4_metric_upload(self, stack):
        _, _, _, client = stack
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"blob")
        metric = client.insert_model_instance_metric(
            instance["instance_id"], "bias", 0.05, scope="Validation"
        )
        assert metric["name"] == "bias" and metric["scope"] == "Validation"

    def test_listing5_model_query(self, stack):
        _, _, _, client = stack
        client.create_gallery_model("example-project", "supply_rejection")
        instance = client.upload_model(
            "example-project",
            "supply_rejection",
            b"blob",
            metadata={"model_name": "random_forest"},
        )
        client.insert_model_instance_metric(instance["instance_id"], "bias", 0.05)
        hits = client.model_query(
            [
                {"field": "projectName", "operator": "equal", "value": "example-project"},
                {"field": "modelName", "operator": "equal", "value": "random_forest"},
                {"field": "metricName", "operator": "equal", "value": "bias"},
                {"field": "metricValue", "operator": "smaller_than", "value": 0.25},
            ]
        )
        assert [h["instance_id"] for h in hits] == [instance["instance_id"]]


class TestHostileQueryKeys:
    """A key that is not an identifier never reaches SQL: it is matched in
    Python like any other key, and the query is never served stale."""

    @pytest.mark.parametrize("key", ['a"b', "$.x[0]", "x') OR 1=1 --", "x[", "x[0]"])
    def test_hostile_key_answers_like_any_key(self, stack, key):
        gallery, _, _, client = stack
        client.create_gallery_model("p", "demand")
        hit = client.upload_model("p", "demand", b"a", metadata={key: "v", "city": "sf"})
        client.upload_model("p", "demand", b"b", metadata={key: "w", "city": "sf"})
        client.upload_model("p", "demand", b"c", metadata={"city": "sf"})

        def eq(field, value):
            return {"field": field, "operator": "equal", "value": value}

        for constraints in (
            [eq(key, "v")],
            [eq("city", "sf"), eq(key, "v")],
            [eq("base_version_id", "demand"), eq(key, "v")],
        ):
            hits = client.model_query(constraints)
            assert [h["instance_id"] for h in hits] == [hit["instance_id"]]
        assert gallery.stale_query_count == 0


class TestServiceSurface:
    def test_dependency_methods(self, stack):
        _, _, _, client = stack
        a = client.create_gallery_model("p", "a")
        b = client.create_gallery_model("p", "b")
        events = client.add_dependency(a["model_id"], b["model_id"])
        assert any(e["model_id"] == a["model_id"] for e in events)
        assert client.upstream_of(a["model_id"]) == [b["model_id"]]
        assert client.downstream_of(b["model_id"]) == [a["model_id"]]

    def test_deprecation_methods(self, stack):
        _, _, _, client = stack
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"blob")
        flagged = client.deprecate_instance(instance["instance_id"])
        assert flagged["deprecated"] is True

    def test_instances_of_and_latest(self, stack):
        _, _, _, client = stack
        client.create_gallery_model("p", "demand")
        client.upload_model("p", "demand", b"v1")
        second = client.upload_model("p", "demand", b"v2")
        assert client.latest_instance("demand")["instance_id"] == second["instance_id"]
        assert len(client.instances_of("demand")) == 2

    def test_metric_blob_batch(self, stack):
        _, _, _, client = stack
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"v1")
        records = client.insert_model_instance_metrics(
            instance["instance_id"], {"mape": 0.08, "bias": 0.01}
        )
        assert len(records) == 2
        assert len(client.metrics_of(instance["instance_id"])) == 2

    def test_instance_health(self, stack):
        _, _, _, client = stack
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"v1")
        health = client.instance_health(instance["instance_id"])
        assert health["healthy"] is False
        assert health["completeness_score"] == 0.0

    def test_select_model_via_wire(self, stack):
        _, _, _, client = stack
        client.create_gallery_model("p", "demand")
        instance = client.upload_model(
            "p", "demand", b"v1", metadata={"city": "sf"}
        )
        client.insert_model_instance_metric(instance["instance_id"], "mape", 0.1)
        rule = selection_rule(
            "sel", "t", 'city == "sf"', "metrics.mape < 0.5",
            "a.created_time > b.created_time",
        )
        result = client.select_model(rule.to_dict())
        assert result["instance_id"] == instance["instance_id"]

    def test_trigger_rule_via_wire(self, stack):
        gallery, engine, _, client = stack
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"v1", metadata={"city": "sf"})
        client.insert_model_instance_metric(instance["instance_id"], "mape", 0.1)
        engine.register(
            action_rule("act", "t", 'city == "sf"', "metrics.mape < 0.5", ["deploy"])
        )
        fired = client.trigger_rule("act")
        assert fired == 1
        assert len(engine.actions.sent("deploy")) == 1


class TestErrorHandling:
    def test_not_found_crosses_the_wire(self, stack):
        _, _, _, client = stack
        with pytest.raises(NotFoundError):
            client.get_model("ghost")

    def test_unknown_method(self, stack):
        from repro.errors import UnknownMethodError

        _, _, _, client = stack
        with pytest.raises(UnknownMethodError):
            client.call("launchRockets")

    def test_bad_parameters_become_validation_error(self, stack):
        _, _, _, client = stack
        with pytest.raises(ValidationError):
            client.call("getModel", wrong_param="x")

    def test_duplicate_model_error_crosses_wire(self, stack):
        _, _, _, client = stack
        client.create_gallery_model("p", "demand")
        with pytest.raises(ValidationError):
            client.create_gallery_model("p", "demand")

    def test_malformed_frame_gets_error_response(self, stack):
        _, _, service, _ = stack
        response = wire.decode_response(service.handle_frame(b"garbage"))
        assert not response.ok

    def test_engine_required_for_rule_methods(self):
        dal = DataAccessLayer(SQLiteMetadataStore(":memory:"), InMemoryBlobStore(), None)
        gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(2))
        client = connect_in_process(GalleryService(gallery, engine=None))
        with pytest.raises(ValidationError):
            client.trigger_rule("x")

    def test_methods_listing(self, stack):
        _, _, service, _ = stack
        methods = service.methods()
        for expected in ("createGalleryModel", "uploadModel", "modelQuery",
                         "insertModelInstanceMetric", "loadModelBlob"):
            assert expected in methods

    def test_dispatch_request_ids_echoed(self, stack):
        _, _, service, _ = stack
        response = service.dispatch(Request(method="getModel", params={"model_id": "x"}, request_id=42))
        assert response.request_id == 42


def upload_frame(request_id=7, client_id="replayer"):
    return wire.encode_request(
        Request(
            method="uploadModel",
            params={"project": "p", "base_version_id": "demand", "blob": b"w"},
            request_id=request_id,
            client_id=client_id,
        )
    )


class TestRequestDedup:
    def test_services_over_one_gallery_share_request_dedup(self):
        gallery = build_gallery()
        first, second = GalleryService(gallery), GalleryService(gallery)
        connect_in_process(first).create_gallery_model("p", "demand")

        original = first.handle_frame(upload_frame())
        replayed = second.handle_frame(upload_frame())

        assert wire.decode_response(original).ok
        assert replayed == original
        assert len(gallery.instances_of("demand")) == 1

    def test_store_down_at_claim_stays_retryable(self):
        injector = FaultInjector(rate=0.0)
        metadata = FaultyMetadataStore(SQLiteMetadataStore(":memory:"), injector)
        dal = DataAccessLayer(metadata, InMemoryBlobStore(), LRUBlobCache(1 << 20))
        gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(1))
        service = GalleryService(gallery)
        connect_in_process(service).create_gallery_model("p", "demand")

        injector.inject_next("dedup_claim")
        refused = wire.decode_response(service.handle_frame(upload_frame()))
        assert not refused.ok
        assert refused.error_type == MetadataStoreError.__name__
        assert gallery.instances_of("demand") == []

        retried = wire.decode_response(service.handle_frame(upload_frame()))
        assert retried.ok
        assert len(gallery.instances_of("demand")) == 1


class TestExtendedSurface:
    def test_metric_history_over_wire(self, stack):
        _, _, _, client = stack
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"v1")
        iid = instance["instance_id"]
        client.insert_model_instance_metric(iid, "mape", 0.2, scope="Production")
        client.insert_model_instance_metric(iid, "mape", 0.1, scope="Production")
        client.insert_model_instance_metric(iid, "mape", 0.3, scope="Validation")
        history = client.metric_history(iid, "mape", scope="Production")
        assert [record["value"] for record in history] == [0.2, 0.1]
        everything = client.metric_history(iid, "mape")
        assert len(everything) == 3

    def test_lineage_over_wire(self, stack):
        _, _, _, client = stack
        client.create_gallery_model("p", "demand")
        first = client.upload_model("p", "demand", b"v1")
        second = client.upload_model(
            "p", "demand", b"v2", parent_instance_id=first["instance_id"]
        )
        chain = client.lineage_of("demand")
        assert [entry["instance_id"] for entry in chain] == [
            first["instance_id"], second["instance_id"],
        ]
        assert chain[1]["parent_instance_id"] == first["instance_id"]

    def test_audit_and_gc_over_wire(self, stack):
        _, _, _, client = stack
        client.create_gallery_model("p", "demand")
        client.upload_model("p", "demand", b"v1")
        audit = client.audit_storage()
        assert audit["consistent"] is True
        assert audit["summary"]["instances"] == 1
        assert client.collect_orphans() == []
