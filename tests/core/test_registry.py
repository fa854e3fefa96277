"""Tests for the Gallery registry facade, on both metadata configurations."""

import pytest

from repro.core.clock import ManualClock
from repro.core.lifecycle import LifecycleStage
from repro.core.records import MetricScope
from repro.core.registry import Gallery
from repro.errors import (
    DeprecatedModelError,
    NotFoundError,
    ValidationError,
)
from repro.rules.events import EventKind

pytestmark = pytest.mark.parametrize(
    "metadata_store", ["memory", "sqlite"], indirect=True
)


def register_example(gallery, base="supply_rejection", project="example-project"):
    gallery.create_model(project, base, owner="chong")
    return gallery.upload_model(
        project,
        base,
        blob=b"model-bytes",
        metadata={
            "model_name": "random_forest",
            "model_type": "SparkML",
            "model_domain": "UberX",
            "city": "New York City",
        },
    )


class TestModelManagement:
    def test_create_and_find(self, gallery):
        model = gallery.create_model("p", "demand", owner="o", description="d")
        assert gallery.find_model("p", "demand").model_id == model.model_id
        assert gallery.get_model(model.model_id).owner == "o"

    def test_duplicate_base_version_rejected(self, gallery):
        gallery.create_model("p", "demand")
        with pytest.raises(ValidationError):
            gallery.create_model("p", "demand")

    def test_same_base_in_different_projects_ok(self, gallery):
        gallery.create_model("p1", "demand")
        gallery.create_model("p2", "demand")
        assert gallery.find_model("p1", "demand").model_id != gallery.find_model(
            "p2", "demand"
        ).model_id

    def test_model_creation_publishes_event(self, gallery):
        gallery.create_model("p", "demand")
        kinds = [e.kind for e in gallery.bus.history()]
        assert EventKind.MODEL_CREATED in kinds

    def test_evolution_links_and_major_bump(self, gallery):
        old = gallery.create_model("p", "demand")
        new = gallery.evolve_model(old.model_id, description="neural rewrite")
        assert gallery.get_model(old.model_id).next_model_id == new.model_id
        assert new.previous_model_id == old.model_id
        # the (project, base) coordinate now resolves to the successor
        assert gallery.find_model("p", "demand").model_id == new.model_id

    def test_each_evolution_bumps_the_major_version(self, gallery):
        first = gallery.create_model("p", "demand")
        gallery.upload_model("p", "demand", blob=b"v1")  # 1.1
        second = gallery.evolve_model(first.model_id)
        assert str(gallery.latest_version(second.model_id)) == "2.0"
        third = gallery.evolve_model(second.model_id)
        assert str(gallery.latest_version(third.model_id)) == "3.0"
        assert gallery.upload_model("p", "demand", blob=b"v3").instance_version == "3.1"

    def test_evolving_twice_rejected(self, gallery):
        old = gallery.create_model("p", "demand")
        gallery.evolve_model(old.model_id)
        with pytest.raises(ValidationError):
            gallery.evolve_model(old.model_id)


class TestInstanceUpload:
    def test_upload_returns_stored_instance(self, gallery):
        instance = register_example(gallery)
        assert instance.blob_location
        assert gallery.load_instance_blob(instance.instance_id) == b"model-bytes"

    def test_upload_requires_registered_model(self, gallery):
        with pytest.raises(NotFoundError):
            gallery.upload_model("p", "ghost", blob=b"x")

    def test_upload_records_lineage(self, gallery):
        first = register_example(gallery)
        second = gallery.upload_model(
            "example-project",
            "supply_rejection",
            blob=b"v2",
            parent_instance_id=first.instance_id,
        )
        chain = gallery.instances_of("supply_rejection", include_deprecated=True)
        assert [e.instance_id for e in chain] == [
            first.instance_id,
            second.instance_id,
        ]
        assert gallery.ancestors(second.instance_id) == [first.instance_id]

    def test_instance_versions_advance(self, gallery):
        first = register_example(gallery)
        second = gallery.upload_model(
            "example-project", "supply_rejection", blob=b"v2"
        )
        assert first.instance_version == "1.1"
        assert second.instance_version == "1.2"

    def test_upload_enters_lifecycle(self, gallery):
        instance = register_example(gallery)
        assert gallery.stage_of(instance.instance_id) is LifecycleStage.EVALUATION

    def test_upload_to_deprecated_model_rejected(self, gallery):
        instance = register_example(gallery)
        gallery.deprecate_model(instance.model_id)
        with pytest.raises(DeprecatedModelError):
            gallery.upload_model("example-project", "supply_rejection", blob=b"v2")

    def test_latest_instance(self, gallery):
        register_example(gallery)
        second = gallery.upload_model(
            "example-project", "supply_rejection", blob=b"v2"
        )
        assert gallery.latest_instance("supply_rejection").instance_id == second.instance_id


class TestMetrics:
    def test_insert_and_fetch(self, gallery):
        instance = register_example(gallery)
        gallery.insert_metric(instance.instance_id, "bias", 0.05, scope="Validation")
        metrics = gallery.metrics_of(instance.instance_id)
        assert len(metrics) == 1
        assert metrics[0].name == "bias"
        assert metrics[0].scope is MetricScope.VALIDATION

    def test_metric_requires_existing_instance(self, gallery):
        with pytest.raises(NotFoundError):
            gallery.insert_metric("ghost", "bias", 0.05)

    def test_metric_blob_shares_batch_id(self, gallery):
        instance = register_example(gallery)
        records = gallery.insert_metrics(
            instance.instance_id, {"mape": 0.08, "bias": 0.01}
        )
        batch_ids = {r.metadata["batch_id"] for r in records}
        assert len(batch_ids) == 1

    def test_nan_metric_is_a_validation_error_and_writes_nothing(self, gallery):
        # Refused before the store: there, SQLite binds NaN as NULL and the
        # NOT NULL value column raises an IntegrityError (a DuplicateError).
        instance = register_example(gallery)
        with pytest.raises(ValidationError, match="NaN"):
            gallery.insert_metrics(
                instance.instance_id, {"bias": 0.01, "mape": float("nan")}
            )
        with pytest.raises(ValidationError, match="NaN"):
            gallery.insert_metric(instance.instance_id, "mape", float("nan"))
        assert gallery.metrics_of(instance.instance_id) == []
        gallery.insert_metric(instance.instance_id, "mape", float("inf"))
        assert [m.value for m in gallery.metrics_of(instance.instance_id)] == [
            float("inf")
        ]

    def test_metric_publishes_event(self, gallery):
        instance = register_example(gallery)
        gallery.insert_metric(instance.instance_id, "bias", 0.05)
        events = [e for e in gallery.bus.history() if e.kind is EventKind.METRIC_UPDATED]
        assert events and events[-1].metric_name == "bias"


class TestSearch:
    def test_listing5_query_shape(self, gallery):
        instance = register_example(gallery)
        gallery.insert_metric(instance.instance_id, "bias", 0.05)
        hits = gallery.model_query(
            [
                {"field": "projectName", "operator": "equal", "value": "example-project"},
                {"field": "modelName", "operator": "equal", "value": "random_forest"},
                {"field": "metricName", "operator": "equal", "value": "bias"},
                {"field": "metricValue", "operator": "smaller_than", "value": 0.25},
            ]
        )
        assert [h.instance_id for h in hits] == [instance.instance_id]

    def test_metric_threshold_excludes(self, gallery):
        instance = register_example(gallery)
        gallery.insert_metric(instance.instance_id, "bias", 0.5)
        hits = gallery.model_query(
            [
                {"field": "metricName", "operator": "equal", "value": "bias"},
                {"field": "metricValue", "operator": "smaller_than", "value": 0.25},
            ]
        )
        assert hits == []

    def test_search_by_city_uses_index(self, gallery):
        register_example(gallery)
        hits = gallery.model_query(
            [{"field": "city", "operator": "equal", "value": "New York City"}]
        )
        assert len(hits) == 1
        assert gallery.model_query(
            [{"field": "city", "operator": "equal", "value": "Gotham"}]
        ) == []

    def test_deprecated_excluded_by_default(self, gallery):
        instance = register_example(gallery)
        gallery.deprecate_instance(instance.instance_id)
        constraint = [{"field": "modelName", "operator": "equal", "value": "random_forest"}]
        assert gallery.model_query(constraint) == []
        assert len(gallery.model_query(constraint, include_deprecated=True)) == 1


class TestDeprecation:
    def test_instance_deprecation_is_a_flag_not_a_delete(self, gallery):
        instance = register_example(gallery)
        gallery.deprecate_instance(instance.instance_id)
        fetched = gallery.get_instance(instance.instance_id)
        assert fetched.deprecated
        # blob still fetchable for consumers mid-migration (Section 3.7)
        assert gallery.load_instance_blob(instance.instance_id) == b"model-bytes"

    def test_deprecation_idempotent(self, gallery):
        instance = register_example(gallery)
        gallery.deprecate_instance(instance.instance_id)
        gallery.deprecate_instance(instance.instance_id)
        assert gallery.get_instance(instance.instance_id).deprecated

    def test_deprecation_moves_lifecycle(self, gallery):
        instance = register_example(gallery)
        gallery.deprecate_instance(instance.instance_id)
        assert gallery.stage_of(instance.instance_id) is LifecycleStage.DEPRECATED

    def test_instances_of_skips_deprecated(self, gallery):
        first = register_example(gallery)
        second = gallery.upload_model("example-project", "supply_rejection", blob=b"v2")
        gallery.deprecate_instance(first.instance_id)
        live = gallery.instances_of("supply_rejection")
        assert [i.instance_id for i in live] == [second.instance_id]


class TestDependenciesViaRegistry:
    def test_add_dependency_mirrors_pointers(self, gallery):
        a = gallery.create_model("p", "a")
        b = gallery.create_model("p", "b")
        gallery.add_dependency(a.model_id, b.model_id)
        assert b.model_id in gallery.get_model(a.model_id).upstream_model_ids
        assert a.model_id in gallery.get_model(b.model_id).downstream_model_ids

    def test_registration_time_wiring_no_bump(self, gallery):
        b = gallery.create_model("p", "b")
        a = gallery.create_model("p", "a", upstream_model_ids=[b.model_id])
        assert str(gallery.latest_version(a.model_id)) == "1.0"
        assert gallery.upstream(a.model_id) == {b.model_id}

    def test_evolution_keeps_upstream_pointers_and_propagation(self, gallery):
        b = gallery.create_model("p", "b")
        a = gallery.create_model("p", "a", upstream_model_ids=[b.model_id])
        successor = gallery.evolve_model(a.model_id)
        assert successor.upstream_model_ids == (b.model_id,)
        assert successor.model_id in gallery.get_model(b.model_id).downstream_model_ids
        assert gallery.downstream(b.model_id) == {a.model_id, successor.model_id}
        gallery.upload_model("p", "b", blob=b"x")
        assert str(gallery.latest_version(successor.model_id)) == "2.1"

    def test_upload_propagates_to_downstream(self, gallery):
        b = gallery.create_model("p", "b")
        a = gallery.create_model("p", "a", upstream_model_ids=[b.model_id])
        gallery.upload_model("p", "b", blob=b"x")
        assert str(gallery.latest_version(a.model_id)) == "1.1"


class TestCandidateDocuments:
    def test_documents_include_metrics_map(self, gallery):
        instance = register_example(gallery)
        gallery.insert_metric(instance.instance_id, "mape", 0.07)
        docs = gallery.candidate_documents("production")
        assert len(docs) == 1
        assert docs[0].document["metrics"]["mape"] == 0.07
        assert docs[0].document["city"] == "New York City"

    def test_scope_preference(self, gallery):
        instance = register_example(gallery)
        gallery.insert_metric(instance.instance_id, "mape", 0.05, scope="Validation")
        gallery.insert_metric(instance.instance_id, "mape", 0.20, scope="Production")
        production = gallery.candidate_documents("production")[0]
        assert production.document["metrics"]["mape"] == 0.20
        validation = gallery.candidate_documents("validation")[0]
        assert validation.document["metrics"]["mape"] == 0.05

    def test_fallback_to_any_scope(self, gallery):
        instance = register_example(gallery)
        gallery.insert_metric(instance.instance_id, "bias", 0.01, scope="Validation")
        docs = gallery.candidate_documents("production")
        assert docs[0].document["metrics"]["bias"] == 0.01

    def test_same_instant_ties_follow_latest_metric(self, dal, id_factory):
        # A frozen clock stamps every metric with one instant, so only the
        # metric_id tie-break decides which value is "latest".  Rule
        # documents must pick the same one latest_metric does, in the
        # preferred scope and in the any-scope fallback alike.
        gallery = Gallery(dal, clock=ManualClock(tick=0.0), id_factory=id_factory)
        instances = [register_example(gallery, base=f"b{i}") for i in range(6)]
        for instance in instances:
            for value in (0.3, 0.1, 0.2):
                gallery.insert_metric(instance.instance_id, "mape", value)
        for environment, scope in (("validation", "Validation"), ("production", None)):
            docs = {
                d.instance_id: d.document["metrics"]["mape"]
                for d in gallery.candidate_documents(environment)
            }
            assert docs == {
                i.instance_id: gallery.latest_metric(i.instance_id, "mape", scope=scope)
                for i in instances
            }

    def test_deprecated_excluded(self, gallery):
        instance = register_example(gallery)
        gallery.deprecate_instance(instance.instance_id)
        assert gallery.candidate_documents("production") == []

    def test_single_instance_scope(self, gallery):
        first = register_example(gallery)
        gallery.upload_model("example-project", "supply_rejection", blob=b"v2")
        docs = gallery.candidate_documents("production", instance_id=first.instance_id)
        assert [d.instance_id for d in docs] == [first.instance_id]
        assert gallery.candidate_documents("production", instance_id="ghost") == []


class TestHealthIntegration:
    def test_instance_health_reads_registry_state(self, gallery):
        instance = register_example(gallery)
        report = gallery.instance_health(instance.instance_id)
        assert not report.healthy  # no reproducibility metadata, no metrics
        assert report.instance_id == instance.instance_id
