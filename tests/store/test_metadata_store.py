"""Tests for the relational metadata store, in both of its configurations."""

import dataclasses
import sqlite3

import pytest

from repro.core.lifecycle import LifecycleStage, StageChange
from repro.core.records import MetricRecord, Model, ModelInstance
from repro.errors import (
    DuplicateError,
    MetadataStoreError,
    NotFoundError,
    ValidationError,
)
from repro.store.metadata_store import SQLiteMetadataStore
from repro.store.sharding import open_sharded_store, shard_file

#: ``:memory:`` (one shared connection) and a WAL file (one per thread).
both_configurations = pytest.mark.parametrize(
    "metadata_store", ["memory", "sqlite"], indirect=True
)


def model(mid="m1", **overrides):
    defaults = dict(model_id=mid, project="p", base_version_id="demand")
    defaults.update(overrides)
    return Model(**defaults)


def instance(iid="i1", mid="m1", **overrides):
    defaults = dict(
        instance_id=iid,
        model_id=mid,
        base_version_id="demand",
        created_time=1.0,
        metadata={"model_name": "rf", "city": "sf"},
    )
    defaults.update(overrides)
    return ModelInstance(**defaults)


def metric(mtid="mt1", iid="i1", **overrides):
    defaults = dict(metric_id=mtid, instance_id=iid, name="mape", value=0.1)
    defaults.update(overrides)
    return MetricRecord(**defaults)


@both_configurations
class TestModels:
    def test_insert_get_round_trip(self, metadata_store):
        record = model(metadata={"k": "v"}, upstream_model_ids=("u",))
        metadata_store.insert_model(record)
        assert metadata_store.get_model("m1") == record

    def test_duplicate_insert_rejected(self, metadata_store):
        metadata_store.insert_model(model())
        with pytest.raises(DuplicateError):
            metadata_store.insert_model(model())

    def test_get_missing_raises(self, metadata_store):
        with pytest.raises(NotFoundError):
            metadata_store.get_model("ghost")

    def test_replace_allows_bookkeeping_fields(self, metadata_store):
        metadata_store.insert_model(model())
        stored, changed = metadata_store.update_record(model(), Model.deprecate)
        assert changed and stored.deprecated
        assert metadata_store.get_model("m1").deprecated

    def test_replace_rejects_immutable_field_change(self, metadata_store):
        metadata_store.insert_model(model(owner="alice"))
        with pytest.raises(MetadataStoreError):
            metadata_store.update_record(
                model(), lambda m: dataclasses.replace(m, owner="mallory")
            )
        assert metadata_store.get_model("m1").owner == "alice"

    def test_update_applies_change_to_the_stored_record(self, metadata_store):
        # The caller's copy is stale: the change sees what the store holds.
        metadata_store.insert_model(model())
        metadata_store.update_record(model(), lambda m: m.with_next("m2"))
        stored, changed = metadata_store.update_record(model(), Model.deprecate)
        assert changed
        assert (stored.next_model_id, stored.deprecated) == ("m2", True)
        assert metadata_store.get_model("m1") == stored

    def test_update_that_changes_nothing_reports_no_change(self, metadata_store):
        metadata_store.insert_model(model(deprecated=True))
        stored, changed = metadata_store.update_record(model(), Model.deprecate)
        assert not changed and stored == model(deprecated=True)

    def test_update_cannot_clear_deprecation(self, metadata_store):
        metadata_store.insert_instance(instance(deprecated=True))
        metadata_store.insert_model(model(deprecated=True))
        with pytest.raises(MetadataStoreError):
            metadata_store.update_record(
                model(), lambda m: dataclasses.replace(m, deprecated=False)
            )
        with pytest.raises(MetadataStoreError):
            metadata_store.update_record(
                instance(), lambda i: dataclasses.replace(i, deprecated=False)
            )
        assert metadata_store.get_model("m1").deprecated
        assert metadata_store.get_instance("i1").deprecated

    def test_update_of_a_missing_record_raises(self, metadata_store):
        with pytest.raises(NotFoundError):
            metadata_store.update_record(model("ghost"), Model.deprecate)

    def test_root_insert_refuses_a_taken_coordinate(self, metadata_store):
        metadata_store.insert_model(model())
        with pytest.raises(ValidationError, match="already has base version"):
            metadata_store.insert_model(model("m2"))
        assert [m.model_id for m in metadata_store.models_at("p", "demand")] == ["m1"]

    def test_successor_insert_claims_the_next_pointer_once(self, metadata_store):
        metadata_store.insert_model(model())
        metadata_store.insert_model(model("m2", previous_model_id="m1"))
        assert metadata_store.get_model("m1").next_model_id == "m2"
        assert metadata_store.latest_version("m2").major == 2
        with pytest.raises(ValidationError, match="already has a successor"):
            metadata_store.insert_model(model("m3", previous_model_id="m1"))
        assert metadata_store.get_model("m1").next_model_id == "m2"
        with pytest.raises(NotFoundError):
            metadata_store.get_model("m3")

    def test_iter_models(self, metadata_store):
        metadata_store.insert_model(model("m1"))
        metadata_store.insert_model(model("m2", base_version_id="supply"))
        assert {m.model_id for m in metadata_store.iter_models()} == {"m1", "m2"}


@both_configurations
class TestInstances:
    def test_insert_get_round_trip(self, metadata_store):
        record = instance(blob_location="mem://b/1", instance_version="1.1")
        metadata_store.insert_instance(record)
        assert metadata_store.get_instance("i1") == record

    def test_duplicate_rejected(self, metadata_store):
        metadata_store.insert_instance(instance())
        with pytest.raises(DuplicateError):
            metadata_store.insert_instance(instance())

    def test_instances_of_model_sorted_by_time(self, metadata_store):
        metadata_store.insert_instance(instance("late", created_time=9.0))
        metadata_store.insert_instance(instance("early", created_time=1.0))
        hits = metadata_store.find_instances_by_field("model_id", "m1")
        assert [i.instance_id for i in hits] == ["early", "late"]

    def test_instances_of_base_version(self, metadata_store):
        metadata_store.insert_instance(instance("i1"))
        metadata_store.insert_instance(
            instance("i2", base_version_id="supply")
        )
        hits = metadata_store.find_instances_by_field("base_version_id", "demand")
        assert [i.instance_id for i in hits] == ["i1"]

    def test_indexed_field_lookup(self, metadata_store):
        metadata_store.insert_instance(instance("i1"))
        metadata_store.insert_instance(
            instance("i2", metadata={"model_name": "linear", "city": "nyc"})
        )
        sf = metadata_store.find_instances_by_field("city", "sf")
        assert [i.instance_id for i in sf] == ["i1"]
        rf = metadata_store.find_instances_by_field("model_name", "rf")
        assert [i.instance_id for i in rf] == ["i1"]

    def test_unindexed_field_lookup_falls_back_to_scan(self, metadata_store):
        """An unindexed key narrows in SQL over the whole table, as a
        necessary condition: a row without the key stays a candidate."""
        metadata_store.insert_instance(
            instance("i1", metadata={"custom": "yes", "model_name": "rf"})
        )
        metadata_store.insert_instance(
            instance("i2", created_time=2.0, metadata={"custom": "no"})
        )
        metadata_store.insert_instance(instance("i3", created_time=3.0, metadata={}))
        hits = metadata_store.find_instances_by_field(None, also=[("custom", "yes")])
        assert [i.instance_id for i in hits] == ["i1", "i3"]
        with pytest.raises(ValueError):
            metadata_store.find_instances_by_field("custom", "yes")

    def test_replace_instance_deprecation_only(self, metadata_store):
        record = instance()
        metadata_store.insert_instance(record)
        metadata_store.update_record(record, ModelInstance.deprecate)
        assert metadata_store.get_instance("i1").deprecated
        with pytest.raises(MetadataStoreError):
            metadata_store.update_record(
                record, lambda i: dataclasses.replace(i, blob_location="mem://moved")
            )


@both_configurations
class TestMetrics:
    def test_insert_and_query(self, metadata_store):
        metadata_store.insert_metric(metric())
        metadata_store.insert_metric(metric("mt2", name="bias", value=0.01))
        records = metadata_store.metrics_of_instance("i1")
        assert {m.name for m in records} == {"mape", "bias"}

    def test_duplicate_metric_rejected(self, metadata_store):
        metadata_store.insert_metric(metric())
        with pytest.raises(DuplicateError):
            metadata_store.insert_metric(metric())

    def test_metrics_of_unknown_instance_empty(self, metadata_store):
        assert metadata_store.metrics_of_instance("ghost") == []

    def test_iter_metrics(self, metadata_store):
        metadata_store.insert_metric(metric("mt1"))
        metadata_store.insert_metric(metric("mt2", iid="i2"))
        assert len(list(metadata_store.iter_metrics())) == 2


@both_configurations
class TestLifecycleAppends:
    def test_append_starts_where_the_stored_stages_end(self, metadata_store):
        E, D = LifecycleStage.EVALUATION, LifecycleStage.DEPLOYED
        X = LifecycleStage.DEPRECATED
        append = metadata_store.append_stage_change
        assert append("i1", StageChange(1.0, E, D, "go"))  # unrecorded: EVALUATION
        assert not append("i1", StageChange(2.0, E, X, "stale read"))
        assert not append("i1", StageChange(2.0, None, X, "registered"))
        assert append("i1", StageChange(3.0, D, X, "retire"))
        assert append("i2", StageChange(1.0, None, D, "registered"))
        assert not append("i3", StageChange(1.0, D, X, "no such stage"))
        history = metadata_store.stage_changes_for_instances(["i1", "i2", "i3"])
        assert [(c.from_stage, c.to_stage) for c in history["i1"]] == [(E, D), (D, X)]
        assert [c.to_stage for c in history["i2"]] == [D]
        assert history["i3"] == []


@both_configurations
class TestCounts:
    def test_counts_per_table(self, metadata_store):
        metadata_store.insert_model(model())
        metadata_store.insert_instance(instance())
        metadata_store.insert_metric(metric())
        assert metadata_store.counts() == {"models": 1, "instances": 1, "metrics": 1}


@both_configurations
class TestFamilies:
    def test_family_and_enablement_round_trip(self, metadata_store):
        record = instance(family="sf:rf", enabled=False)
        metadata_store.insert_instance(record)
        stored = metadata_store.get_instance("i1")
        assert stored.family == "sf:rf"
        assert stored.enabled is False

    def test_instances_in_family_sorted_by_creation(self, metadata_store):
        metadata_store.insert_instance(
            instance("late", family="sf:rf", created_time=9.0)
        )
        metadata_store.insert_instance(
            instance("early", family="sf:rf", created_time=1.0)
        )
        metadata_store.insert_instance(instance("other", family="nyc:rf"))
        members = metadata_store.find_instances_by_field("family", "sf:rf")
        assert [i.instance_id for i in members] == ["early", "late"]

    def test_models_in_family(self, metadata_store):
        metadata_store.insert_model(model("m1", family="demand_rf"))
        metadata_store.insert_model(
            model("m2", base_version_id="supply", family="supply_rf")
        )
        assert [m.model_id for m in metadata_store.models_in_family("demand_rf")] == [
            "m1"
        ]
        assert metadata_store.models_in_family("ghost-family") == []

    def test_enablement_is_mutable_family_is_not(self, metadata_store):
        metadata_store.insert_instance(instance(family="sf:rf"))
        stored = metadata_store.get_instance("i1")
        metadata_store.update_record(stored, lambda i: i.with_enablement(False))
        assert metadata_store.get_instance("i1").enabled is False
        with pytest.raises(MetadataStoreError):
            metadata_store.update_record(
                stored, lambda i: dataclasses.replace(i, family="moved:family")
            )


@both_configurations
class TestServingAssignments:
    def test_first_assignment_creates_row(self, metadata_store):
        created, switched = metadata_store.assign_serving(
            "sf", "i1", family="sf:rf", now=5.0, reason="launch"
        )
        assert switched
        assert created.scope == "sf"
        assert created.instance_id == "i1"
        assert created.family == "sf:rf"
        assert created.assigned_time == 5.0
        assert created.previous_instance_id is None
        assert created.switch_count == 1
        assert metadata_store.serving_assignment("sf") == created

    def test_reassignment_links_previous_and_counts(self, metadata_store):
        metadata_store.assign_serving("sf", "i1", now=1.0)
        switched, changed = metadata_store.assign_serving(
            "sf", "i2", family="sf:event", now=2.0, reason="event window"
        )
        assert changed
        assert switched.instance_id == "i2"
        assert switched.previous_instance_id == "i1"
        assert switched.switch_count == 2
        assert switched.reason == "event window"
        assert switched.assigned_time == 2.0

    def test_same_instance_reassign_is_noop(self, metadata_store):
        first, _ = metadata_store.assign_serving("sf", "i1", now=1.0, reason="launch")
        again, switched = metadata_store.assign_serving("sf", "i1", now=9.0, reason="replay")
        assert again == first, "re-pointing at the serving instance must not churn"
        assert not switched
        assert metadata_store.serving_assignment("sf").switch_count == 1

    def test_missing_scope_raises(self, metadata_store):
        with pytest.raises(NotFoundError):
            metadata_store.serving_assignment("ghost")

    def test_listing_ordered_by_scope(self, metadata_store):
        metadata_store.assign_serving("nyc", "i2", now=2.0)
        metadata_store.assign_serving("sf", "i1", now=1.0)
        metadata_store.assign_serving("austin", "i3", now=3.0)
        scopes = [a.scope for a in metadata_store.serving_assignments()]
        assert scopes == ["austin", "nyc", "sf"]
        assert metadata_store.serving_assignment_count() == 3

    def test_counts_shape_unchanged_by_assignments(self, metadata_store):
        # Scale experiments assert the exact counts() dict; serving rows are
        # surfaced via serving_assignment_count() instead.
        metadata_store.assign_serving("sf", "i1", now=1.0)
        assert set(metadata_store.counts()) == {"models", "instances", "metrics"}


@both_configurations
class TestBatchedReads:
    """The batch surfaces the registry's read path is built on."""

    def test_get_models_skips_missing_ids(self, metadata_store):
        metadata_store.insert_model(model("m1"))
        metadata_store.insert_model(model("m2", base_version_id="supply"))
        found = metadata_store.get_models(["m2", "ghost", "m1", "m1"])
        assert set(found) == {"m1", "m2"}
        assert found["m2"].base_version_id == "supply"

    def test_get_models_empty_input(self, metadata_store):
        assert metadata_store.get_models([]) == {}

    def test_instances_for_models_ordered_and_complete(self, metadata_store):
        metadata_store.insert_instance(instance("late", created_time=9.0))
        metadata_store.insert_instance(instance("early", created_time=1.0))
        metadata_store.insert_instance(instance("other", mid="m2"))
        grouped = metadata_store.instances_for_models(["m1", "m2", "ghost"])
        assert [i.instance_id for i in grouped["m1"]] == ["early", "late"]
        assert [i.instance_id for i in grouped["m2"]] == ["other"]
        assert grouped["ghost"] == []

    def test_metrics_for_instances_maps_every_requested_id(self, metadata_store):
        metadata_store.insert_metric(metric("mt1", iid="i1"))
        metadata_store.insert_metric(metric("mt2", iid="i1", name="bias"))
        metadata_store.insert_metric(metric("mt3", iid="i2"))
        grouped = metadata_store.metrics_for_instances(["i1", "i2", "ghost"])
        assert {m.metric_id for m in grouped["i1"]} == {"mt1", "mt2"}
        assert [m.metric_id for m in grouped["i2"]] == ["mt3"]
        assert grouped["ghost"] == []

    def test_metrics_for_instances_name_pushdown(self, metadata_store):
        # The name pushdown serves metric constraints, which read column
        # values rather than records.
        metadata_store.insert_metric(metric("mt1", iid="i1", name="mape"))
        metadata_store.insert_metric(metric("mt2", iid="i1", name="bias"))
        metadata_store.insert_metric(
            metric("mt3", iid="i2", name="mape", value=2, scope="Production")
        )
        grouped = metadata_store.metric_values_for_instances(
            ["i1", "i2", "ghost"], name="mape"
        )
        assert grouped["i1"] == [("mape", 0.1, "Validation")]
        assert grouped["i2"] == [("mape", 2.0, "Production")]
        assert grouped["ghost"] == []
        everything = metadata_store.metric_values_for_instances(["i1"])
        assert sorted(everything["i1"]) == [
            ("bias", 0.1, "Validation"),
            ("mape", 0.1, "Validation"),
        ]

    def test_batch_matches_single_lookups(self, metadata_store):
        for index in range(10):
            metadata_store.insert_metric(
                metric(f"mt{index}", iid=f"i{index % 3}", value=index / 10)
            )
        grouped = metadata_store.metrics_for_instances([f"i{n}" for n in range(3)])
        for iid, records in grouped.items():
            assert {m.metric_id for m in records} == {
                m.metric_id for m in metadata_store.metrics_of_instance(iid)
            }


@both_configurations
class TestBulkMetricInsert:
    def test_insert_metrics_batch(self, metadata_store):
        batch = [metric(f"mt{n}", value=n / 10) for n in range(5)]
        metadata_store.insert_metrics(batch)
        assert len(metadata_store.metrics_of_instance("i1")) == 5

    def test_insert_metrics_empty_batch_noop(self, metadata_store):
        metadata_store.insert_metrics([])
        assert metadata_store.counts()["metrics"] == 0

    def test_duplicate_in_batch_rolls_back_everything(self, metadata_store):
        metadata_store.insert_metric(metric("mt1"))
        batch = [metric("mt2"), metric("mt1"), metric("mt3")]
        with pytest.raises(DuplicateError):
            metadata_store.insert_metrics(batch)
        # atomicity: neither mt2 nor mt3 landed
        ids = {m.metric_id for m in metadata_store.metrics_of_instance("i1")}
        assert ids == {"mt1"}

    def test_duplicate_within_batch_rejected(self, metadata_store):
        with pytest.raises(DuplicateError):
            metadata_store.insert_metrics([metric("mt1"), metric("mt1")])
        assert metadata_store.counts()["metrics"] == 0


@both_configurations
class TestOrderingParity:
    """Candidates come back in creation order, whichever statement serves them."""

    def test_indexed_lookup_ordered_by_created_time(self, metadata_store):
        metadata_store.insert_instance(instance("late", created_time=9.0))
        metadata_store.insert_instance(instance("early", created_time=1.0))
        hits = metadata_store.find_instances_by_field("city", "sf")
        assert [i.instance_id for i in hits] == ["early", "late"]

    def test_unindexed_scan_ordered_by_created_time(self, metadata_store):
        metadata_store.insert_instance(
            instance("late", created_time=9.0, metadata={"custom": "yes"})
        )
        metadata_store.insert_instance(
            instance("early", created_time=1.0, metadata={"custom": "yes"})
        )
        hits = metadata_store.find_instances_by_field(None, also=[("custom", "yes")])
        assert [i.instance_id for i in hits] == ["early", "late"]

    def test_instances_of_model_ordered_by_created_time(self, metadata_store):
        metadata_store.insert_instance(instance("late", created_time=9.0))
        metadata_store.insert_instance(instance("early", created_time=1.0))
        hits = metadata_store.find_instances_by_field("model_id", "m1")
        assert [i.instance_id for i in hits] == ["early", "late"]


class TestAssignServingRollsBack:
    """A rejected assignment must not leave BEGIN IMMEDIATE's lock held.

    ``ServingAssignment`` validates the scope after the transaction began;
    on a shared file a leaked transaction stalls every other replica's
    writes for the whole busy timeout.
    """

    @pytest.fixture(params=["file", "4-shards"])
    def durable(self, request, tmp_path):
        """A file-backed store and ``owner(scope)``: the file holding that scope."""
        if request.param == "file":
            path = str(tmp_path / "gallery.sqlite")
            store = SQLiteMetadataStore(path)
            owner = lambda scope: path  # noqa: E731
        else:
            directory = str(tmp_path / "shards")
            store = open_sharded_store(directory, 4)
            owner = lambda scope: shard_file(  # noqa: E731
                directory, store.shard_map.shard_for(scope)
            )
        yield store, owner
        store.close()

    def test_invalid_scope_releases_the_database_lock(self, durable):
        store, owner = durable
        with pytest.raises(ValidationError):
            store.assign_serving("", "i1")
        other = sqlite3.connect(owner(""), timeout=0)
        try:
            other.execute("INSERT INTO models (model_id, record) VALUES ('x', '{}')")
            other.commit()
        finally:
            other.close()
        # the next assignment on the same connection starts a fresh transaction
        scope = next(
            f"city-{n}" for n in range(1000) if owner(f"city-{n}") == owner("")
        )
        assert store.assign_serving(scope, "i1")[0].switch_count == 1


class TestQueryPlans:
    """The statements the store actually runs, planned by SQLite itself."""

    @staticmethod
    def _plans(store, action) -> list[str]:
        """The query plan of every statement *action* runs on this thread."""
        conn = store._connection()  # noqa: SLF001 - the thread's connection
        statements: list[str] = []
        conn.set_trace_callback(statements.append)
        try:
            action()
        finally:
            conn.set_trace_callback(None)
        return [
            " / ".join(row[3] for row in conn.execute(f"EXPLAIN QUERY PLAN {sql}"))
            for sql in statements
            if sql.lstrip().upper().startswith(("SELECT", "DELETE", "UPDATE"))
        ]

    def test_metric_reads_use_the_instance_name_index(self, tmp_path):
        store = SQLiteMetadataStore(str(tmp_path / "gallery.sqlite"))
        try:
            store.insert_metrics([metric("mt1"), metric("mt2", "i2")])
            plans = self._plans(store, lambda: store.metrics_of_instance("i1"))
            plans += self._plans(
                store, lambda: store.metrics_for_instances(["i1", "i2"])
            )
            plans += self._plans(
                store, lambda: store.metric_values_for_instances(["i1", "i2"])
            )
            plans += self._plans(
                store,
                lambda: store.metric_values_for_instances(["i1", "i2"], name="mape"),
            )
        finally:
            store.close()
        assert len(plans) == 4
        for plan in plans:
            assert "USING INDEX idx_metrics_instance_name" in plan, plan

    def test_completing_a_request_evicts_by_rowid_range(self, tmp_path):
        store = SQLiteMetadataStore(str(tmp_path / "gallery.sqlite"))
        try:
            for request_id in range(1, 4):
                store.dedup_claim("c1", request_id)
            plans = self._plans(
                store, lambda: store.dedup_complete("c1", 3, b"r", capacity=1)
            )
        finally:
            store.close()
        update, evict = plans
        assert "(client_id=? AND request_id=?)" in update, update
        assert "USING INTEGER PRIMARY KEY (rowid<?)" in evict, evict
