"""Metric constraints matched on column values answer exactly as on records.

``model_query`` matches its metric constraints on ``(name, value, scope)``
rows that :meth:`MetadataStore.metric_values_for_instances` reads as columns,
with the scope pulled out of the stored JSON by SQLite.  The reference here
is the record path: every candidate's :class:`MetricRecord`\\ s from
``metrics_for_instances``, fed to :meth:`ConstraintSet.matches_metrics`.

The drawn metrics include the rows SQLite's JSON functions reject (a ±inf
value, a NaN inside the metric's metadata), which must take the store's
record-decoding fallback, int-valued metrics, several names and every scope
per instance.  Both run on a ``:memory:`` store and on a 4-shard file store.
"""

from __future__ import annotations

import json
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.clock import ManualClock
from repro.core.ids import SeededIdFactory
from repro.core.records import MetricScope
from repro.core.registry import Gallery
from repro.core.search import ConstraintSet, Operator
from repro.errors import ValidationError
from repro.store.blob import InMemoryBlobStore
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore
from repro.store.sharding import open_sharded_store

NAMES = ("bias", "mape", "rmse")
INF = float("inf")

metric_values = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, -1.0, INF, -INF]),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0, allow_nan=False),
)
metric_metadata = st.one_of(
    st.just({}),
    st.fixed_dictionaries({"window": st.sampled_from(["7d", "28d"])}),
    st.just({"note": float("nan")}),
)
metric = st.tuples(
    st.sampled_from(NAMES),
    metric_values,
    st.sampled_from(list(MetricScope)),
    metric_metadata,
)
instances = st.lists(
    st.tuples(st.lists(metric, max_size=6), st.booleans()),
    min_size=1,
    max_size=5,
)
constraint = st.one_of(
    st.tuples(
        st.just("metricName"),
        st.sampled_from([Operator.EQUAL, Operator.NOT_EQUAL, Operator.PREFIX]),
        st.sampled_from([*NAMES, "ma", "ghost"]),
    ),
    st.tuples(
        st.just("metricValue"),
        st.sampled_from(
            [
                Operator.SMALLER_THAN,
                Operator.SMALLER_EQUAL,
                Operator.GREATER_THAN,
                Operator.GREATER_EQUAL,
                Operator.EQUAL,
                Operator.NOT_EQUAL,
            ]
        ),
        st.one_of(metric_values, st.sampled_from(["0.25", "x"])),
    ),
    st.tuples(
        st.just("metricScope"),
        st.sampled_from([Operator.EQUAL, Operator.NOT_EQUAL, Operator.IN]),
        st.sampled_from(
            ["Validation", "validation", "Production", "Training", ["Training"]]
        ),
    ),
)
queries = st.lists(st.lists(constraint, min_size=1, max_size=3), min_size=1, max_size=4)


def _gallery(store) -> Gallery:
    gallery = Gallery(
        DataAccessLayer(store, InMemoryBlobStore(), None),
        clock=ManualClock(start=1.0, tick=1.0),
        id_factory=SeededIdFactory(5),
    )
    gallery.create_model("p", "demand")
    return gallery


def _reference(gallery: Gallery, constraints) -> list[str]:
    """The record path: whole MetricRecords through ``matches_metrics``."""
    constraint_set = ConstraintSet(constraints)
    store = gallery.dal.metadata
    live = [i for i in store.iter_instances() if not i.deprecated]
    records = store.metrics_for_instances([i.instance_id for i in live])
    hits = [
        i
        for i in live
        if constraint_set.matches_metrics(
            {"name": m.name, "value": m.value, "scope": m.scope.value}
            for m in records[i.instance_id]
        )
    ]
    hits.sort(key=lambda i: (i.created_time, i.instance_id))
    return [json.dumps(i.to_dict(), sort_keys=True) for i in hits]


def _check(store, uploads, asked) -> None:
    gallery = _gallery(store)
    ids = []
    for metrics, deprecated in uploads:
        instance = gallery.upload_model("p", "demand", blob=b"w")
        for name, value, scope, metadata in metrics:
            gallery.insert_metric(
                instance.instance_id, name, value, scope=scope, metadata=metadata
            )
        if deprecated:
            gallery.deprecate_instance(instance.instance_id)
        ids.append(instance.instance_id)

    records = store.metrics_for_instances(ids)
    for name in (None, *NAMES):
        values = store.metric_values_for_instances(ids, name=name)
        assert set(values) == set(ids)
        for instance_id in ids:
            # -0.0 reads back from the REAL column as 0.0: equal, as the
            # matcher compares them
            assert sorted(values[instance_id]) == sorted(
                (m.name, m.value, m.scope.value)
                for m in records[instance_id]
                if name is None or m.name == name
            )

    for drawn in asked:
        constraints = [
            {"field": field, "operator": op.value, "value": value}
            for field, op, value in drawn
        ]
        actual = [
            json.dumps(i.to_dict(), sort_keys=True)
            for i in gallery.model_query(constraints, allow_stale=False)
        ]
        assert actual == _reference(gallery, constraints), constraints


@given(instances, queries)
@settings(max_examples=150, deadline=None)
def test_column_matcher_matches_records_in_memory(uploads, asked):
    store = SQLiteMetadataStore(":memory:")
    try:
        _check(store, uploads, asked)
    finally:
        store.close()


@given(instances, queries)
@settings(max_examples=40, deadline=None)
def test_column_matcher_matches_records_on_four_shards(uploads, asked):
    with tempfile.TemporaryDirectory() as directory:
        store = open_sharded_store(directory, 4)
        try:
            _check(store, uploads, asked)
        finally:
            store.close()


def test_infinite_values_take_the_record_fallback():
    """±inf is written as bare ``Infinity``, which SQLite's JSON functions
    refuse; the values still come back, and still match."""
    store = SQLiteMetadataStore(":memory:")
    try:
        gallery = _gallery(store)
        low = gallery.upload_model("p", "demand", blob=b"w").instance_id
        high = gallery.upload_model("p", "demand", blob=b"w").instance_id
        gallery.insert_metric(low, "bias", -INF, scope="Training")
        gallery.insert_metric(high, "bias", INF)
        assert store.metric_values_for_instances([low, high], name="bias") == {
            low: [("bias", -INF, "Training")],
            high: [("bias", INF, "Validation")],
        }
        hits = gallery.model_query(
            [
                {"field": "metricName", "operator": "equal", "value": "bias"},
                {"field": "metricValue", "operator": "smaller_than", "value": 0.25},
            ]
        )
        assert [i.instance_id for i in hits] == [low]
    finally:
        store.close()


def _outcome(fn):
    try:
        return fn()
    except ValidationError as exc:
        return type(exc)


@pytest.mark.parametrize(
    "scope",
    ["absent", None, "validation", "Production", "bogus", 1, ["Training"]],
)
def test_stored_scope_is_read_as_the_record_reads_it(scope):
    """A hand-edited row's scope means on the column path what it means to
    MetricRecord: absent is the default, a known name in any case is that
    scope, anything else is refused with the same error."""
    store = SQLiteMetadataStore(":memory:")
    try:
        gallery = _gallery(store)
        instance_id = gallery.upload_model("p", "demand", blob=b"w").instance_id
        metric = gallery.insert_metric(instance_id, "bias", 0.1)
        record = metric.to_dict()
        if scope == "absent":
            del record["scope"]
        else:
            record["scope"] = scope
        with store._transaction() as conn:  # noqa: SLF001 - a hand-edited row
            conn.execute(
                "UPDATE metrics SET record = ? WHERE metric_id = ?",
                (json.dumps(record), metric.metric_id),
            )
        for value in ("Validation", "Production"):
            constraints = [
                {"field": "metricName", "operator": "equal", "value": "bias"},
                {"field": "metricScope", "operator": "equal", "value": value},
            ]
            expected = _outcome(lambda: _reference(gallery, constraints))
            actual = _outcome(
                lambda: [
                    json.dumps(i.to_dict(), sort_keys=True)
                    for i in gallery.model_query(constraints, allow_stale=False)
                ]
            )
            assert actual == expected
    finally:
        store.close()
