"""``model_query`` with pushed-down equalities answers exactly as before.

The store reads a search's candidates with one statement that carries the
strict narrowing equality *and* every other pushable equality.  Those extra
terms must only ever drop rows the Python matcher would drop.  The reference
here is the search without them: the strict condition alone, then
``flatten_instance_document`` + ``matches_document`` over every candidate.
Both run on a ``:memory:`` store and on a 4-shard file store.
"""

from __future__ import annotations

import json
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.clock import ManualClock
from repro.core.ids import SeededIdFactory
from repro.core.metadata import INDEXED_FIELDS
from repro.core.registry import Gallery
from repro.core.search import (
    ConstraintSet,
    Operator,
    flatten_instance_document,
)
from repro.store.blob import InMemoryBlobStore
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore
from repro.store.sharding import open_sharded_store

BIG = 1 << 63
PROMOTED = ("city", "model_name")
#: Promoted keys plus keys named like record fields and a plain one.
KEYS = (*PROMOTED, "zone", "family", "base_version_id", "project", "owner")
FIELDS = (*KEYS, "baseVersionId", "model_id", "projectName", "a\"b", "$.x[0]")
MODELS = ("demand", "supply")

#: Values a promoted column can bind (bigger ints and lists cannot).
column_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from(
        [1.0, 0.0, -0.0, "sf", "nyc", "é", "\U0001f600", "a\x00b", "a", *MODELS]
    ),
)
any_values = st.one_of(
    column_values,
    st.sampled_from([BIG, BIG + 1, BIG - 1, -BIG, -BIG - 1, float("nan")]),
    st.lists(st.integers(0, 1), max_size=2),
)


def _metadata(promoted_values):
    return st.fixed_dictionaries(
        {},
        optional={
            key: promoted_values if key in PROMOTED else any_values for key in KEYS
        },
    )


instances = st.lists(
    st.tuples(st.sampled_from(range(len(MODELS))), _metadata(column_values), st.booleans()),
    max_size=8,
)
model_metadata = st.lists(_metadata(any_values), min_size=2, max_size=2)
constraint = st.tuples(
    st.sampled_from(FIELDS),
    st.sampled_from([Operator.EQUAL] * 4 + [Operator.NOT_EQUAL]),
    st.one_of(any_values, st.sampled_from(["model:0", "model:1"])),
)
queries = st.lists(
    st.tuples(st.lists(constraint, min_size=1, max_size=3), st.booleans()),
    min_size=1,
    max_size=4,
)


def _strict(constraint_set: ConstraintSet):
    """The strict narrowing condition the search has always used."""
    fallback = None
    for c in constraint_set.document_constraints:
        if c.operator is not Operator.EQUAL:
            continue
        if c.resolved_field in INDEXED_FIELDS:
            return c.resolved_field, c.value
        if fallback is None and c.resolved_field in ("base_version_id", "model_id"):
            fallback = (c.resolved_field, c.value)
    return fallback


def _reference(gallery: Gallery, constraints, include_deprecated: bool) -> list[str]:
    constraint_set = ConstraintSet(constraints)
    store = gallery.dal.metadata
    strict = _strict(constraint_set)
    if strict is None:
        candidates = list(store.iter_instances())
    else:
        candidates = store.find_instances_by_field(*strict)
    models = {m.model_id: m.to_dict() for m in store.iter_models()}
    hits = [
        i
        for i in candidates
        if (include_deprecated or not i.deprecated)
        and constraint_set.matches_document(
            flatten_instance_document(i.to_dict(), models.get(i.model_id))
        )
    ]
    hits.sort(key=lambda i: (i.created_time, i.instance_id))
    return [json.dumps(i.to_dict(), sort_keys=True) for i in hits]


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the error type is the answer
        return type(exc)


def _check(store, model_meta, uploads, asked) -> None:
    gallery = Gallery(
        DataAccessLayer(store, InMemoryBlobStore(), None),
        clock=ManualClock(start=1.0, tick=1.0),
        id_factory=SeededIdFactory(3),
    )
    model_ids = [
        gallery.create_model("p", name, metadata=meta).model_id
        for name, meta in zip(MODELS, model_meta)
    ]
    for which, meta, deprecated in uploads:
        instance = gallery.upload_model("p", MODELS[which], blob=b"w", metadata=meta)
        if deprecated:
            gallery.deprecate_instance(instance.instance_id)
    for drawn, include_deprecated in asked:
        constraints = [
            {
                "field": field,
                "operator": op.value,
                "value": model_ids[int(value[-1])]
                if isinstance(value, str) and value.startswith("model:")
                else value,
            }
            for field, op, value in drawn
        ]
        expected = _outcome(
            lambda: _reference(gallery, constraints, include_deprecated)
        )
        actual = _outcome(
            lambda: [
                json.dumps(i.to_dict(), sort_keys=True)
                for i in gallery.model_query(
                    constraints, include_deprecated, allow_stale=False
                )
            ]
        )
        assert actual == expected, constraints
    assert gallery.stale_query_count == 0


@given(model_metadata, instances, queries)
@settings(max_examples=150, deadline=None)
def test_pushdown_matches_reference_in_memory(model_meta, uploads, asked):
    store = SQLiteMetadataStore(":memory:")
    try:
        _check(store, model_meta, uploads, asked)
    finally:
        store.close()


@given(model_metadata, instances, queries)
@settings(max_examples=40, deadline=None)
def test_pushdown_matches_reference_on_four_shards(model_meta, uploads, asked):
    with tempfile.TemporaryDirectory() as directory:
        store = open_sharded_store(directory, 4)
        try:
            _check(store, model_meta, uploads, asked)
        finally:
            store.close()


@pytest.mark.parametrize(
    ("model_meta", "instance_meta", "constraints"),
    [
        # the value lives only in the model's metadata
        ({"zone": "north"}, {}, [("zone", "north")]),
        # a second indexed column whose value comes from the model
        ({"model_name": "rf"}, {"city": "sf"}, [("city", "sf"), ("model_name", "rf")]),
        # metadata keys named like record fields override the record
        ({}, {"family": "f1"}, [("base_version_id", "demand"), ("family", "f1")]),
        ({}, {"base_version_id": "x"}, [("city", "sf"), ("base_version_id", "x")]),
        # True vs 1 and 1.0 vs 1 compare equal in Python and in JSON
        ({}, {"zone": True}, [("zone", 1)]),
        ({}, {"zone": 1.0}, [("zone", 1)]),
        ({}, {"model_name": 1.0}, [("city", "sf"), ("model_name", 1)]),
        # records escape a non-BMP character as a surrogate pair
        ({}, {"zone": "\U0001f600"}, [("zone", "\U0001f600")]),
        # SQLite's JSON extraction stops at a NUL
        ({}, {"zone": "a\x00b"}, [("zone", "a\x00b")]),
        # a key that reads as a JSON path must not address another key
        ({}, {"x[0]": "v", "x": ["w"]}, [("x[0]", "v")]),
        # a non-finite float anywhere in the record is still matched
        ({}, {"zone": "n", "score": float("nan")}, [("zone", "n")]),
    ],
)
def test_named_cases_still_match(model_meta, instance_meta, constraints):
    store = SQLiteMetadataStore(":memory:")
    try:
        gallery = Gallery(
            DataAccessLayer(store, InMemoryBlobStore(), None),
            clock=ManualClock(start=1.0, tick=1.0),
            id_factory=SeededIdFactory(3),
        )
        gallery.create_model("p", "demand", metadata=model_meta)
        hit = gallery.upload_model(
            "p", "demand", blob=b"w", metadata={"city": "sf", **instance_meta}
        )
        found = gallery.model_query(
            [{"field": f, "operator": "equal", "value": v} for f, v in constraints]
        )
        assert [i.instance_id for i in found] == [hit.instance_id]
        assert gallery.stale_query_count == 0
    finally:
        store.close()
