"""Scatter-gather parity (PR 6 satellite): `model_query` must return
identical results — content AND order — on a 1-shard and an N-shard store
built from the same fixture corpus, including over the wire.
"""

import pytest

from repro.core.clock import ManualClock
from repro.core.ids import SeededIdFactory
from repro.core.registry import Gallery
from repro.service.client import GalleryClient, InProcessTransport
from repro.service.server import GalleryService
from repro.service import wire
from repro.store.blob import InMemoryBlobStore
from repro.store.dal import DataAccessLayer
from repro.store.sharding import open_sharded_store

CITIES = ("sf", "nyc", "pit")


def build_corpus(tmp_path, shard_count):
    """The same deterministic corpus over a *shard_count*-shard store."""
    store = open_sharded_store(
        str(tmp_path / f"shards-{shard_count}"), shard_count
    )
    gallery = Gallery(
        DataAccessLayer(store, InMemoryBlobStore()),
        clock=ManualClock(),
        id_factory=SeededIdFactory(seed=7),
    )
    for m in range(6):
        base = f"coord-{m}"
        gallery.create_model("parity", base)
        for k in range(5):
            instance = gallery.upload_model(
                "parity",
                base,
                f"weights-{m}-{k}".encode(),
                metadata={
                    "model_name": f"net-{m}",
                    "city": CITIES[k % len(CITIES)],
                    "threshold": k / 10,
                },
            )
            gallery.insert_metric(instance.instance_id, "bias", m + k / 100)
    return gallery, store


QUERIES = [
    # single-coordinate: routes to one shard
    [{"field": "baseVersionId", "operator": "equal", "value": "coord-2"}],
    # coordinate + non-indexed refinement
    [
        {"field": "baseVersionId", "operator": "equal", "value": "coord-3"},
        {"field": "threshold", "operator": "smaller_than", "value": 0.25},
    ],
    # indexed field: scatter-gather across every shard
    [{"field": "city", "operator": "equal", "value": "nyc"}],
    # metric constraint: exercises metrics_for_instances fan-out
    [
        {"field": "metricName", "operator": "equal", "value": "bias"},
        {"field": "metricValue", "operator": "smaller_than", "value": 2.5},
    ],
    # project-wide scan
    [{"field": "projectName", "operator": "equal", "value": "parity"}],
]


@pytest.mark.parametrize("shards", [3, 8])
def test_model_query_parity_single_vs_sharded(tmp_path, shards):
    single_gallery, single_store = build_corpus(tmp_path, 1)
    multi_gallery, multi_store = build_corpus(tmp_path, shards)
    try:
        # same corpus landed in both stores...
        assert single_store.counts() == multi_store.counts()
        # ...but actually spread across shards in the sharded one
        assert sum(
            1 for c in multi_store.shard_counts() if c["instances"]
        ) > 1
        for constraints in QUERIES:
            single = [
                i.to_dict() for i in single_gallery.model_query(constraints)
            ]
            multi = [
                i.to_dict() for i in multi_gallery.model_query(constraints)
            ]
            assert single, f"fixture query matched nothing: {constraints}"
            assert single == multi  # identical content and order
    finally:
        single_store.close()
        multi_store.close()


def test_model_query_parity_over_binary_wire(tmp_path):
    single_gallery, single_store = build_corpus(tmp_path, 1)
    multi_gallery, multi_store = build_corpus(tmp_path, 5)
    clients = [
        GalleryClient(
            InProcessTransport(GalleryService(g)),
            client_id=f"parity-{n}",
        )
        for n, g in ((1, single_gallery), (5, multi_gallery))
    ]
    try:
        for constraints in QUERIES:
            single, multi = (
                client.model_query(list(constraints)) for client in clients
            )
            assert single
            assert single == multi
        # the shard count differs — that's the only visible delta
        shards = [c.audit_storage()["summary"]["shards"] for c in clients]
        assert [s["num_shards"] for s in shards] == [1, 5]
    finally:
        single_store.close()
        multi_store.close()
