"""Registration touches its coordinate, not the registry.

PAPER.md §1 puts Gallery at ">1M model instances", and §3.4.2 propagates an
update only to the updated model's downstream models.  These tests wrap the
metadata store in a call-counting proxy and pin that shape: registering a
new coordinate, uploading into an existing model and a peer replica's
coordinate miss issue exactly the same store calls over 10 models as over
500, none of them walks every model, and opening a replica reads nothing.
"""

from __future__ import annotations

import pytest

from repro.core.clock import ManualClock
from repro.core.dependencies import DependencyGraph
from repro.core.ids import SeededIdFactory
from repro.core.registry import Gallery
from repro.store.blob import InMemoryBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from tests.core.test_query_batching import CountingStore

pytestmark = pytest.mark.parametrize(
    "metadata_store", ["memory", "sqlite"], indirect=True
)

SIZES = (10, 500)


def _gallery(store: CountingStore, seed: int) -> Gallery:
    dal = DataAccessLayer(store, InMemoryBlobStore(), LRUBlobCache(1 << 20))
    return Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(seed))


def _grow(gallery: Gallery, size: int) -> None:
    """Register models until *size* exist, each with one instance."""
    for index in range(len(gallery.models()), size):
        gallery.create_model("p", f"model-{index:04d}")
        gallery.upload_model("p", f"model-{index:04d}", blob=b"m")


def _calls(store: CountingStore, action) -> dict[str, int]:
    store.reset()
    action()
    return dict(store.calls)


def test_registration_store_calls_do_not_grow_with_the_registry(metadata_store):
    store = CountingStore(metadata_store)
    gallery = _gallery(store, seed=7)
    seen: dict[int, dict[str, dict[str, int]]] = {}
    for size in SIZES:
        _grow(gallery, size)
        coordinate = f"new-{size}"
        seen[size] = {
            "create_model": _calls(
                store, lambda: gallery.create_model("p", coordinate)
            ),
            "upload_model": _calls(
                store,
                lambda: gallery.upload_model("p", "model-0003", blob=b"m"),
            ),
        }
    for size, per_action in seen.items():
        for action, calls in per_action.items():
            assert calls.get("iter_models", 0) == 0, (
                f"{action} walked every model at {size} models"
            )
    assert seen[SIZES[0]] == seen[SIZES[-1]]


def test_replica_start_reads_nothing(metadata_store):
    """A replica holds no copy of registry state, so opening one over a
    populated store makes no store call at all."""
    store = CountingStore(metadata_store)
    _grow(_gallery(store, seed=7), SIZES[0])
    assert _calls(store, lambda: _gallery(store, seed=8)) == {}


def test_leaf_upload_is_one_coordinate_read_and_one_insert(metadata_store):
    """The version is assigned inside the insert: an upload into a model
    with no downstream models makes exactly two store calls."""
    store = CountingStore(metadata_store)
    gallery = _gallery(store, seed=7)
    _grow(gallery, SIZES[0])
    assert _calls(
        store, lambda: gallery.upload_model("p", "model-0003", blob=b"m")
    ) == {"models_at": 1, "insert_instance": 1}


def test_peer_coordinate_miss_reads_one_coordinate(metadata_store):
    """A replica that did not register a model resolves it from the store
    on first use: one coordinate read, the same at any registry size."""
    store = CountingStore(metadata_store)
    writer = _gallery(store, seed=7)
    peer = _gallery(store, seed=8)  # rehydrated while the store was empty
    seen: dict[int, dict[str, int]] = {}
    for size in SIZES:
        _grow(writer, size)
        coordinate = f"late-{size}"
        writer.create_model("p", coordinate)
        seen[size] = _calls(
            store, lambda: peer.upload_model("p", coordinate, blob=b"m")
        )
    assert seen[SIZES[0]].get("iter_models", 0) == 0
    assert seen[SIZES[0]]["models_at"] == 1
    assert seen[SIZES[0]] == seen[SIZES[-1]]


def test_upload_orders_only_its_downstream_models(metadata_store, monkeypatch):
    """A leaf model's upload never runs a whole-graph topological pass."""
    gallery = _gallery(CountingStore(metadata_store), seed=7)
    _grow(gallery, SIZES[0])

    def whole_graph_pass(self):
        raise AssertionError("upload_model ordered the whole dependency graph")

    monkeypatch.setattr(DependencyGraph, "topological_order", whole_graph_pass)
    gallery.upload_model("p", "model-0003", blob=b"m")
