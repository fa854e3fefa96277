"""Shared fixtures: deterministic clocks/ids and Gallery assemblies.

There is one metadata engine, SQLite, in the configurations
``build_gallery`` builds: ``"memory"`` (``:memory:`` on one shared
connection; the default), ``"sqlite"`` (a database file in WAL mode with
one connection per thread) and ``"sharded"`` (four such files behind a
``ShardedMetadataStore``, the topology gallerybench serves from).
``gallery`` runs on the default; a module that checks storage behaviour
runs its tests on several with::

    pytestmark = pytest.mark.parametrize(
        "metadata_store", ["memory", "sqlite"], indirect=True
    )
"""

from __future__ import annotations

import pytest

from repro.core.clock import ManualClock
from repro.core.ids import SeededIdFactory
from repro.core.registry import Gallery
from repro.store.blob import InMemoryBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore
from repro.store.sharding import open_sharded_store


@pytest.fixture
def clock() -> ManualClock:
    return ManualClock(start=1_000_000.0, tick=1.0)


@pytest.fixture
def id_factory() -> SeededIdFactory:
    return SeededIdFactory(seed=42)


@pytest.fixture
def metadata_store(request, tmp_path):
    kind = getattr(request, "param", "memory")
    if kind == "memory":
        store = SQLiteMetadataStore(":memory:")
    elif kind == "sharded":
        store = open_sharded_store(str(tmp_path / "shards"), 4)
    else:
        store = SQLiteMetadataStore(str(tmp_path / "gallery.sqlite"))
    yield store
    store.close()


@pytest.fixture
def dal(metadata_store) -> DataAccessLayer:
    return DataAccessLayer(
        metadata_store, InMemoryBlobStore(), LRUBlobCache(1024 * 1024)
    )


@pytest.fixture
def gallery(dal, clock, id_factory) -> Gallery:
    return Gallery(dal, clock=clock, id_factory=id_factory)
