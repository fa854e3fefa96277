"""Reproduction of "Gallery: A Machine Learning Model Management System at
Uber" (EDBT 2020).

Quickstart::

    from repro import build_gallery

    gallery = build_gallery()
    model = gallery.create_model("example-project", "supply_rejection")
    instance = gallery.upload_model(
        "example-project", "supply_rejection",
        blob=serialized_model_bytes,
        metadata={"model_name": "Random Forest", "city": "New York City"},
    )
    gallery.insert_metric(instance.instance_id, "bias", 0.05, scope="Validation")

See :mod:`repro.core` for the registry, :mod:`repro.rules` for the
orchestration rule engine, :mod:`repro.forecasting` and
:mod:`repro.simulation` for the case-study substrates.
"""

from __future__ import annotations

import os

from repro.core.clock import Clock
from repro.core.ids import IdFactory
from repro.core.registry import Gallery
from repro.rules.events import EventBus
from repro.store.blob import BlobStore, FilesystemBlobStore, InMemoryBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import MetadataStore, SQLiteMetadataStore
from repro.store.sharding import open_sharded_store

__version__ = "1.0.0"

__all__ = ["Gallery", "build_gallery", "__version__"]


def build_gallery(
    metadata_backend: str = "memory",
    blob_backend: str = "memory",
    cache_bytes: int | None = 64 * 1024 * 1024,
    data_dir: str | os.PathLike[str] | None = None,
    clock: Clock | None = None,
    id_factory: IdFactory | None = None,
    bus: EventBus | None = None,
    shard_count: int | None = None,
) -> Gallery:
    """Assemble a Gallery with the requested storage backends.

    Metadata always lives in SQLite: ``metadata_backend="memory"`` is a
    private ``:memory:`` database, ``"sqlite"`` a file under *data_dir*
    (``:memory:`` too when no *data_dir* is given).  ``blob_backend`` is
    ``"memory"`` or ``"fs"``; durable backends need *data_dir*.  Pass
    ``cache_bytes=None`` to disable the blob read cache.  With the sqlite
    backend, ``shard_count`` > 1 (or an existing ``shards/`` layout under
    *data_dir*) selects the hash-partitioned sharded metadata plane.
    """
    metadata: MetadataStore
    if metadata_backend not in ("memory", "sqlite"):
        raise ValueError(f"unknown metadata backend {metadata_backend!r}")
    if metadata_backend == "memory" or data_dir is None:
        if shard_count is not None and shard_count > 1:
            raise ValueError(
                "shard_count requires metadata_backend='sqlite' and a data_dir"
            )
        metadata = SQLiteMetadataStore(":memory:")
    else:
        shards_dir = os.path.join(os.fspath(data_dir), "shards")
        if shard_count is not None or os.path.isdir(shards_dir):
            metadata = open_sharded_store(shards_dir, shard_count)
        else:
            metadata = SQLiteMetadataStore(
                os.path.join(os.fspath(data_dir), "gallery.sqlite")
            )

    blobs: BlobStore
    if blob_backend == "memory":
        blobs = InMemoryBlobStore()
    elif blob_backend == "fs":
        if data_dir is None:
            raise ValueError("blob_backend='fs' requires data_dir")
        blobs = FilesystemBlobStore(os.path.join(os.fspath(data_dir), "blobs"))
    else:
        raise ValueError(f"unknown blob backend {blob_backend!r}")

    cache = LRUBlobCache(cache_bytes) if cache_bytes else None
    dal = DataAccessLayer(metadata, blobs, cache)
    return Gallery(dal, clock=clock, id_factory=id_factory, bus=bus)
