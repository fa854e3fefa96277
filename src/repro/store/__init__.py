"""Storage substrate: blob stores, metadata stores, sharding, cache, DAL."""

from repro.store.blob import (
    BlobStore,
    FilesystemBlobStore,
    InMemoryBlobStore,
    content_address,
)
from repro.store.cache import CacheStats, LRUBlobCache
from repro.store.dal import ConsistencyReport, DataAccessLayer
from repro.store.metadata_store import (
    MetadataStore,
    SQLiteMetadataStore,
)
from repro.store.sharding import (
    ShardedMetadataStore,
    ShardMap,
    ShardRange,
    coordinate_hash,
    init_sharded_layout,
    open_sharded_store,
    split_shard,
    verify_layout,
)

__all__ = [
    "BlobStore",
    "CacheStats",
    "ConsistencyReport",
    "DataAccessLayer",
    "FilesystemBlobStore",
    "InMemoryBlobStore",
    "LRUBlobCache",
    "MetadataStore",
    "SQLiteMetadataStore",
    "ShardMap",
    "ShardRange",
    "ShardedMetadataStore",
    "content_address",
    "coordinate_hash",
    "init_sharded_layout",
    "open_sharded_store",
    "split_shard",
    "verify_layout",
]
