"""Serving caches (Section 3.5).

The paper's read path: "the request first goes to MySQL to get the location
of the model blob, and then the model is directly accessed via the storage
location.  The cache is updated with the requested blob and then is
subsequently returned to the user."  This module implements that cache — a
byte-budgeted LRU keyed by blob location — plus a second, metadata-side
cache: :class:`DocumentCache`, a read-through store for the flattened
model+instance search documents the registry assembles on every
``modelQuery`` / rule evaluation.

Both caches sit under the **threaded** TCP server, so every operation takes
an internal lock; statistics updates happen inside the same critical section
and are therefore consistent with the entry map at all times.

The blob cache is deliberately write-around (populated on *read*, not on
write): most freshly-trained instances are never served, so caching them on
upload would only evict blobs that serving traffic is actually hitting.
The document cache is invalidated explicitly by the registry whenever a
store update (``update_record``) reports that it changed a record, and a
read that passes the live record only uses an entry built from an equal
one, so a peer replica's change to an instance is never answered from this
process's copy; see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    current_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUBlobCache:
    """Least-recently-used cache with a byte budget.

    ``capacity_bytes`` bounds the total payload size; a single blob larger
    than the budget is never cached (it would evict everything for one
    entry).  ``get``/``put`` are O(1) and thread-safe.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._capacity = capacity_bytes
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    def get(self, location: str) -> bytes | None:
        """Return the cached blob or None, updating recency on hit."""
        with self._lock:
            data = self._entries.get(location)
            if data is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(location)
            self.stats.hits += 1
            return data

    def put(self, location: str, data: bytes) -> None:
        """Insert a blob, evicting least-recently-used entries to fit."""
        size = len(data)
        if size > self._capacity:
            return  # oversized blobs bypass the cache entirely
        with self._lock:
            if location in self._entries:
                self.stats.current_bytes -= len(self._entries[location])
                del self._entries[location]
            while self.stats.current_bytes + size > self._capacity and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self.stats.current_bytes -= len(evicted)
                self.stats.evictions += 1
            self._entries[location] = data
            self.stats.current_bytes += size

    def invalidate(self, location: str) -> bool:
        """Drop one entry; True when it was present."""
        with self._lock:
            data = self._entries.pop(location, None)
            if data is None:
                return False
            self.stats.current_bytes -= len(data)
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats.current_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, location: str) -> bool:
        with self._lock:
            return location in self._entries


@dataclass
class DocumentCacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DocumentCache:
    """Read-through LRU for flattened model+instance search documents.

    Keyed by instance id; every entry is also indexed by its parent model id
    so a model-record change (dependency pointer mirror, evolution,
    deprecation) can drop every document it contributed to in one call.
    ``get`` returns a shallow copy and ``put`` stores one, so callers may
    decorate the returned document (e.g. attach ``metrics``) without
    poisoning the cache.
    """

    def __init__(self, max_entries: int = 8192) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._max_entries = max_entries
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._model_of: dict[str, str] = {}
        self._by_model: dict[str, set[str]] = {}
        #: instance_id -> source record snapshot (for stale degraded reads)
        self._records: dict[str, Any] = {}
        self._lock = threading.RLock()
        self.stats = DocumentCacheStats()

    def get(self, instance_id: str, record: Any = None) -> dict[str, Any] | None:
        """The cached document, or None.  Given the live *record*, an entry
        built from a different one (a peer replica changed it) is a miss."""
        with self._lock:
            document = self._entries.get(instance_id)
            if document is None or (
                record is not None and self._records.get(instance_id) != record
            ):
                self.stats.misses += 1
                return None
            self._entries.move_to_end(instance_id)
            self.stats.hits += 1
            return dict(document)

    def put(
        self,
        instance_id: str,
        model_id: str,
        document: dict[str, Any],
        record: Any = None,
    ) -> None:
        """Cache a document, optionally with its immutable source *record*.

        The record snapshot is what lets the registry keep answering
        ``model_query`` (marked stale) while the metadata store is down —
        documents alone cannot reconstruct full instance records.
        """
        with self._lock:
            if instance_id in self._entries:
                self._drop(instance_id)
            while len(self._entries) >= self._max_entries:
                evicted_id, _ = self._entries.popitem(last=False)
                self._unindex(evicted_id)
            self._entries[instance_id] = dict(document)
            self._model_of[instance_id] = model_id
            self._by_model.setdefault(model_id, set()).add(instance_id)
            if record is not None:
                self._records[instance_id] = record

    def snapshot(self) -> list[tuple[str, dict[str, Any], Any]]:
        """Every cached (instance_id, document copy, record) triple.

        The degraded-read path iterates this when live storage is
        unreachable; entries without a record snapshot are still returned
        (record ``None``) so callers can decide what to do with them.
        """
        with self._lock:
            return [
                (instance_id, dict(document), self._records.get(instance_id))
                for instance_id, document in self._entries.items()
            ]

    def _unindex(self, instance_id: str) -> None:
        self._records.pop(instance_id, None)
        model_id = self._model_of.pop(instance_id, None)
        if model_id is not None:
            members = self._by_model.get(model_id)
            if members is not None:
                members.discard(instance_id)
                if not members:
                    del self._by_model[model_id]

    def _drop(self, instance_id: str) -> bool:
        present = self._entries.pop(instance_id, None) is not None
        self._unindex(instance_id)
        return present

    def invalidate_instance(self, instance_id: str) -> bool:
        """Drop one instance's document; True when it was cached."""
        with self._lock:
            dropped = self._drop(instance_id)
            if dropped:
                self.stats.invalidations += 1
            return dropped

    def invalidate_model(self, model_id: str) -> int:
        """Drop every document derived from *model_id*; returns the count."""
        with self._lock:
            members = list(self._by_model.get(model_id, ()))
            for instance_id in members:
                self._drop(instance_id)
            self.stats.invalidations += len(members)
            return len(members)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._model_of.clear()
            self._by_model.clear()
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, instance_id: str) -> bool:
        with self._lock:
            return instance_id in self._entries
