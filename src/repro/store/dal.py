"""Unified data access layer (Section 3.5).

The DAL owns the one protocol that spans both stores, and nothing else:

    "we always write model blobs first and only write the model metadata
    after the model blobs are successfully stored.  If the model blob of a
    model instance is saved but the metadata fails to save, then the model
    instance will not be available in the system."

* :meth:`DataAccessLayer.save_instance` writes the blob, then the metadata.
  A blob failure leaves *nothing* behind; a metadata failure leaves only an
  **orphan blob**, which is invisible to the system and reclaimable by
  :meth:`collect_orphan_blobs`.
* Metadata that references a missing blob can therefore never be produced by
  a crash — :meth:`audit_consistency` treats such *dangling metadata* as
  corruption.
* The blob read path is MySQL → location → cache → blob store, populating
  the LRU cache on miss.

Every other metadata operation (models, metrics, families, serving
assignments, request dedup, dead letters) belongs to the metadata store
itself, and callers reach it as :attr:`DataAccessLayer.metadata`.  The one
forward left, :meth:`DataAccessLayer.serving_assignment`, says why it stays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.records import ModelInstance, ServingAssignment
from repro.errors import ConsistencyError
from repro.store.blob import BlobRange, BlobRegion, BlobStore, range_of_bytes
from repro.store.cache import LRUBlobCache
from repro.store.metadata_store import MetadataStore


@dataclass(frozen=True, slots=True)
class ConsistencyReport:
    """Result of a storage audit.

    ``orphan_blobs`` are blobs without metadata — a legal by-product of
    metadata-write failures, safe to garbage-collect.  ``dangling_instances``
    are instances whose metadata references a missing blob — impossible under
    write-blob-first, hence corruption.
    """

    orphan_blobs: tuple[str, ...]
    dangling_instances: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.dangling_instances


class DataAccessLayer:
    """Storage facade: metadata store + blob store + read cache."""

    def __init__(
        self,
        metadata_store: MetadataStore,
        blob_store: BlobStore,
        cache: LRUBlobCache | None = None,
    ) -> None:
        self._metadata = metadata_store
        self._blobs = blob_store
        self._cache = cache

    @property
    def metadata(self) -> MetadataStore:
        return self._metadata

    @property
    def blobs(self) -> BlobStore:
        return self._blobs

    @property
    def cache(self) -> LRUBlobCache | None:
        return self._cache

    def serving_assignment(self, scope: str) -> ServingAssignment:
        # The one forward left, kept for measurement: ``servingFor`` is the
        # only DAL call a ``serve_hot`` op makes, and gallerybench's traced
        # run requires ``store.dal.self_us`` on that workload (it fails the
        # run when the metric is not measured).  It goes when the benchmark
        # retires that metric (ROADMAP 9(f)).
        return self._metadata.serving_assignment(scope)

    # -- write path -----------------------------------------------------------

    def save_instance(self, instance: ModelInstance, blob: bytes) -> ModelInstance:
        """Persist an instance using the write-blob-first protocol.

        Returns the stored record with ``blob_location`` filled in and the
        ``instance_version`` the store assigned.  On blob failure nothing is
        written; on metadata failure the blob remains as an invisible orphan
        (collected later by :meth:`collect_orphan_blobs`): the instance is
        simply "not available in the system".
        """
        location = self._blobs.put(blob, hint=instance.instance_id)
        return self._metadata.insert_instance(
            replace(instance, blob_location=location)
        )

    # -- read path -------------------------------------------------------------

    def _blob_location(self, instance_id: str) -> str:
        instance = self._metadata.get_instance(instance_id)
        location = instance.blob_location
        if not location:
            raise ConsistencyError(
                f"instance {instance_id!r} has no blob location recorded"
            )
        return location

    def load_blob(self, instance_id: str) -> bytes:
        """Fetch an instance's blob: metadata → location → cache → store."""
        location = self._blob_location(instance_id)
        if self._cache is not None:
            cached = self._cache.get(location)
            if cached is not None:
                return cached
        data = self._blobs.get(location)
        if self._cache is not None:
            self._cache.put(location, data)
        return data

    def load_blob_payload(self, instance_id: str) -> "bytes | BlobRegion":
        """Fetch an instance's blob for *serving*: zero-copy when possible.

        Prefers, in order: the blob cache (bytes, no I/O), an open
        :class:`BlobRegion` from a file-backed store (the server hands it
        to ``os.sendfile`` — the caller owns closing it), and finally a
        plain :meth:`load_blob`-style copy read (which populates the
        cache).
        """
        location = self._blob_location(instance_id)
        if self._cache is not None:
            cached = self._cache.get(location)
            if cached is not None:
                return cached
        region = self._blobs.open_region(location)
        if region is not None:
            return region
        data = self._blobs.get(location)
        if self._cache is not None:
            self._cache.put(location, data)
        return data

    def load_blob_range(self, instance_id: str, offset: int, length: int) -> BlobRange:
        """Fetch a digest-carrying sub-range of an instance's blob.

        Serves from the blob cache when the whole blob is already resident;
        otherwise delegates to the store's range read (zero-copy on
        file-backed stores).  Range reads never populate the cache — the
        point of a range is to avoid materializing the artifact.
        """
        location = self._blob_location(instance_id)
        if self._cache is not None:
            cached = self._cache.get(location)
            if cached is not None:
                return range_of_bytes(cached, offset, length)
        return self._blobs.get_range(location, offset, length)

    # -- maintenance --------------------------------------------------------

    def _instance_locations(self) -> list[tuple[str, str]]:
        """``(instance_id, blob_location)`` of every instance that has a
        location: one pass over the instance table."""
        return [
            (inst.instance_id, inst.blob_location)
            for inst in self._metadata.iter_instances()
            if inst.blob_location
        ]

    def referenced_locations(self) -> set[str]:
        """Blob locations reachable from instance metadata."""
        return {location for _, location in self._instance_locations()}

    def audit_consistency(self) -> ConsistencyReport:
        """Cross-check metadata against the blob store (Section 3.5)."""
        located = self._instance_locations()
        stored = set(self._blobs.locations())
        referenced = {location for _, location in located}
        orphans = tuple(sorted(stored - referenced))
        dangling = tuple(
            sorted(iid for iid, location in located if location not in stored)
        )
        return ConsistencyReport(orphan_blobs=orphans, dangling_instances=dangling)

    def collect_orphan_blobs(self) -> list[str]:
        """Delete blobs not referenced by any metadata; return their locations.

        Content-addressed backends may legitimately share one blob between
        instances, so only locations with *zero* referents are removed.
        """
        report = self.audit_consistency()
        for location in report.orphan_blobs:
            self._blobs.delete(location)
            if self._cache is not None:
                self._cache.invalidate(location)
        return list(report.orphan_blobs)

    def storage_summary(self) -> dict[str, Any]:
        """Operational snapshot used by scale benchmarks and ``gallery gc``."""
        summary: dict[str, Any] = dict(self._metadata.counts())
        summary["blob_count"] = len(self._blobs.locations())
        summary["serving_assignments"] = self._metadata.serving_assignment_count()
        if self._cache is not None:
            summary["cache_entries"] = len(self._cache)
            summary["cache_hit_rate"] = self._cache.stats.hit_rate
        summary["dedup_entries"] = self._metadata.dedup_count()
        summary["dead_letters"] = self._metadata.dead_letters_count()
        topology = getattr(self._metadata, "shard_topology", None)
        if topology is not None:
            summary["shards"] = topology()
        return summary
