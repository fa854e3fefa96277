"""Unified data access layer (Section 3.5).

The DAL is the single gateway through which the registry touches storage.
It enforces the paper's consistency discipline:

    "we always write model blobs first and only write the model metadata
    after the model blobs are successfully stored.  If the model blob of a
    model instance is saved but the metadata fails to save, then the model
    instance will not be available in the system."

Consequences implemented here:

* :meth:`DataAccessLayer.save_instance` writes the blob, then the metadata.
  A blob failure leaves *nothing* behind; a metadata failure leaves only an
  **orphan blob**, which is invisible to the system and reclaimable by
  :meth:`collect_orphan_blobs`.
* Metadata that references a missing blob can therefore never be produced by
  a crash — :meth:`audit_consistency` treats such *dangling metadata* as
  corruption.
* The blob read path is MySQL → location → cache → blob store, populating
  the LRU cache on miss.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.core.records import (
    MetricRecord,
    Model,
    ModelInstance,
    ServingAssignment,
)
from repro.errors import BlobStoreError, ConsistencyError
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

    # -- control state --------------------------------------------------------
    #
    # Thin pass-throughs so the server's dedup cache and the engine's
    # dead-letter queue stay behind the DAL rather than reaching into the
    # concrete store.

    def dedup_claim(
        self,
        client_id: str,
        request_id: int,
        *,
        takeover_after: float = 5.0,
    ) -> tuple[str, bytes | None]:
        return self._metadata.dedup_claim(
            client_id, request_id, takeover_after=takeover_after
        )

    def dedup_complete(
        self,
        client_id: str,
        request_id: int,
        response: bytes,
        capacity: int | None = None,
    ) -> None:
        self._metadata.dedup_complete(client_id, request_id, response, capacity)

    def dedup_release(self, client_id: str, request_id: int) -> None:
        self._metadata.dedup_release(client_id, request_id)

    def dedup_trim_age(self, max_age: float, now: float | None = None) -> int:
        return self._metadata.dedup_trim_age(max_age, now)

    def dedup_count(self) -> int:
        return self._metadata.dedup_count()

    def dead_letter_append(
        self, rule_uuid: str, action: str, error_type: str, record: str
    ) -> int:
        return self._metadata.dead_letter_append(
            rule_uuid, action, error_type, record
        )

    def dead_letters_list(
        self,
        *,
        rule_uuid: str | None = None,
        action: str | None = None,
        error_type: str | None = None,
    ) -> list[tuple[int, str]]:
        return self._metadata.dead_letters_list(
            rule_uuid=rule_uuid, action=action, error_type=error_type
        )

    def dead_letter_update(
        self, letter_id: int, error_type: str, record: str
    ) -> None:
        self._metadata.dead_letter_update(letter_id, error_type, record)

    def dead_letters_delete(self, letter_ids: Sequence[int]) -> int:
        return self._metadata.dead_letters_delete(letter_ids)

    def dead_letters_trim(self, max_entries: int) -> int:
        return self._metadata.dead_letters_trim(max_entries)

    def dead_letters_trim_age(
        self, max_age: float, now: float | None = None
    ) -> int:
        return self._metadata.dead_letters_trim_age(max_age, now)

    def dead_letters_count(self) -> int:
        return self._metadata.dead_letters_count()

    # -- families & serving assignments ----------------------------------------
    #
    # Serving assignments are registry state like any other record: reads and
    # the atomic re-point go through the DAL so the registry never touches
    # the concrete store, and the sharded backend routes by scope.

    def models_in_family(self, family: str) -> list[Model]:
        return self._metadata.models_in_family(family)

    def instances_in_family(self, family: str) -> list[ModelInstance]:
        return self._metadata.instances_in_family(family)

    def serving_assignment(self, scope: str) -> ServingAssignment:
        return self._metadata.serving_assignment(scope)

    def serving_assignments(self) -> list[ServingAssignment]:
        return self._metadata.serving_assignments()

    def assign_serving(
        self,
        scope: str,
        instance_id: str,
        *,
        family: str = "",
        now: float = 0.0,
        reason: str = "",
    ) -> tuple[ServingAssignment, bool]:
        return self._metadata.assign_serving(
            scope, instance_id, family=family, now=now, reason=reason
        )

    # -- write path -----------------------------------------------------------

    def save_model(self, model: Model) -> None:
        self._metadata.insert_model(model)

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

    def save_metric(self, metric: MetricRecord) -> None:
        self._metadata.insert_metric(metric)

    def save_metrics(self, metrics: Sequence[MetricRecord]) -> None:
        """Persist a metric batch atomically (single transaction)."""
        self._metadata.insert_metrics(list(metrics))

    # -- read path -------------------------------------------------------------

    def load_blob(self, instance_id: str) -> bytes:
        """Fetch an instance's blob: metadata → location → cache → store."""
        instance = self._metadata.get_instance(instance_id)
        location = instance.blob_location
        if not location:
            raise ConsistencyError(
                f"instance {instance_id!r} has no blob location recorded"
            )
        if self._cache is not None:
            cached = self._cache.get(location)
            if cached is not None:
                return cached
        try:
            data = self._blobs.get(location)
        except BlobStoreError:
            raise
        if self._cache is not None:
            self._cache.put(location, data)
        return data

    def _blob_location(self, instance_id: str) -> str:
        instance = self._metadata.get_instance(instance_id)
        location = instance.blob_location
        if not location:
            raise ConsistencyError(
                f"instance {instance_id!r} has no blob location recorded"
            )
        return location

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

    def referenced_locations(self) -> set[str]:
        """Blob locations reachable from instance metadata."""
        return {
            inst.blob_location
            for inst in self._metadata.iter_instances()
            if inst.blob_location
        }

    def audit_consistency(self) -> ConsistencyReport:
        """Cross-check metadata against the blob store (Section 3.5)."""
        referenced = self.referenced_locations()
        stored = set(self._blobs.locations())
        orphans = tuple(sorted(stored - referenced))
        dangling = tuple(
            sorted(
                inst.instance_id
                for inst in self._metadata.iter_instances()
                if inst.blob_location and inst.blob_location not in stored
            )
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
