"""EXP-STORE — Section 3.5: the write-blob-first consistency protocol.

"We always write model blobs first and only write the model metadata after
the model blobs are successfully stored.  If the model blob ... is saved
but the metadata fails to save, then the model instance will not be
available in the system."

A fault-injection sweep fails a configurable fraction of blob writes and
metadata writes during a 500-instance ingest, then audits storage.  The
reproduction target: **zero dangling metadata** at any failure rate —
failed ingests produce either nothing or an invisible, GC-able orphan
blob.  The benchmark times a clean save through the full DAL path.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import report

from repro.core.records import ModelInstance
from repro.errors import GalleryError
from repro.reliability import FaultInjector, FaultyBlobStore, FaultyMetadataStore
from repro.store.blob import FilesystemBlobStore, InMemoryBlobStore, content_address
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore

N_INSTANCES = 500


def ingest_with_faults(blob_fail_rate: float, metadata_fail_rate: float, seed: int):
    metadata = FaultyMetadataStore(
        SQLiteMetadataStore(":memory:"),
        FaultInjector(seed, metadata_fail_rate, ops={"insert_instance"}),
    )
    blobs = FaultyBlobStore(
        InMemoryBlobStore(), FaultInjector(seed + 1, blob_fail_rate, ops={"put"})
    )
    dal = DataAccessLayer(metadata, blobs, LRUBlobCache(1 << 20))
    saved = failed = 0
    for index in range(N_INSTANCES):
        instance = ModelInstance(
            instance_id=f"i{index:05d}",
            model_id="m",
            base_version_id="demand",
            created_time=float(index),
        )
        try:
            dal.save_instance(instance, f"blob-{index}".encode())
            saved += 1
        except GalleryError:
            failed += 1
    audit = dal.audit_consistency()
    # every visible instance must serve its blob
    for record in metadata.iter_instances():
        assert dal.load_blob(record.instance_id)
    return saved, failed, audit


class MetadataFirstDAL(DataAccessLayer):
    """Counterfactual: the ordering the paper rejects.

    Writes metadata before the blob, so a blob-write failure strands
    metadata that points at nothing — exactly the corruption class the
    paper's write-blob-first rule exists to rule out.  The row records the
    location the content-addressed store will give the blob.
    """

    def save_instance(self, instance, blob):
        stored = replace(instance, blob_location=f"fs://{content_address(blob)}")
        self.metadata.insert_instance(stored)
        self.blobs.put(blob, hint=instance.instance_id)
        return stored


def ingest_metadata_first(blob_fail_rate: float, seed: int, blob_dir):
    blobs = FaultyBlobStore(
        FilesystemBlobStore(blob_dir), FaultInjector(seed, blob_fail_rate, ops={"put"})
    )
    dal = MetadataFirstDAL(SQLiteMetadataStore(":memory:"), blobs, None)
    for index in range(N_INSTANCES):
        instance = ModelInstance(
            instance_id=f"i{index:05d}",
            model_id="m",
            base_version_id="demand",
            created_time=float(index),
        )
        try:
            dal.save_instance(instance, f"blob-{index}".encode())
        except GalleryError:
            pass
    return len(dal.audit_consistency().dangling_instances)


def test_write_blob_first_consistency(benchmark, tmp_path):
    lines = [
        f"{'blob-fail':>10}{'meta-fail':>10}{'saved':>8}{'failed':>8}"
        f"{'orphan blobs':>14}{'dangling meta':>15}"
    ]
    for blob_rate, metadata_rate in [
        (0.0, 0.0), (0.05, 0.0), (0.0, 0.05), (0.1, 0.1), (0.3, 0.3),
    ]:
        saved, failed, audit = ingest_with_faults(blob_rate, metadata_rate, seed=77)
        assert audit.consistent, "dangling metadata must be impossible"
        assert saved + failed == N_INSTANCES
        if blob_rate == metadata_rate == 0.0:
            assert failed == 0 and audit.orphan_blobs == ()
        lines.append(
            f"{blob_rate:>10.2f}{metadata_rate:>10.2f}{saved:>8}{failed:>8}"
            f"{len(audit.orphan_blobs):>14}{len(audit.dangling_instances):>15}"
        )

    # orphan GC reclaims everything the failures left behind
    saved, failed, audit = ingest_with_faults(0.0, 0.2, seed=78)
    assert len(audit.orphan_blobs) > 0

    lines.append("")
    lines.append("dangling metadata at every failure rate: 0 (the paper's guarantee)")
    lines.append("metadata-write failures leave only invisible, GC-able orphan blobs")

    # counterfactual: metadata-first ordering under the same blob failures
    counterfactual_dangling = ingest_metadata_first(0.1, seed=79, blob_dir=tmp_path)
    assert counterfactual_dangling > 0, (
        "metadata-first must exhibit the hazard blob-first prevents"
    )
    lines.append("")
    lines.append(
        f"counterfactual (metadata written FIRST, 10% blob failures): "
        f"{counterfactual_dangling} dangling records pointing at missing blobs"
    )

    # benchmark the clean write path
    dal = DataAccessLayer(
        SQLiteMetadataStore(":memory:"), InMemoryBlobStore(), LRUBlobCache(1 << 20)
    )
    counter = iter(range(10_000_000))

    def save_one():
        index = next(counter)
        dal.save_instance(
            ModelInstance(
                instance_id=f"bench-{index}",
                model_id="m",
                base_version_id="demand",
                created_time=float(index),
            ),
            b"payload" * 16,
        )

    benchmark(save_one)
    report("EXP-STORE_write_blob_first", lines)
