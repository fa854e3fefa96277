"""Concurrent serving: one TCP server, many client threads, SQLite in WAL.

The tentpole claim of the read-path overhaul: a file-backed SQLite store
opens one connection per thread (WAL mode), so the threaded TCP server's
readers proceed in parallel while writers stay serialized.  These tests
hammer a single :class:`GalleryTcpServer` from ≥8 threads mixing reads and
metric writes and assert no lost updates, no duplicate ids, and that the
insert-only immutability invariants still hold under load.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro import build_gallery
from repro.core import ManualClock
from repro.errors import MetadataStoreError
from repro.service.client import GalleryClient
from repro.service.server import GalleryService
from repro.service.tcp import GalleryTcpServer, PipelinedTcpTransport

N_THREADS = 8
N_OPS = 12


@pytest.fixture
def serving(tmp_path):
    """A file-backed (WAL) SQLite gallery behind a live TCP server."""
    gallery = build_gallery(
        metadata_backend="sqlite",
        blob_backend="memory",
        data_dir=tmp_path,
        clock=ManualClock(),
    )
    service = GalleryService(gallery)
    with GalleryTcpServer(service) as server:
        yield gallery, server
    gallery.dal.metadata.close()


def run_threads(worker, n_threads=N_THREADS):
    errors: list[Exception] = []

    def wrapped(index):
        try:
            worker(index)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert errors == [], errors


def client_for(server) -> GalleryClient:
    host, port = server.address
    return GalleryClient(PipelinedTcpTransport(host, port))


class TestWalMode:
    def test_file_backed_store_runs_wal_per_thread(self, serving):
        gallery, _server = serving
        info = gallery.dal.metadata.connection_info()
        assert info["journal_mode"] == "wal"
        assert not info["serialized"]


class TestConcurrentServing:
    def test_mixed_reads_and_metric_writes(self, serving):
        gallery, server = serving
        seed_client = client_for(server)
        seed_client.create_gallery_model("p", "demand")
        instances = [
            seed_client.upload_model(
                "p",
                "demand",
                blob=f"blob-{i}".encode(),
                metadata={"model_name": "rf", "city": f"city-{i % 3}"},
            )
            for i in range(6)
        ]

        def worker(index):
            client = client_for(server)
            try:
                target = instances[index % len(instances)]
                for i in range(N_OPS):
                    # write: single metric + a bulk batch
                    client.insert_model_instance_metric(
                        target["instance_id"], f"m-{index}-{i}", float(i)
                    )
                    client.insert_model_instance_metrics(
                        target["instance_id"],
                        {f"batch-{index}-{i}-a": 0.1, f"batch-{index}-{i}-b": 0.2},
                    )
                    # reads: search, latest, blob fetch, batched metrics
                    hits = client.model_query(
                        [{"field": "city", "operator": "equal", "value": "city-0"}]
                    )
                    assert hits, "narrowed search must keep finding instances"
                    latest = client.latest_instance("demand")
                    assert latest["instance_id"] == instances[-1]["instance_id"]
                    blob = client.load_model_blob(target["instance_id"])
                    assert blob == f"blob-{instances.index(target)}".encode()
                    grouped = client.metrics_for_instances(
                        [target["instance_id"]]
                    )
                    assert target["instance_id"] in grouped
            finally:
                client._transport.close()  # noqa: SLF001 - test teardown

        run_threads(worker)

        # no lost updates: every thread wrote N_OPS singles + 2*N_OPS batched
        expected = {}
        for index in range(N_THREADS):
            iid = instances[index % len(instances)]["instance_id"]
            expected[iid] = expected.get(iid, 0) + 3 * N_OPS
        grouped = gallery.metrics_for_instances(list(expected))
        for iid, count in expected.items():
            assert len(grouped[iid]) == count, f"lost metrics on {iid}"
        # no duplicate ids anywhere
        all_ids = [m.metric_id for records in grouped.values() for m in records]
        assert len(all_ids) == len(set(all_ids))
        assert gallery.dal.audit_consistency().consistent

    def test_concurrent_uploads_unique_ids_and_versions(self, serving):
        gallery, server = serving
        seed_client = client_for(server)
        seed_client.create_gallery_model("p", "demand")
        per_thread = 10

        def worker(index):
            client = client_for(server)
            try:
                for i in range(per_thread):
                    client.upload_model("p", "demand", blob=f"{index}/{i}".encode())
            finally:
                client._transport.close()  # noqa: SLF001

        run_threads(worker)
        total = N_THREADS * per_thread
        instances = gallery.instances_of("demand")
        assert len(instances) == total
        assert len({i.instance_id for i in instances}) == total
        assert len({i.instance_version for i in instances}) == total

    def test_immutability_still_enforced_under_concurrency(self, serving):
        gallery, server = serving
        client = client_for(server)
        client.create_gallery_model("p", "demand")
        uploaded = client.upload_model("p", "demand", blob=b"m")
        record = gallery.get_instance(uploaded["instance_id"])

        violations: list[Exception] = []

        def worker(index):
            if index % 2 == 0:
                # legal: deprecation flag flips are idempotent bookkeeping
                gallery.deprecate_instance(record.instance_id)
            else:
                # illegal: blob_location is immutable — must raise every time
                try:
                    gallery.dal.metadata.update_record(
                        record,
                        lambda i: dataclasses.replace(i, blob_location="mem://moved"),
                    )
                except MetadataStoreError as exc:
                    violations.append(exc)

        run_threads(worker)
        assert len(violations) == N_THREADS // 2
        stored = gallery.get_instance(record.instance_id)
        assert stored.blob_location == record.blob_location
        assert stored.deprecated
