"""A replica's threads and SQLite connections follow its CPUs, not its load.

Gallery's service layer is a stateless microservice (PAPER.md §2), so what a
replica costs should depend on the cores it may run on.  These tests drive
every kind of request through a real ``GalleryTcpServer`` over a file-backed
four-shard store, then count what the replica started: the event loop, the
read collector and one write worker per CPU, and at most one SQLite
connection per shard for each of those threads plus the one that opened it.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro import build_gallery
from repro.service import connect
from repro.service.server import GalleryService
from repro.service.tcp import GalleryTcpServer, default_workers

SHARDS = 4


def _exercise(url: str) -> None:
    """Uploads, metrics, an assignment, queries and blob loads."""
    client = connect(url)
    try:
        client.create_gallery_model("p", "demand")
        ids = []
        for index in range(6):
            instance = client.upload_model(
                "p",
                "demand",
                blob=f"blob-{index}".encode() * 512,
                metadata={"city": "sf", "model_name": "rf"},
            )
            ids.append(instance["instance_id"])
            client.insert_model_instance_metrics(
                instance["instance_id"], {"mape": 0.1 * index}
            )
        client.assign_serving("sf", ids[-1], reason="launch")
        for _ in range(3):
            hits = client.model_query(
                [{"field": "city", "operator": "equal", "value": "sf"}]
            )
            assert len(hits) == len(ids)
        for instance_id in ids:
            assert client.load_model_blob(instance_id).startswith(b"blob-")
    finally:
        client.close()


def test_a_two_cpu_replica_runs_the_loop_the_collector_and_two_workers(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    before = set(threading.enumerate())
    gallery = build_gallery("sqlite", "fs", data_dir=tmp_path, shard_count=SHARDS)
    service = GalleryService(gallery)
    server = GalleryTcpServer(service).start()
    try:
        host, port = server.address
        _exercise(f"gallery://{host}:{port}")
        started = sorted(
            thread.name
            for thread in set(threading.enumerate()) - before
            if thread.name != "gallery-pipeline-reader"  # the client's own
        )
        connections = [
            shard["open_connections"]
            for shard in gallery.dal.metadata.connection_info()["shards"]
        ]
    finally:
        server.stop()
        service.read_batcher.close()
        gallery.dal.metadata.close()
    assert started == [
        "gallery-read-batcher",
        "gallery-tcp",
        "gallery-worker-0",
        "gallery-worker-1",
    ], "no shard-scatter pool, no extra worker"
    # Every thread that touched a shard holds one connection to it: the
    # two workers, the collector and the thread that opened the store.
    assert len(connections) == SHARDS
    assert max(connections) <= 2 + 2


@pytest.mark.parametrize(
    ("cpus", "workers"), [({0}, 2), ({0, 1}, 2), (set(range(8)), 8)]
)
def test_the_pool_has_one_worker_per_usable_cpu_and_at_least_two(
    monkeypatch, cpus, workers
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert default_workers() == workers


def test_without_an_affinity_call_the_pool_counts_every_cpu(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert default_workers() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_workers() == 2
