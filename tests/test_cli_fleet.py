"""CLI coverage for fleet administration: ``gallery fleet
status/drain/undrain`` against live TCP replicas, including registry-URL
resolution."""

import json

import pytest

from repro.core.registry import Gallery
from repro.cli import main
from repro.service.server import GalleryService
from repro.service.tcp import GalleryTcpServer
from repro.store.blob import InMemoryBlobStore
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    output = capsys.readouterr().out
    return code, json.loads(output)


@pytest.fixture
def replicas():
    servers = []
    for _ in range(2):
        gallery = Gallery(
            DataAccessLayer(SQLiteMetadataStore(":memory:"), InMemoryBlobStore())
        )
        servers.append(GalleryTcpServer(GalleryService(gallery)).start())
    yield servers
    for server in servers:
        server.stop()


def address(server):
    return "%s:%d" % server.address


def test_fleet_status_drain_undrain_cycle(capsys, replicas):
    url = "gallery://" + ",".join(address(s) for s in replicas)

    code, status = run(capsys, "fleet", "status", url)
    assert code == 0
    assert status["size"] == 2 and status["serving"] == 2
    assert all(r["status"] == "serving" for r in status["fleet"])

    target = address(replicas[0])
    code, drained = run(capsys, "fleet", "drain", target, "--wait", "5")
    assert code == 0
    assert drained["draining"] is True and drained["drained"] is True
    assert replicas[0].draining and not replicas[1].draining

    code, status = run(capsys, "fleet", "status", url)
    assert status["serving"] == 1
    by_address = {r["address"]: r for r in status["fleet"]}
    assert by_address[target]["status"] == "draining"

    code, back = run(capsys, "fleet", "undrain", target)
    assert code == 0 and back["status"] == "serving"
    assert not replicas[0].draining


def test_fleet_status_via_registry_file(capsys, tmp_path, replicas):
    registry = tmp_path / "fleet.txt"
    registry.write_text(
        "# serving fleet\n" + "\n".join(address(s) for s in replicas) + "\n"
    )
    code, status = run(capsys, "fleet", "status", f"gallery+file://{registry}")
    assert code == 0
    assert status["size"] == 2 and status["serving"] == 2


def test_fleet_status_reports_unreachable_replicas(capsys, replicas):
    dead = "127.0.0.1:1"
    url = "gallery://" + address(replicas[0]) + "," + dead
    code, status = run(capsys, "fleet", "status", url)
    assert code == 0
    by_address = {r["address"]: r for r in status["fleet"]}
    assert by_address[dead]["status"] == "unreachable"
    assert status["serving"] == 1


def test_fleet_status_empty_registry_is_loud(capsys, tmp_path):
    registry = tmp_path / "fleet.txt"
    registry.write_text("# nobody home\n")
    code, result = run(capsys, "fleet", "status", f"gallery+file://{registry}")
    assert code == 1
    assert result["error"] == "FleetRegistryError"


def test_server_stats_reports_batching_counters(capsys, replicas):
    target = address(replicas[0])
    code, stats = run(capsys, "server", "stats", target)
    assert code == 0
    assert stats["fleet"]["status"] == "serving"
    batching = stats["batching"]
    assert set(batching["queue_depth"]) == {"interactive", "bulk"}
    assert "coalesce_ratio" in batching
    assert "batch_size_histogram" in batching
    assert "request_dedup" in stats


def test_gc_with_replica_surfaces_live_counters(capsys, tmp_path, replicas):
    data_dir = tmp_path / "gallery"
    run(capsys, "--data-dir", data_dir, "create-model", "p", "demand")
    target = address(replicas[0])
    code, report = run(
        capsys, "--data-dir", data_dir, "gc", "--replica", target
    )
    assert code == 0
    assert report["replica"]["address"] == target
    assert "refusals" in report["replica"]["batching"]
    assert "request_dedup" in report["replica"]
