"""Chaos suite: the full TCP stack under seeded fault injection.

Scenarios from the reliability ISSUE:

* the server is killed and restarted mid-workload (same service object,
  same port — only the process's listener "dies", state survives);
* every client talks through a seeded :class:`FaultyTransport` (drops,
  timeouts, lost responses) and the server's metadata store is itself
  flaky;
* a stored blob rots at rest.

Invariants asserted:

* **no lost updates** — every acknowledged write is present afterwards;
* **no duplicated writes** — request-id dedup means at-least-once delivery
  still yields exactly-once effect (and ``dedup.hits`` proves replays
  actually happened);
* **bounded recovery** — every client finishes; no thread is wedged;
* **integrity** — every blob read returns correct bytes or raises
  :class:`BlobCorruptionError`; corruption is never served silently.

The slow, concurrent scenarios are marked ``chaos`` and excluded from the
default (tier-1) run; ``make chaos`` runs them.  One fast unmarked test
keeps the harness itself covered in tier-1.
"""

import threading
import time

import pytest

from repro.core.clock import ManualClock
from repro.core.ids import SeededIdFactory
from repro.core.registry import Gallery
from repro.errors import BlobCorruptionError, GalleryError, ServiceError
from repro.reliability import (
    FaultInjector,
    FaultKind,
    FaultyMetadataStore,
    FaultyTransport,
    RetryPolicy,
    corrupt_blob_at_rest,
)
from repro.service import connect
from repro.service.client import MethodRetryPolicies
from repro.service.server import GalleryService
from repro.service.tcp import GalleryTcpServer, PipelinedTcpTransport
from repro.store.blob import FilesystemBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore

CLIENTS = 8
ITEMS_PER_CLIENT = 12
FAULT_RATE = 0.10
WIRE_FAULTS = (
    FaultKind.DROP,
    FaultKind.TIMEOUT,
    FaultKind.ERROR,
    FaultKind.LOST_RESPONSE,
)


def build_stack(tmp_path, store_injector=None):
    """Service over a filesystem blob store + (optionally flaky) metadata."""
    metadata = SQLiteMetadataStore(":memory:")
    if store_injector is not None:
        metadata = FaultyMetadataStore(metadata, store_injector)
    # A 1-byte cache never holds a blob, so every read hits the disk and
    # the integrity check — exactly what the corruption scenarios need.
    dal = DataAccessLayer(metadata, FilesystemBlobStore(tmp_path), LRUBlobCache(1))
    gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(7))
    service = GalleryService(gallery)
    return gallery, service


def chaos_client(host, port, client_id, injector, seed):
    """A ``connect()`` client whose wire is flaky but whose retries are armed.

    The production stack end to end — a fleet-of-one
    :class:`FailoverTransport` over :class:`PipelinedTcpTransport` — with a
    seeded :class:`FaultyTransport` spliced in through ``transport_factory``.
    """
    policy = RetryPolicy(
        max_attempts=8, base_delay=0.05, max_delay=1.0, jitter=0.1, seed=seed
    )
    return connect(
        f"gallery://{host}:{port}",
        client_id=client_id,
        policies=MethodRetryPolicies(read=policy, blob=policy, mutation=policy),
        transport_factory=lambda endpoint: FaultyTransport(
            PipelinedTcpTransport(endpoint.host, endpoint.port, timeout=5.0),
            injector,
        ),
    )


def test_harness_smoke_dedup_and_restart(tmp_path):
    """Tier-1 coverage of the chaos machinery itself (fast, deterministic)."""
    gallery, service = build_stack(tmp_path)
    server = GalleryTcpServer(service).start()
    host, port = server.address
    injector = FaultInjector(seed=1, rate=0.0)
    client = chaos_client(host, port, "smoke-client", injector, seed=1)
    try:
        client.create_gallery_model("p", "demand")
        # Lost response on a write: the retry must be answered from the
        # dedup cache, not executed twice.
        injector.inject_next("call", FaultKind.LOST_RESPONSE)
        client.upload_model("p", "demand", b"v1", metadata={"tag": "one"})
        assert len(gallery.instances_of("demand")) == 1
        assert service.dedup.hits == 1
        # Kill and restart the listener on the same port: the next call
        # rides through on a fresh connection.
        server.stop()
        server = GalleryTcpServer(service, host=host, port=port).start()
        client.upload_model("p", "demand", b"v2", metadata={"tag": "two"})
        assert len(gallery.instances_of("demand")) == 2
    finally:
        client.close()
        server.stop()


@pytest.mark.chaos
class TestConcurrentChaos:
    def test_no_lost_or_duplicated_updates_under_chaos(self, tmp_path):
        store_injector = FaultInjector(
            seed=99,
            rate=FAULT_RATE,
            kinds=(FaultKind.ERROR, FaultKind.TIMEOUT),
            ops={"insert_instance", "insert_metric", "get_instance"},
            armed=False,
        )
        gallery, service = build_stack(tmp_path, store_injector=store_injector)
        server = GalleryTcpServer(service).start()
        host, port = server.address

        with connect(f"gallery://{host}:{port}") as setup:
            for ci in range(CLIENTS):
                setup.create_gallery_model("p", f"demand-{ci}")

        acked: dict[str, str] = {}  # tag -> instance_id, acknowledged writes
        acked_metrics: set[str] = set()
        failures: list[str] = []
        lock = threading.Lock()

        def worker(ci: int) -> None:
            injector = FaultInjector(seed=100 + ci, rate=FAULT_RATE, kinds=WIRE_FAULTS)
            client = chaos_client(host, port, f"chaos-{ci}", injector, seed=ci)
            if ci == 0:
                # Guarantee at least one dedup-protected replay regardless
                # of what the random schedule serves up.
                injector.inject_next("call", FaultKind.LOST_RESPONSE)
            try:
                for j in range(ITEMS_PER_CLIENT):
                    tag = f"c{ci}-i{j}"
                    try:
                        instance = client.upload_model(
                            "p",
                            f"demand-{ci}",
                            f"weights-{tag}".encode() * 50,
                            metadata={"tag": tag},
                        )
                    except (ServiceError, GalleryError):
                        with lock:
                            failures.append(f"upload:{tag}")
                        continue
                    with lock:
                        acked[tag] = instance["instance_id"]
                    try:
                        client.insert_model_instance_metric(
                            instance["instance_id"], "bias", j * 0.01
                        )
                    except (ServiceError, GalleryError):
                        with lock:
                            failures.append(f"metric:{tag}")
                    else:
                        with lock:
                            acked_metrics.add(instance["instance_id"])
            finally:
                client.close()

        threads = [
            threading.Thread(target=worker, args=(ci,), name=f"chaos-{ci}")
            for ci in range(CLIENTS)
        ]
        started = time.monotonic()
        store_injector.arm()
        for thread in threads:
            thread.start()

        # Kill the server mid-workload, then bring it back on the SAME port
        # with the SAME service — a process restart in front of durable
        # state.  The dedup cache lives in the service, so replays of
        # pre-restart writes still hit it.
        time.sleep(0.5)
        server.stop()
        time.sleep(0.25)
        server = GalleryTcpServer(service, host=host, port=port).start()

        for thread in threads:
            thread.join(timeout=90.0)
        elapsed = time.monotonic() - started
        store_injector.disarm()
        wedged = [t.name for t in threads if t.is_alive()]
        server.stop()

        # -- bounded recovery ------------------------------------------------
        assert wedged == [], f"threads never recovered: {wedged}"
        assert elapsed < 90.0

        # -- no lost updates, no duplicates ----------------------------------
        for ci in range(CLIENTS):
            instances = gallery.instances_of(f"demand-{ci}")
            by_tag: dict[str, int] = {}
            for instance in instances:
                tag = instance.metadata.get("tag", "?")
                by_tag[tag] = by_tag.get(tag, 0) + 1
            duplicated = {tag: n for tag, n in by_tag.items() if n > 1}
            assert duplicated == {}, f"duplicated writes: {duplicated}"
            for j in range(ITEMS_PER_CLIENT):
                tag = f"c{ci}-i{j}"
                if tag in acked:
                    assert by_tag.get(tag) == 1, f"acked write lost: {tag}"

        # Metrics: an acknowledged metric insert landed exactly once.
        metadata_store = gallery.dal.metadata
        if isinstance(metadata_store, FaultyMetadataStore):
            metadata_store = metadata_store.inner
        for instance_id in acked_metrics:
            rows = metadata_store.metrics_of_instance(instance_id)
            assert len(rows) == 1, f"metric duplicated or lost for {instance_id}"

        # -- the chaos was real, and dedup really fired ----------------------
        assert service.dedup.hits >= 1
        total_ops = CLIENTS * ITEMS_PER_CLIENT * 2
        assert len(acked) + len(acked_metrics) >= int(total_ops * 0.8), (
            f"too little progress under chaos: {len(failures)} failures "
            f"of {total_ops} ops"
        )

        # -- storage integrity ----------------------------------------------
        audit = gallery.dal.audit_consistency()
        # Orphan blobs are legitimate debris of interrupted uploads; an
        # instance whose blob is missing would be actual data loss.
        assert list(audit.dangling_instances) == []

        # Every acknowledged blob reads back correct, byte for byte.
        for tag, instance_id in acked.items():
            blob = gallery.dal.load_blob(instance_id)
            assert blob == f"weights-{tag}".encode() * 50

    def test_corrupted_blob_is_detected_never_served(self, tmp_path):
        gallery, service = build_stack(tmp_path)
        server = GalleryTcpServer(service).start()
        host, port = server.address
        injector = FaultInjector(seed=7, rate=0.0)
        client = chaos_client(host, port, "corrupt-probe", injector, seed=7)
        try:
            client.create_gallery_model("p", "demand")
            instances = [
                client.upload_model(
                    "p", "demand", f"payload-{j}".encode() * 100,
                    metadata={"tag": f"i{j}"},
                )
                for j in range(4)
            ]
            victim = instances[1]
            record = gallery.get_instance(victim["instance_id"])
            corrupt_blob_at_rest(gallery.dal.blobs, record.blob_location)

            # The corrupted blob is *detected*, and the typed error crosses
            # the wire to the client instead of silently wrong bytes.
            with pytest.raises(BlobCorruptionError):
                client.load_model_blob(victim["instance_id"])

            # Everyone else still reads back exactly what they stored.
            for j, instance in enumerate(instances):
                if instance["instance_id"] == victim["instance_id"]:
                    continue
                blob = client.load_model_blob(instance["instance_id"])
                assert blob == f"payload-{j}".encode() * 100
        finally:
            client.close()
            server.stop()
