"""Chaos suite: N serving replicas over one shared store, clients
failing over between them.

This is the deployment the paper describes in Section 4 — a stateless
service tier, horizontally scaled, in front of a shared storage layer —
driven through :func:`repro.service.connect`:

* every replica is a full stack (its own **sharded** metadata store —
  :func:`repro.store.sharding.open_sharded_store` over a shared 3-shard
  layout, exercising PR 6's partitioned metadata plane under kill/restart
  — plus DAL, :class:`Gallery`, :class:`GalleryService`, TCP server) over
  one shard directory + one blob tree;
* clients hold a single ``gallery://`` URL naming every replica; the
  :class:`FailoverTransport` spreads reads, skips tripped breakers, and
  replays interrupted mutations against a different replica;
* the replay is safe because all replicas share the durable
  ``dedup_entries`` claim table — the second replica answers from the
  table instead of executing the mutation twice.

Invariants (mirroring the single-server chaos suite, now across a
replica kill + restart):

* **no lost acked writes** — every acknowledged upload/metric exists;
* **no duplicates** — at-least-once delivery, exactly-once effect;
* **bounded recovery** — every client finishes inside one retry budget;
* **durability** — dedup state survives a full restart of *all* replicas.

The concurrent scenario is marked ``chaos`` (run via ``make failover``);
the smoke test below keeps the harness covered in tier-1.
"""

import threading
import time

import pytest

from repro.core.registry import Gallery
from repro.errors import GalleryError, ServiceError
from repro.reliability import RetryPolicy
from repro.service import connect, wire
from repro.service.client import MethodRetryPolicies
from repro.service.server import DurableRequestDedupCache, GalleryService
from repro.service.tcp import GalleryTcpServer, PipelinedTcpTransport
from repro.store.blob import FilesystemBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from repro.store.sharding import open_sharded_store

CLIENTS = 8
ITEMS_PER_CLIENT = 12
SHARDS = 3


class Replica:
    """One full serving stack over the shared shard layout + blob tree."""

    def __init__(self, tmp_path, host="127.0.0.1", port=0):
        self.store = open_sharded_store(str(tmp_path / "shards"), SHARDS)
        self.dal = DataAccessLayer(
            self.store,
            FilesystemBlobStore(tmp_path / "blobs"),
            LRUBlobCache(8),
        )
        self.gallery = Gallery(self.dal)
        self.service = GalleryService(self.gallery)
        self.server = GalleryTcpServer(self.service, host=host, port=port).start()

    @property
    def address(self):
        host, port = self.server.address
        return f"{host}:{port}"

    def stop(self):
        self.server.stop()
        self.store.close()


def start_replicas(tmp_path, count=3):
    return [Replica(tmp_path) for _ in range(count)]


def url_for(replicas, **params):
    query = "&".join(f"{k}={v}" for k, v in params.items())
    return (
        "gallery://" + ",".join(r.address for r in replicas)
        + (f"?{query}" if query else "")
    )


def verification_gallery(tmp_path):
    """A fresh, replica-independent view of the shared store."""
    store = open_sharded_store(str(tmp_path / "shards"), SHARDS)
    dal = DataAccessLayer(
        store, FilesystemBlobStore(tmp_path / "blobs"), LRUBlobCache(8)
    )
    return Gallery(dal), store


def robust_policies(seed=0):
    def policy(attempts, deadline):
        # Budgets must outlast the dedup table's 5s stale-claim takeover:
        # a mutation interrupted mid-execution by the kill stays "pending"
        # until a retry adopts it, so the retry schedule has to still be
        # going at that point.
        return RetryPolicy(
            max_attempts=attempts,
            base_delay=0.05,
            max_delay=1.5,
            jitter=0.1,
            seed=seed,
            deadline=deadline,
        )

    return MethodRetryPolicies(
        read=policy(10, 20.0), blob=policy(10, 30.0), mutation=policy(10, 20.0)
    )


def replay_frame(request_id=4242, client_id="replay-probe", tag="replayed"):
    """A raw mutation frame with PINNED identity: byte-identical resends
    of this frame model a client retrying across replicas/restarts."""
    return wire.encode_request(
        wire.Request(
            method="uploadModel",
            params={
                "project": "p",
                "base_version_id": "demand-replay",
                "blob": b"replay-weights",
                "metadata": {"tag": tag},
            },
            request_id=request_id,
            client_id=client_id,
        ),
    )


def test_failover_smoke_replicas_share_state_and_dedup(tmp_path):
    """Tier-1 coverage of the replica harness (fast, deterministic)."""
    replicas = start_replicas(tmp_path, count=3)
    client = connect(url_for(replicas), client_id="smoke", reset_timeout=0.2)
    try:
        # file-backed store => every replica auto-selected durable dedup
        for replica in replicas:
            assert isinstance(replica.service.dedup, DurableRequestDedupCache)

        client.create_gallery_model("p", "demand")
        for n in range(3):
            client.upload_model("p", "demand", b"w%d" % n, metadata={"n": n})
        # reads spread across replicas yet all see the shared store
        for _ in range(3):
            assert len(client.call("instancesOf", base_version_id="demand")) == 3

        # -- byte-identical mutation replay across DIFFERENT replicas ------
        client.create_gallery_model("p", "demand-replay")
        frame = replay_frame()
        direct_b = PipelinedTcpTransport(*replicas[1].server.address)
        direct_c = PipelinedTcpTransport(*replicas[2].server.address)
        try:
            first = direct_b(frame)
            replayed = direct_c(frame)  # never executed twice
        finally:
            direct_b.close()
            direct_c.close()
        assert replayed == first
        assert len(replicas[0].gallery.instances_of("demand-replay")) == 1

        # -- kill every replica but the last: calls reroute, no error -----
        # A fresh client scores every replica 0 and breaks ties toward
        # endpoint order, so its first pick is never the last replica: it
        # provably dials a corpse and fails over (the measured client above
        # may legitimately route around one).
        for replica in replicas[:-1]:
            replica.server.stop()
        survivor = connect(url_for(replicas), client_id="smoke-kill")
        try:
            for n in range(4):
                survivor.upload_model(
                    "p", "demand", b"x%d" % n, metadata={"kill": n}
                )
            assert len(survivor.call("instancesOf", base_version_id="demand")) == 7
            assert survivor._transport.failovers >= 1  # noqa: SLF001 - test probe
        finally:
            survivor.close()

        # -- full restart of every replica over the same file --------------
        for replica in replicas:
            replica.stop()
        revived = start_replicas(tmp_path, count=2)
        try:
            direct = PipelinedTcpTransport(*revived[0].server.address)
            try:
                after_restart = direct(frame)  # same bytes, third send
            finally:
                direct.close()
            response = wire.decode_response(after_restart)
            assert response.ok  # replayed from the durable claim table
            check, check_store = verification_gallery(tmp_path)
            assert len(check.instances_of("demand-replay")) == 1
            assert len(check.instances_of("demand")) == 7
            check_store.close()
        finally:
            for replica in revived:
                replica.stop()
    finally:
        client.close()
        for replica in replicas:
            replica.server.stop()


@pytest.mark.chaos
class TestReplicaKillChaos:
    def test_replica_kill_and_restart_under_load(self, tmp_path):
        replicas = start_replicas(tmp_path, count=3)
        url = url_for(replicas)

        setup = connect(url, client_id="setup")
        for ci in range(CLIENTS):
            setup.create_gallery_model("p", f"demand-{ci}")
        setup.close()

        acked: dict[str, str] = {}  # tag -> instance_id
        acked_metrics: set[str] = set()
        failures: list[str] = []
        failovers = [0] * CLIENTS
        lock = threading.Lock()
        midway = threading.Event()

        def worker(ci: int) -> None:
            client = connect(
                url,
                client_id=f"chaos-{ci}",
                policies=robust_policies(seed=ci),
                reset_timeout=0.5,
            )
            try:
                for j in range(ITEMS_PER_CLIENT):
                    if j == 4:
                        midway.set()
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
                    time.sleep(0.01)  # keep the workload alive past the kill
            finally:
                failovers[ci] = client._transport.failovers  # noqa: SLF001
                client.close()

        threads = [
            threading.Thread(target=worker, args=(ci,), name=f"failover-{ci}")
            for ci in range(CLIENTS)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()

        # Kill replica 0 mid-workload, then REBUILD it from the shared
        # file on the same port — a true process restart, not a listener
        # blip: fresh store connections, fresh Gallery, fresh service.
        # In-flight calls against it fail over; replays of its acked
        # writes are answered from the shared dedup table.
        assert midway.wait(timeout=30.0), "workload never reached midway"
        host, port = replicas[0].server.address
        replicas[0].stop()
        time.sleep(0.3)
        replicas[0] = Replica(tmp_path, host=host, port=port)

        for thread in threads:
            thread.join(timeout=60.0)
        elapsed = time.monotonic() - started
        wedged = [t.name for t in threads if t.is_alive()]
        for replica in replicas:
            replica.stop()

        # -- bounded recovery (reroute within one retry budget) -------------
        assert wedged == [], f"threads never recovered: {wedged}"
        assert elapsed < 60.0
        assert failures == [], f"ops failed despite two live replicas: {failures}"
        assert sum(failovers) >= 1, "the kill was never even noticed"

        # -- no lost acked writes, no duplicates -----------------------------
        check, check_store = verification_gallery(tmp_path)
        try:
            for ci in range(CLIENTS):
                instances = check.instances_of(f"demand-{ci}")
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

            # an acknowledged metric insert landed exactly once
            for instance_id in acked_metrics:
                rows = check_store.metrics_of_instance(instance_id)
                assert len(rows) == 1, f"metric duplicated or lost: {instance_id}"

            # every acked blob reads back byte for byte
            for tag, instance_id in acked.items():
                assert check.dal.load_blob(instance_id) == (
                    f"weights-{tag}".encode() * 50
                )
        finally:
            check_store.close()
