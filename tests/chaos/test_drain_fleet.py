"""Chaos suite: graceful drain + dynamic fleet membership under live load.

The zero-downtime-deploy scenario the membership layer exists for
(ROADMAP item 2): replicas leave and join a serving fleet *while 8
clients hammer it*, coordinated only through a registry file — no client
is ever restarted, reconfigured, or even told.

Timeline of the chaos scenario:

1. 3 replicas over one shared sharded store; a registry file lists them;
   every client connects via ``gallery+file://`` and polls the file.
2. Mid-workload, replicas 0 and 1 — every replica but the last in
   registry order — are **drained**: they finish in-flight requests,
   refuse new work with the typed retryable
   :class:`~repro.errors.ReplicaDrainingError`, and clients re-route
   without surfacing a single error.  Half the clients connect only
   now: a fresh client's first pick is never the last replica, so each
   of them provably meets the drain.
3. Replica 0 is **killed** and removed from the registry — safe, because
   the drain already emptied it.
4. A **rebuilt** replica starts in the draining state, is added to the
   registry (clients pick it up live), and is then **undrained** — from
   that poll on it serves traffic.
5. After the workload: the original survivors are drained, and a client
   that connected *before the rebuilt replica existed* must still
   complete reads — proof the new replica serves its traffic with no
   client restart.

Invariants: zero lost acked writes, zero duplicates, zero client-visible
errors through the whole churn.

The concurrent scenario is marked ``chaos`` (run via ``make drain``);
the smoke test keeps the registry + drain harness covered in tier-1.
"""

import threading
import time

import pytest

from repro.errors import GalleryError, ServiceError
from repro.service import connect

from tests.chaos.test_failover_replicas import (
    CLIENTS,
    ITEMS_PER_CLIENT,
    Replica,
    robust_policies,
    verification_gallery,
)


def write_registry(path, replicas):
    """Atomically publish the fleet (write-then-rename: pollers never see
    a torn file)."""
    tmp = path.with_suffix(".tmp")
    tmp.write_text(
        "# serving fleet\n"
        + "\n".join(r.address for r in replicas)
        + "\n"
    )
    tmp.replace(path)


def registry_url(path, **params):
    query = "&".join(f"{k}={v}" for k, v in params.items())
    return f"gallery+file://{path}" + (f"?{query}" if query else "")


def wait_for_membership(client, addresses, timeout=10.0):
    """Block until *client*'s transport routes over exactly *addresses*."""
    want = sorted(addresses)
    deadline = time.monotonic() + timeout
    transport = client._transport  # noqa: SLF001 - test probe
    while time.monotonic() < deadline:
        if sorted(e.address for e in transport.endpoints) == want:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"membership never converged to {want}: "
        f"{[e.address for e in transport.endpoints]}"
    )


def test_drain_smoke_registry_feeds_clients_live(tmp_path):
    """Tier-1 coverage of the registry + drain harness (fast, no churn
    threads): drain re-routing, a registry edit removing a replica, and a
    rebuilt replica serving a pre-existing client."""
    replicas = [Replica(tmp_path) for _ in range(3)]
    registry = tmp_path / "fleet.txt"
    write_registry(registry, replicas)
    client = connect(
        registry_url(registry, poll="0.05"),
        client_id="drain-smoke",
        reset_timeout=0.2,
    )
    new = None
    try:
        # -- drain every replica but the last: zero client-visible errors --
        # The client has made no call yet, so every replica scores 0 and
        # ties break toward endpoint order: its first pick is never the
        # last replica, so it provably meets a drain and re-routes.
        for replica in replicas[:-1]:
            assert replica.server.drain(wait_timeout=5.0) is True
            assert replica.server.draining
        client.create_gallery_model("p", "m")
        for n in range(6):
            client.upload_model("p", "m", b"w%d" % n, metadata={"n": n})
        assert len(client.call("instancesOf", base_version_id="m")) == 6

        # -- registry edit removes the drained replica --------------------
        write_registry(registry, replicas[1:])
        wait_for_membership(client, [r.address for r in replicas[1:]])
        replicas[0].stop()

        # -- a rebuilt replica joins via the registry, no client restart --
        new = Replica(tmp_path)
        write_registry(registry, replicas[1:] + [new])
        wait_for_membership(
            client, [r.address for r in replicas[1:]] + [new.address]
        )
        # drain the originals: only the new replica can answer now
        for replica in replicas[1:]:
            assert replica.server.drain(wait_timeout=5.0) is True
        assert len(client.call("instancesOf", base_version_id="m")) == 6
        transport = client._transport  # noqa: SLF001 - test probe
        assert transport.membership_swaps >= 2
        assert transport.drain_reroutes >= 1
    finally:
        client.close()
        for replica in replicas[1:]:
            replica.stop()
        if new is not None:
            new.stop()


@pytest.mark.chaos
class TestDrainFleetChaos:
    def test_drain_kill_rebuild_under_live_load(self, tmp_path):
        replicas = [Replica(tmp_path) for _ in range(3)]
        registry = tmp_path / "fleet.txt"
        write_registry(registry, replicas)
        url = registry_url(registry, poll="0.1")

        setup = connect(
            url, client_id="setup", policies=robust_policies(seed=99)
        )
        for ci in range(CLIENTS):
            setup.create_gallery_model("p", f"demand-{ci}")

        acked: dict[str, str] = {}  # tag -> instance_id
        failures: list[str] = []
        drain_reroutes = [0] * CLIENTS
        lock = threading.Lock()
        midway = threading.Event()

        def worker(ci: int) -> None:
            client = connect(
                url,
                client_id=f"drain-{ci}",
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
                    time.sleep(0.01)  # keep the workload alive past the churn
            finally:
                drain_reroutes[ci] = (
                    client._transport.drain_reroutes  # noqa: SLF001
                )
                client.close()

        threads = [
            threading.Thread(target=worker, args=(ci,), name=f"drain-{ci}")
            for ci in range(CLIENTS)
        ]
        early, late = threads[: CLIENTS // 2], threads[CLIENTS // 2 :]
        started = time.monotonic()
        for thread in early:
            thread.start()

        rebuilt = None
        try:
            # -- mid-workload: drain all but the last, kill replica 0 -----
            assert midway.wait(timeout=30.0), "workload never reached midway"
            for replica in replicas[:-1]:
                assert replica.server.drain(wait_timeout=10.0) is True
            # Late clients start fresh: every replica scores 0 and ties
            # break toward registry order, so each first pick is a
            # draining (or, once replica 0 is gone, dead) replica.
            for thread in late:
                thread.start()
            # the drain emptied it, so the kill loses nothing
            write_registry(registry, replicas[1:])
            time.sleep(0.3)  # let pollers drop it before the port dies
            replicas[0].stop()

            # -- a rebuilt replica joins draining, then is undrained ------
            rebuilt = Replica(tmp_path)
            rebuilt.server.drain(wait_timeout=1.0)
            write_registry(registry, replicas[1:] + [rebuilt])
            time.sleep(0.3)
            rebuilt.server.undrain()

            for thread in threads:
                thread.join(timeout=60.0)
            elapsed = time.monotonic() - started
            wedged = [t.name for t in threads if t.is_alive()]
            assert wedged == [], f"threads never recovered: {wedged}"
            assert elapsed < 60.0

            # -- zero client-visible errors through the whole churn -------
            assert failures == [], f"client-visible errors: {failures}"
            assert sum(drain_reroutes) >= 1, "the drain was never exercised"

            # -- the rebuilt replica serves a PRE-EXISTING client ---------
            wait_for_membership(
                setup, [r.address for r in replicas[1:]] + [rebuilt.address]
            )
            for replica in replicas[1:]:
                assert replica.server.drain(wait_timeout=10.0) is True
            assert (
                len(setup.call("instancesOf", base_version_id="demand-0")) > 0
            )
            report = setup._transport.load_report()  # noqa: SLF001
            assert report[rebuilt.address]["breaker"] == "closed"
        finally:
            setup.close()
            for replica in replicas[1:]:
                replica.stop()
            if rebuilt is not None:
                rebuilt.stop()

        # -- no lost acked writes, no duplicates --------------------------
        check, check_store = verification_gallery(tmp_path)
        try:
            for ci in range(CLIENTS):
                instances = check.instances_of(f"demand-{ci}")
                by_tag: dict[str, int] = {}
                for instance in instances:
                    tag = instance.metadata.get("tag", "?")
                    by_tag[tag] = by_tag.get(tag, 0) + 1
                duplicated = {t: n for t, n in by_tag.items() if n > 1}
                assert duplicated == {}, f"duplicated writes: {duplicated}"
                for j in range(ITEMS_PER_CLIENT):
                    tag = f"c{ci}-i{j}"
                    if tag in acked:
                        assert by_tag.get(tag) == 1, f"acked write lost: {tag}"
            for tag, instance_id in acked.items():
                assert check.dal.load_blob(instance_id) == (
                    f"weights-{tag}".encode() * 50
                ), f"blob corrupted: {tag}"
        finally:
            check_store.close()
