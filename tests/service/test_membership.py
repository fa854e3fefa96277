"""Dynamic fleet membership: registry parsing, sources, the polling
:class:`FleetRegistry`, live ``update_endpoints`` swaps, and the
departed-endpoint eviction regression (no fd leak across 100 add/remove
cycles against real TCP replicas)."""

import http.server
import os
import threading
import time

import pytest

from repro.core.registry import Gallery
from repro.errors import FleetRegistryError, ValidationError
from repro.service.endpoints import Endpoint, FailoverTransport
from repro.service.membership import (
    DEFAULT_POLL_INTERVAL,
    FileRegistrySource,
    FleetRegistry,
    HttpRegistrySource,
    StaticRegistrySource,
    fleet_endpoints,
    fleet_from_url,
    parse_registry,
)
from repro.service.server import GalleryService
from repro.service.tcp import GalleryTcpServer
from repro.store.blob import InMemoryBlobStore
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore

from tests.service.test_endpoints import (
    Fleet,
    fast_policies,
    frozen_clock,
    ok_frame,
    read_frame,
)


# ---------------------------------------------------------------------------
# parse_registry
# ---------------------------------------------------------------------------


class TestParseRegistry:
    def test_basic_lines_comments_and_blanks(self):
        text = """
        # the serving fleet
        10.0.0.1:9000
        10.0.0.2:9001   # canary

        10.0.0.3:9002
        """
        endpoints = parse_registry(text)
        assert [e.address for e in endpoints] == [
            "10.0.0.1:9000", "10.0.0.2:9001", "10.0.0.3:9002",
        ]

    def test_malformed_line_is_loud_with_line_number(self):
        with pytest.raises(FleetRegistryError, match="line 2"):
            parse_registry("a:1\nnot-an-endpoint\n", origin="fleet.txt")

    def test_non_numeric_port(self):
        with pytest.raises(FleetRegistryError, match="non-numeric port"):
            parse_registry("host:http")

    def test_port_out_of_range(self):
        with pytest.raises(FleetRegistryError, match="out of range"):
            parse_registry("host:70000")

    def test_missing_host(self):
        with pytest.raises(FleetRegistryError, match="must be host:port"):
            parse_registry(":9000")

    def test_duplicate_endpoint_rejected(self):
        with pytest.raises(FleetRegistryError, match="duplicate"):
            parse_registry("a:1\nb:2\na:1\n")

    def test_empty_registry_is_loud(self):
        with pytest.raises(FleetRegistryError, match="empty"):
            parse_registry("# only comments\n\n")

    def test_origin_lands_in_message(self):
        with pytest.raises(FleetRegistryError, match="fleet.txt"):
            parse_registry("", origin="fleet.txt")


# ---------------------------------------------------------------------------
# registry sources
# ---------------------------------------------------------------------------


class TestSources:
    def test_static_source(self):
        source = StaticRegistrySource([Endpoint("a", 1)])
        assert source.load() == (Endpoint("a", 1),)
        source.replace([Endpoint("b", 2), Endpoint("c", 3)])
        assert [e.address for e in source.load()] == ["b:2", "c:3"]

    def test_static_source_rejects_empty(self):
        with pytest.raises(FleetRegistryError):
            StaticRegistrySource([])

    def test_file_source_reads_and_reports_path(self, tmp_path):
        path = tmp_path / "fleet.txt"
        path.write_text("a:1\nb:2\n")
        source = FileRegistrySource(str(path))
        assert [e.address for e in source.load()] == ["a:1", "b:2"]
        assert str(path) in source.describe()

    def test_file_source_missing_file_is_typed(self, tmp_path):
        source = FileRegistrySource(str(tmp_path / "nope.txt"))
        with pytest.raises(FleetRegistryError, match="cannot read"):
            source.load()

    def test_http_source_round_trip(self):
        class Handler(http.server.BaseHTTPRequestHandler):
            body = b"a:1\nb:2\n"
            status = 200

            def do_GET(self):
                self.send_response(self.status)
                self.end_headers()
                self.wfile.write(self.body)

            def log_message(self, *args):  # quiet
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = "http://127.0.0.1:%d/fleet" % server.server_address[1]
            source = HttpRegistrySource(url, timeout=5.0)
            assert [e.address for e in source.load()] == ["a:1", "b:2"]
            Handler.status = 503
            Handler.body = b""
            with pytest.raises(FleetRegistryError):
                source.load()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def test_http_source_unreachable_is_typed(self):
        source = HttpRegistrySource("http://127.0.0.1:1/fleet", timeout=0.2)
        with pytest.raises(FleetRegistryError, match="cannot fetch"):
            source.load()


# ---------------------------------------------------------------------------
# FleetRegistry
# ---------------------------------------------------------------------------


class TestFleetRegistry:
    def test_refresh_bumps_epoch_only_on_change(self):
        source = StaticRegistrySource([Endpoint("a", 1)])
        registry = FleetRegistry(source)
        assert registry.refresh() is True
        assert registry.epoch == 1
        assert registry.refresh() is False  # identical load: free
        assert registry.epoch == 1
        source.replace([Endpoint("a", 1), Endpoint("b", 2)])
        assert registry.refresh() is True
        assert registry.epoch == 2
        assert [e.address for e in registry.endpoints()] == ["a:1", "b:2"]

    def test_subscribers_get_endpoints_and_epoch(self):
        source = StaticRegistrySource([Endpoint("a", 1)])
        registry = FleetRegistry(source)
        seen = []
        registry.subscribe(lambda eps, epoch: seen.append((eps, epoch)))
        registry.refresh()
        source.replace([Endpoint("b", 2)])
        registry.refresh()
        assert seen == [
            ((Endpoint("a", 1),), 1),
            ((Endpoint("b", 2),), 2),
        ]

    def test_subscribe_replays_current_set(self):
        source = StaticRegistrySource([Endpoint("a", 1)])
        registry = FleetRegistry(source)
        registry.refresh()
        seen = []
        registry.subscribe(lambda eps, epoch: seen.append(epoch), replay=True)
        assert seen == [1]
        late = []
        registry.subscribe(lambda eps, epoch: late.append(epoch), replay=False)
        assert late == []

    def test_unresolved_registry_is_loud(self):
        registry = FleetRegistry(StaticRegistrySource([Endpoint("a", 1)]))
        with pytest.raises(FleetRegistryError, match="never resolved"):
            registry.endpoints()

    def test_first_resolve_failure_raises(self, tmp_path):
        registry = FleetRegistry(FileRegistrySource(str(tmp_path / "gone")))
        with pytest.raises(FleetRegistryError):
            registry.refresh()

    def test_later_failures_keep_last_good_set(self, tmp_path):
        path = tmp_path / "fleet.txt"
        path.write_text("a:1\n")
        registry = FleetRegistry(FileRegistrySource(str(path)))
        registry.refresh()
        path.unlink()  # registry outage
        assert registry.refresh() is False  # parked, not raised
        assert isinstance(registry.last_error, FleetRegistryError)
        assert [e.address for e in registry.endpoints()] == ["a:1"]
        path.write_text("a:1\nb:2\n")  # outage over
        assert registry.refresh() is True
        assert registry.last_error is None

    def test_poller_picks_up_file_edits(self, tmp_path):
        path = tmp_path / "fleet.txt"
        path.write_text("a:1\n")
        registry = FleetRegistry(
            FileRegistrySource(str(path)), poll_interval=0.02
        )
        changes = []
        registry.subscribe(lambda eps, epoch: changes.append(eps))
        registry.start()
        try:
            path.write_text("a:1\nb:2\n")
            deadline = time.monotonic() + 5.0
            while len(changes) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [e.address for e in changes[-1]] == ["a:1", "b:2"]
        finally:
            registry.stop()

    def test_bad_poll_interval(self):
        with pytest.raises(FleetRegistryError):
            FleetRegistry(
                StaticRegistrySource([Endpoint("a", 1)]), poll_interval=0
            )


# ---------------------------------------------------------------------------
# fleet_from_url / fleet_endpoints
# ---------------------------------------------------------------------------


class TestFleetUrls:
    def test_file_url_with_options(self, tmp_path):
        path = tmp_path / "fleet.txt"
        path.write_text("a:1\nb:2\n")
        registry, endpoint_set = fleet_from_url(
            f"gallery+file://{path}?poll=0.25&lane=bulk&timeout=3"
        )
        assert [e.address for e in endpoint_set.endpoints] == ["a:1", "b:2"]
        assert endpoint_set.lane == "bulk"
        assert endpoint_set.timeout == 3.0
        assert registry._poll_interval == 0.25  # noqa: SLF001 - test probe
        assert DEFAULT_POLL_INTERVAL != 0.25

    def test_rejects_non_fleet_scheme(self):
        with pytest.raises(FleetRegistryError, match="unsupported"):
            fleet_from_url("gallery+ftp://somewhere/fleet")
        with pytest.raises(FleetRegistryError, match="not a fleet URL"):
            fleet_from_url("host:port")

    def test_rejects_bad_poll(self, tmp_path):
        path = tmp_path / "fleet.txt"
        path.write_text("a:1\n")
        with pytest.raises(FleetRegistryError, match="not a number"):
            fleet_from_url(f"gallery+file://{path}?poll=soon")
        with pytest.raises(FleetRegistryError, match="positive"):
            fleet_from_url(f"gallery+file://{path}?poll=0")
        with pytest.raises(FleetRegistryError, match="repeated .*'poll'"):
            fleet_from_url(f"gallery+file://{path}?poll=1&poll=30")

    def test_missing_registry_path(self):
        with pytest.raises(FleetRegistryError, match="no registry path"):
            fleet_from_url("gallery+file://")

    def test_fleet_endpoints_resolves_all_shapes(self, tmp_path):
        path = tmp_path / "fleet.txt"
        path.write_text("a:1\nb:2\n")
        assert fleet_endpoints(f"gallery+file://{path}") == ("a:1", "b:2")
        assert fleet_endpoints("gallery://x:1,y:2") == ("x:1", "y:2")
        assert fleet_endpoints("z:3") == ("z:3",)


# ---------------------------------------------------------------------------
# live membership swaps on FailoverTransport
# ---------------------------------------------------------------------------


def ep(address):
    host, port = address.rsplit(":", 1)
    return Endpoint(host, int(port))


def scripted_transport(addresses):
    fleet = Fleet({a: (lambda d: ok_frame("ok")) for a in addresses})
    endpoints = tuple(ep(a) for a in addresses)
    transport = FailoverTransport(
        endpoints,
        policies=fast_policies(),
        transport_factory=fleet.factory,
        sleep=lambda s: None,
        clock=frozen_clock,
    )
    return fleet, transport


class TestUpdateEndpoints:
    def test_swap_keeps_survivors_and_retires_departed(self):
        fleet = Fleet({
            "a:1": lambda d: ok_frame("a"),
            "b:2": lambda d: ok_frame("b"),
            "c:3": lambda d: ok_frame("c"),
        })
        transport = FailoverTransport(
            (Endpoint("a", 1), Endpoint("b", 2)),
            policies=fast_policies(),
            transport_factory=fleet.factory,
            sleep=lambda s: None,
            clock=frozen_clock,
        )
        for _ in range(4):
            transport(read_frame())
        assert fleet.calls("a:1") == 2 and fleet.calls("b:2") == 2
        survivor_ewma = transport.load_report()["a:1"]["ewma_ms"]

        changed = transport.update_endpoints(
            (Endpoint("a", 1), Endpoint("c", 3))
        )
        assert changed is True
        assert transport.membership_swaps == 1
        assert transport.membership_epoch == 1
        # departed replica's connection closed immediately (it was idle)
        assert fleet.dialed["b:2"][0].closed == 1
        # the survivor kept its measured state (same EWMA, warm transport)
        assert transport.load_report()["a:1"]["ewma_ms"] == survivor_ewma
        for _ in range(4):
            transport(read_frame())
        assert len(fleet.dialed["a:1"]) == 1  # no re-dial: connection warm
        assert fleet.calls("c:3") == 2

    def test_identical_swap_is_free(self):
        _fleet, transport = scripted_transport(["a:1", "b:2"])
        assert transport.update_endpoints(
            (Endpoint("a", 1), Endpoint("b", 2))
        ) is False
        assert transport.membership_swaps == 0
        assert transport.membership_epoch == 0

    def test_empty_swap_refused(self):
        _fleet, transport = scripted_transport(["a:1"])
        with pytest.raises(ValidationError, match="empty endpoint set"):
            transport.update_endpoints(())

    def test_explicit_epoch_is_stamped(self):
        _fleet, transport = scripted_transport(["a:1"])
        transport.update_endpoints((Endpoint("b", 2),), epoch=42)
        assert transport.membership_epoch == 42

    def test_departed_endpoint_with_inflight_closes_on_finish(self):
        fleet, transport = scripted_transport(["a:1", "b:2"])
        transport(read_frame())
        transport(read_frame())  # both endpoints dialed and warm
        state_b = next(
            s for s in transport._states  # noqa: SLF001 - test probe
            if s.endpoint.address == "b:2"
        )
        state_b.begin()  # simulate a request still on the wire to b
        transport.update_endpoints((Endpoint("a", 1),))
        assert fleet.dialed["b:2"][0].closed == 0  # close deferred
        state_b.end()  # in-flight call finishes
        assert fleet.dialed["b:2"][0].closed == 1

    def test_registry_feeds_transport_live(self, tmp_path):
        path = tmp_path / "fleet.txt"
        path.write_text("a:1\n")
        fleet = Fleet({
            "a:1": lambda d: ok_frame("a"),
            "b:2": lambda d: ok_frame("b"),
        })
        registry = FleetRegistry(FileRegistrySource(str(path)))
        registry.refresh()
        transport = FailoverTransport(
            registry.endpoints(),
            policies=fast_policies(),
            transport_factory=fleet.factory,
            sleep=lambda s: None,
            clock=frozen_clock,
        )
        registry.subscribe(transport.update_endpoints, replay=False)
        path.write_text("a:1\nb:2\n")
        registry.refresh()
        assert [e.address for e in transport.endpoints] == ["a:1", "b:2"]
        assert transport.membership_epoch == registry.epoch
        for _ in range(2):
            transport(read_frame())
        assert fleet.calls("b:2") == 1  # the new replica serves traffic


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc (Linux)"
)
def test_no_fd_leak_after_100_membership_cycles():
    """Satellite regression: 100 add/remove cycles over real TCP replicas
    must not accumulate sockets for departed endpoints."""

    def build_server():
        gallery = Gallery(
            DataAccessLayer(SQLiteMetadataStore(":memory:"), InMemoryBlobStore())
        )
        return GalleryTcpServer(GalleryService(gallery)).start()

    stable, churn = build_server(), build_server()
    stable_ep = Endpoint(*stable.address)
    churn_ep = Endpoint(*churn.address)
    transport = FailoverTransport(
        (stable_ep,),
        policies=fast_policies(),
        sleep=lambda s: None,
        clock=frozen_clock,
    )
    try:
        transport(read_frame())  # warm the stable endpoint
        baseline = open_fds()
        for _ in range(100):
            transport.update_endpoints((stable_ep, churn_ep))
            # drive a call to each endpoint so the churned one dials
            transport(read_frame())
            transport(read_frame())
            transport.update_endpoints((stable_ep,))
        # allow a tiny slop for transport internals, but 100 leaked sockets
        # (the pre-fix behaviour) is unmistakable
        assert open_fds() <= baseline + 4, "membership churn leaked fds"
    finally:
        transport.close()
        stable.stop()
        churn.stop()
