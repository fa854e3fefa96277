"""Tests for the replicated serving plane: EndpointSet, FailoverTransport,
and the ``connect()`` front door.

The routing tests run against scripted in-memory transports so they are
deterministic and fast; one regression test at the bottom drives a real
:class:`GalleryTcpServer` to prove ``GalleryClient.close()`` releases every
socket the failover stack opened (satellite: the close() leak fix).
"""

import os
import random
import time

import pytest

from repro.errors import (
    CircuitOpenError,
    MetadataStoreError,
    ServiceError,
    ValidationError,
)
from repro.reliability import RetryPolicy
from repro.service import connect
from repro.service import wire
from repro.service.client import MethodRetryPolicies
from repro.service.endpoints import Endpoint, EndpointSet, FailoverTransport


def fast_policies(attempts=4):
    """Zero-delay retry budget so routing tests never sleep."""
    policy = RetryPolicy(
        max_attempts=attempts, base_delay=0.0, max_delay=0.0, jitter=0.0
    )
    return MethodRetryPolicies(read=policy, blob=policy, mutation=policy)


def read_frame(request_id=1):
    """An idempotent request (always retryable)."""
    return wire.encode_request(
        wire.Request(method="getModel", params={"model_id": "m"},
                     request_id=request_id, client_id="test-client")
    )


def mutation_frame(request_id=1, client_id="test-client"):
    return wire.encode_request(
        wire.Request(method="uploadModel", params={},
                     request_id=request_id, client_id=client_id)
    )


def ok_frame(result="ok", request_id=1):
    return wire.encode_response(
        wire.Response(ok=True, result=result, request_id=request_id)
    )


def error_frame(error_type, request_id=1):
    return wire.encode_response(
        wire.Response(ok=False, error_type=error_type,
                      error_message="injected", request_id=request_id)
    )


class ScriptedTransport:
    """A fake endpoint transport driven by a ``script(data)`` callable."""

    def __init__(self, address, script):
        self.address = address
        self.script = script
        self.calls = []
        self.closed = 0

    def __call__(self, data):
        self.calls.append(data)
        return self.script(data)

    def close(self):
        self.closed += 1


class Fleet:
    """Builds ScriptedTransports per endpoint and remembers every dial."""

    def __init__(self, scripts):
        #: address -> script callable
        self.scripts = scripts
        #: address -> every transport ever dialed to it
        self.dialed = {address: [] for address in scripts}

    def factory(self, endpoint):
        transport = ScriptedTransport(
            endpoint.address, self.scripts[endpoint.address]
        )
        self.dialed[endpoint.address].append(transport)
        return transport

    def calls(self, address):
        return sum(len(t.calls) for t in self.dialed[address])


def two_endpoints():
    return (Endpoint("a", 1), Endpoint("b", 2))


class TestEndpointParsing:
    def test_basic_url_preserves_order_and_defaults(self):
        es = EndpointSet.parse("gallery://10.0.0.1:9000,10.0.0.2:9001")
        assert [e.address for e in es.endpoints] == [
            "10.0.0.1:9000", "10.0.0.2:9001",
        ]
        assert len(es) == 2
        assert es.timeout == 10.0

    def test_query_parameters(self):
        es = EndpointSet.parse("gallery://h:1?timeout=2.5")
        assert es.timeout == 2.5
        assert es.lane == wire.LANE_INTERACTIVE  # the default

    @pytest.mark.parametrize(
        "key, value",
        [
            ("transport", "serial"), ("transport", "pipelined"),
            ("dialect", "json"), ("dialect", "binary"),
            ("routing", "p2c"), ("routing", "roundrobin"), ("routing", "shard"),
        ],
    )
    def test_removed_keys_are_rejected_loudly(self, key, value):
        with pytest.raises(
            ValidationError, match=f"unknown query parameter '{key}'"
        ):
            EndpointSet.parse(f"gallery://h:1?{key}={value}")

    def test_lane_query_parameter(self):
        es = EndpointSet.parse("gallery://h:1?lane=bulk")
        assert es.lane == wire.LANE_BULK
        with pytest.raises(ValidationError):
            EndpointSet.parse("gallery://h:1?lane=express")

    def test_single_endpoint_is_fine(self):
        es = EndpointSet.parse("gallery://localhost:9000")
        assert es.endpoints == (Endpoint("localhost", 9000),)
        assert es.endpoints[0].address == "localhost:9000"

    @pytest.mark.parametrize(
        "url",
        [
            "http://h:1",                      # wrong scheme
            "h:1,h:2",                         # no scheme at all
            "gallery://",                      # empty netloc
            "gallery://h:1,",                  # trailing empty endpoint
            "gallery://hostonly",              # missing port
            "gallery://:9000",                 # missing host
            "gallery://h:abc",                 # non-numeric port
            "gallery://h:0",                   # port out of range (low)
            "gallery://h:70000",               # port out of range (high)
            "gallery://h:1,h:1",               # duplicate endpoint
            "gallery://h:1?bogus=1",           # unknown query parameter
            "gallery://h:1?timeout=soon",      # non-numeric timeout
            "gallery://h:1?timeout=0",         # non-positive timeout
            "gallery://h:1?lane=bulk&lane=interactive",  # repeated key
        ],
    )
    def test_malformed_urls_are_rejected(self, url):
        with pytest.raises(ValidationError):
            EndpointSet.parse(url)

    def test_empty_endpoint_set_is_rejected(self):
        with pytest.raises(ValidationError):
            EndpointSet(endpoints=())


def frozen_clock():
    """A clock that never advances: every answered call measures 0 s, so
    all scores tie and the p2c pick follows rotation order exactly."""
    return 0.0


class TestRouting:
    def test_idle_homogeneous_fleet_spreads_under_p2c(self):
        fleet = Fleet({"a:1": lambda d: ok_frame("from-a"),
                       "b:2": lambda d: ok_frame("from-b")})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(),
            transport_factory=fleet.factory, sleep=lambda s: None,
            clock=frozen_clock,
        )
        for _ in range(4):
            transport(read_frame())
        assert fleet.calls("a:1") == 2
        assert fleet.calls("b:2") == 2

    def test_mid_call_failover_on_transport_error(self):
        boom = {"armed": True}

        def flaky(data):
            if boom["armed"]:
                boom["armed"] = False
                raise ConnectionResetError("replica died mid-call")
            return ok_frame("from-a")

        fleet = Fleet({"a:1": flaky, "b:2": lambda d: ok_frame("from-b")})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(),
            transport_factory=fleet.factory, sleep=lambda s: None,
        )
        raw = transport(read_frame())
        assert wire.decode_response(raw).result == "from-b"
        assert transport.failovers == 1
        # the broken connection was dropped; the next dial is fresh
        assert fleet.dialed["a:1"][0].closed == 1

    def test_breaker_opens_and_dead_endpoint_is_skipped(self):
        def dead(data):
            raise ConnectionRefusedError("nobody home")

        fleet = Fleet({"a:1": dead, "b:2": lambda d: ok_frame("from-b")})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(),
            transport_factory=fleet.factory,
            failure_threshold=2, reset_timeout=60.0,
            sleep=lambda s: None,
        )
        for _ in range(6):
            transport(read_frame())
        assert transport.breaker_states()["a:1"] == "open"
        dials_after_trip = fleet.calls("a:1")
        for _ in range(6):
            transport(read_frame())
        # the open breaker keeps the dead replica out of the rotation
        assert fleet.calls("a:1") == dials_after_trip
        assert fleet.calls("b:2") >= 6

    def test_recovered_endpoint_rejoins_via_half_open_probe(self):
        state = {"healthy": False}

        def flapping(data):
            if not state["healthy"]:
                raise ConnectionRefusedError("down")
            return ok_frame("from-a")

        fleet = Fleet({"a:1": flapping, "b:2": lambda d: ok_frame("from-b")})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(),
            transport_factory=fleet.factory,
            failure_threshold=2, reset_timeout=0.05,
            sleep=lambda s: None,
        )
        for _ in range(4):
            transport(read_frame())
        assert transport.breaker_states()["a:1"] == "open"
        state["healthy"] = True
        time.sleep(0.06)  # breaker decays to half-open
        for _ in range(4):
            transport(read_frame())
        assert transport.breaker_states()["a:1"] == "closed"
        assert fleet.calls("a:1") >= 3  # back in the rotation

    def test_all_endpoints_dead_raises_service_error(self):
        def dead(data):
            raise ConnectionRefusedError("nobody home")

        fleet = Fleet({"a:1": dead, "b:2": dead})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(attempts=3),
            transport_factory=fleet.factory,
            failure_threshold=10, sleep=lambda s: None,
        )
        with pytest.raises(ServiceError):
            transport(read_frame())
        assert transport.attempts == 3  # one retry budget, not one per replica

    def test_all_breakers_open_raises_circuit_open(self):
        def dead(data):
            raise ConnectionRefusedError("nobody home")

        fleet = Fleet({"a:1": dead, "b:2": dead})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(attempts=3),
            transport_factory=fleet.factory,
            failure_threshold=1, reset_timeout=60.0,
            sleep=lambda s: None,
        )
        # First call trips both breakers (one failed attempt each), finds
        # every circuit open on its third attempt, and surfaces that.
        with pytest.raises(CircuitOpenError):
            transport(read_frame())
        with pytest.raises(CircuitOpenError):
            transport(read_frame())
        # the breakers shielded the dead replicas from the second call
        assert fleet.calls("a:1") + fleet.calls("b:2") == 2

    def test_transient_server_error_retries_without_breaker_penalty(self):
        hiccups = {"left": 2}

        def flaky_store(data):
            if hiccups["left"]:
                hiccups["left"] -= 1
                return error_frame("MetadataStoreError")
            return ok_frame("recovered")

        fleet = Fleet({"a:1": flaky_store, "b:2": flaky_store})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(),
            transport_factory=fleet.factory, sleep=lambda s: None,
        )
        raw = transport(read_frame())
        assert wire.decode_response(raw).result == "recovered"
        assert transport.failovers == 0
        assert set(transport.breaker_states().values()) == {"closed"}

    def test_exhausted_transient_retries_surface_the_server_error(self):
        fleet = Fleet({"a:1": lambda d: error_frame("MetadataStoreError"),
                       "b:2": lambda d: error_frame("MetadataStoreError")})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(attempts=2),
            transport_factory=fleet.factory, sleep=lambda s: None,
        )
        raw = transport(read_frame())
        response = wire.decode_response(raw)
        assert not response.ok
        with pytest.raises(MetadataStoreError):
            response.raise_if_error()

    def test_deterministic_errors_are_not_retried(self):
        fleet = Fleet({"a:1": lambda d: error_frame("NotFoundError"),
                       "b:2": lambda d: error_frame("NotFoundError")})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(),
            transport_factory=fleet.factory, sleep=lambda s: None,
        )
        raw = transport(read_frame())
        assert wire.decode_response(raw).error_type == "NotFoundError"
        assert transport.attempts == 1

    def test_mutation_without_client_id_is_single_shot(self):
        def dead(data):
            raise ConnectionRefusedError("nobody home")

        fleet = Fleet({"a:1": dead, "b:2": dead})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(),
            transport_factory=fleet.factory, sleep=lambda s: None,
        )
        with pytest.raises(ServiceError):
            transport(mutation_frame(client_id=""))
        assert transport.attempts == 1  # replay without dedup is unsafe

    def test_mutation_with_client_id_fails_over(self):
        def dead(data):
            raise ConnectionRefusedError("nobody home")

        fleet = Fleet({"a:1": dead, "b:2": lambda d: ok_frame("landed")})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(),
            transport_factory=fleet.factory, sleep=lambda s: None,
        )
        # The mutation must still land even when the rotation hands it the
        # dead replica first (the shared dedup table makes the replay safe,
        # so _can_retry admits it).
        results = [wire.decode_response(transport(mutation_frame())).result
                   for _ in range(2)]
        assert results == ["landed", "landed"]
        assert transport.failovers >= 1

    def test_opaque_frame_is_single_shot(self):
        def dead(data):
            raise ConnectionRefusedError("nobody home")

        fleet = Fleet({"a:1": dead, "b:2": dead})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(),
            transport_factory=fleet.factory, sleep=lambda s: None,
        )
        with pytest.raises(ServiceError):
            transport(b"\x00\x00\x00\x00\x00\x00\x00\x02ok")
        assert transport.attempts == 1

    def test_close_closes_every_endpoint(self):
        fleet = Fleet({"a:1": lambda d: ok_frame(), "b:2": lambda d: ok_frame()})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(),
            transport_factory=fleet.factory, sleep=lambda s: None,
        )
        transport(read_frame())
        transport(read_frame())
        transport.close()
        for dials in fleet.dialed.values():
            assert all(t.closed for t in dials)

    def test_context_manager_closes(self):
        fleet = Fleet({"a:1": lambda d: ok_frame(), "b:2": lambda d: ok_frame()})
        with FailoverTransport(
            two_endpoints(), policies=fast_policies(),
            transport_factory=fleet.factory, sleep=lambda s: None,
        ) as transport:
            transport(read_frame())
        assert all(t.closed for t in fleet.dialed["a:1"] + fleet.dialed["b:2"])


class TestBackoffBetweenRedials:
    """Re-dialing an endpoint that already failed this call waits out the
    policy backoff; moving to a different replica never sleeps."""

    def build(self, dead, alive=(), failure_threshold=100):
        def unreachable(data):
            raise ConnectionRefusedError("replica down")

        scripts = {address: unreachable for address in dead}
        scripts.update({a: (lambda d, a=a: ok_frame(a)) for a in alive})
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.1, multiplier=2.0, jitter=0.0
        )
        sleeps = []
        transport = FailoverTransport(
            [Endpoint(*address.split(":")) for address in scripts],
            policies=MethodRetryPolicies(read=policy, blob=policy, mutation=policy),
            transport_factory=Fleet(scripts).factory,
            failure_threshold=failure_threshold,  # 100: breaker stays out
            sleep=sleeps.append,
        )
        return transport, sleeps

    def test_one_endpoint_backs_off_between_redials(self):
        transport, sleeps = self.build(dead=["a:1"])
        with pytest.raises(ServiceError):
            transport(read_frame())
        assert transport.attempts == 4
        assert sleeps == pytest.approx([0.1, 0.2, 0.4])

    def test_moving_to_a_different_endpoint_is_sleep_free(self):
        transport, sleeps = self.build(dead=["a:1", "b:2"], alive=["c:3"])
        assert wire.decode_response(transport(read_frame())).result == "c:3"
        assert 1 <= transport.failovers <= 2  # p2c may pick c:3 second
        assert sleeps == []

    def test_wrapping_around_a_dead_fleet_backs_off_once_per_sweep(self):
        transport, sleeps = self.build(dead=["a:1", "b:2", "c:3"])
        with pytest.raises(ServiceError):
            transport(read_frame())
        # Three sleep-free dials, then one backoff before the fourth
        # attempt re-dials an endpoint that already failed this call.
        assert transport.attempts == 4
        assert sleeps == pytest.approx([0.1])

    def test_tripped_breaker_ends_the_call_without_a_wasted_sleep(self):
        # Default threshold: the third failed dial opens the only breaker,
        # so there is nothing left to re-dial — no third backoff.
        transport, sleeps = self.build(dead=["a:1"], failure_threshold=3)
        with pytest.raises(CircuitOpenError):
            transport(read_frame())
        assert transport.attempts == 3
        assert sleeps == pytest.approx([0.1, 0.2])


class TestSubmitMany:
    def test_plain_transports_degrade_to_sequential_calls(self):
        fleet = Fleet({"a:1": lambda d: ok_frame("a"),
                       "b:2": lambda d: ok_frame("b")})
        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(),
            transport_factory=fleet.factory, sleep=lambda s: None,
        )
        exchanges = transport.submit_many([read_frame(i) for i in range(1, 4)])
        assert len(exchanges) == 3
        for exchange in exchanges:
            assert exchange.done()
            assert wire.decode_response(exchange.wait()).ok

    def test_pipelined_submission_fails_over(self):
        class PipelinedFake(ScriptedTransport):
            def submit_many(self, frames):
                return [self.script(frame) for frame in frames]

        def dead(data):
            raise ConnectionResetError("gone")

        dialed = {}

        def factory(endpoint):
            script = dead if endpoint.address == "a:1" else (
                lambda d: ok_frame("batched")
            )
            transport = PipelinedFake(endpoint.address, script)
            dialed.setdefault(endpoint.address, []).append(transport)
            return transport

        transport = FailoverTransport(
            two_endpoints(), policies=fast_policies(),
            transport_factory=factory, sleep=lambda s: None,
        )
        frames = [read_frame(i) for i in range(1, 3)]
        # Whichever replica the rotation picks first, the batch lands on a
        # healthy one within a single submit_many call.
        for _ in range(2):
            results = transport.submit_many(frames)
            assert len(results) == 2
        assert transport.failovers >= 1
        assert transport.submit_many([]) == []


class TestSubmitManySpread:
    """PR 5: ``submit_many`` shards one batch across every healthy replica."""

    @staticmethod
    def _echo(address):
        """Script replying with ``"<address>#<request_id>"``."""
        def script(data):
            request = wire.decode_request(data)
            return ok_frame(f"{address}#{request.request_id}",
                            request.request_id)
        return script

    def _pipelined_fleet(self, scripts):
        class FakeExchange:
            def __init__(self, frame):
                self._frame = frame

            def wait(self, timeout=None):
                return self._frame

            def done(self):
                return True

        class PipelinedFake(ScriptedTransport):
            def submit_many(self, frames):
                # Like the real pipelined transport: the whole batch is on
                # the wire before any handle resolves, and a send failure
                # raises out of submit_many itself.
                return [FakeExchange(self(frame)) for frame in frames]

        dialed = {address: [] for address in scripts}

        def factory(endpoint):
            transport = PipelinedFake(
                endpoint.address, scripts[endpoint.address]
            )
            dialed[endpoint.address].append(transport)
            return transport

        def calls(address):
            return sum(len(t.calls) for t in dialed[address])

        return factory, calls

    def three_endpoints(self):
        return (Endpoint("a", 1), Endpoint("b", 2), Endpoint("c", 3))

    def test_batch_spreads_over_all_replicas_and_reknits_in_order(self):
        endpoints = self.three_endpoints()
        factory, calls = self._pipelined_fleet(
            {e.address: self._echo(e.address) for e in endpoints}
        )
        transport = FailoverTransport(
            endpoints, policies=fast_policies(),
            transport_factory=factory, sleep=lambda s: None,
        )
        frames = [read_frame(i) for i in range(1, 10)]
        exchanges = transport.submit_many(frames)
        results = [wire.decode_response(x.wait()).result for x in exchanges]
        # Responses come back re-knit in request order even though shards
        # landed on three different replicas...
        assert [int(r.split("#")[1]) for r in results] == list(range(1, 10))
        # ...and each replica really served a share of the batch.
        for endpoint in endpoints:
            assert calls(endpoint.address) == 3

    def test_dead_replica_shard_fails_over_and_order_survives(self):
        endpoints = self.three_endpoints()

        def dead(data):
            raise ConnectionResetError("replica b is gone")

        factory, calls = self._pipelined_fleet({
            "a:1": self._echo("a:1"),
            "b:2": dead,
            "c:3": self._echo("c:3"),
        })
        transport = FailoverTransport(
            endpoints, policies=fast_policies(),
            transport_factory=factory, sleep=lambda s: None,
        )
        frames = [read_frame(i) for i in range(1, 10)]
        exchanges = transport.submit_many(frames)
        results = [wire.decode_response(x.wait()).result for x in exchanges]
        # Every request answered by a healthy replica, still in order.
        assert [int(r.split("#")[1]) for r in results] == list(range(1, 10))
        assert all(r.split("#")[0] in {"a:1", "c:3"} for r in results)
        assert transport.failovers >= 1

    def test_open_breaker_excludes_replica_from_the_spread(self):
        endpoints = self.three_endpoints()

        def dead(data):
            raise ConnectionResetError("down")

        factory, calls = self._pipelined_fleet({
            "a:1": self._echo("a:1"),
            "b:2": dead,
            "c:3": self._echo("c:3"),
        })
        transport = FailoverTransport(
            endpoints, policies=fast_policies(),
            transport_factory=factory, sleep=lambda s: None,
        )
        # Trip b's breaker with repeated single-shot failures.
        for i in range(20, 30):
            wire.decode_response(transport(read_frame(i)))
        b_calls_before = calls("b:2")
        exchanges = transport.submit_many([read_frame(i) for i in range(1, 7)])
        assert all(wire.decode_response(x.wait()).ok for x in exchanges)
        # The open breaker kept b out of the batch entirely.
        assert calls("b:2") == b_calls_before

    def test_small_batch_admits_at_most_one_probe_per_frame(self):
        # A 1-frame batch must not consume half-open probes on replicas it
        # will never use (that would wedge their breakers).
        endpoints = self.three_endpoints()
        factory, calls = self._pipelined_fleet(
            {e.address: self._echo(e.address) for e in endpoints}
        )
        transport = FailoverTransport(
            endpoints, policies=fast_policies(),
            transport_factory=factory, sleep=lambda s: None,
        )
        exchanges = transport.submit_many([read_frame(1)])
        assert wire.decode_response(exchanges[0].wait()).ok
        used = sum(1 for e in endpoints if calls(e.address) > 0)
        assert used == 1


class TestConnect:
    def test_connect_returns_a_working_client(self):
        fleet = Fleet({"a:1": lambda d: ok_frame({"model_id": "m"}),
                       "b:2": lambda d: ok_frame({"model_id": "m"})})
        client = connect(
            "gallery://a:1,b:2",
            client_id="conn-test",
            policies=fast_policies(),
            transport_factory=fleet.factory,
        )
        assert client.client_id == "conn-test"
        assert client.call("getModel", model_id="m") == {"model_id": "m"}
        client.close()

    def test_connect_honours_url_lane(self):
        fleet = Fleet({"a:1": lambda d: ok_frame()})
        client = connect(
            "gallery://a:1?lane=bulk",
            policies=fast_policies(),
            transport_factory=fleet.factory,
        )
        assert client.lane == wire.LANE_BULK
        client.call("getModel", model_id="m")
        # the frame actually left in the bulk lane
        sent = fleet.dialed["a:1"][0].calls[0]
        assert wire.decode_request(sent).lane == wire.LANE_BULK

    def test_connect_rejects_bad_urls(self):
        with pytest.raises(ValidationError):
            connect("https://a:1")


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc (Linux only)"
)
def test_client_close_releases_every_socket(tmp_path):
    """Regression: ``connect()`` + pipeline use must not leak sockets.

    Before the fix :class:`GalleryClient` had no ``close()`` at all — the
    failover transport's per-endpoint connections (and the pipelined
    reader threads' sockets) lived until interpreter exit.
    """
    from repro.core.clock import ManualClock
    from repro.core.ids import SeededIdFactory
    from repro.core.registry import Gallery
    from repro.service.server import GalleryService
    from repro.service.tcp import GalleryTcpServer
    from repro.store.blob import FilesystemBlobStore
    from repro.store.cache import LRUBlobCache
    from repro.store.dal import DataAccessLayer
    from repro.store.metadata_store import InMemoryMetadataStore

    dal = DataAccessLayer(
        InMemoryMetadataStore(), FilesystemBlobStore(tmp_path), LRUBlobCache(4)
    )
    gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(3))
    server = GalleryTcpServer(GalleryService(gallery)).start()
    host, port = server.address
    try:
        baseline = open_fds()
        client = connect(f"gallery://{host}:{port}", client_id="leak-probe")
        client.create_gallery_model("p", "demand")
        client.upload_model("p", "demand", b"w1", metadata={"tag": "one"})
        with client.pipeline() as pipeline:
            handle = pipeline.call("instancesOf", base_version_id="demand")
        assert len(handle.result()) == 1
        assert open_fds() > baseline  # the stack really opened sockets
        client.close()
        # The server side reaps its half on EOF; poll briefly for both
        # halves to disappear.
        deadline = time.monotonic() + 5.0
        while open_fds() > baseline and time.monotonic() < deadline:
            time.sleep(0.02)
        assert open_fds() <= baseline, "client.close() leaked sockets"
        # the client dials fresh and keeps working after close()
        assert len(client.call("instancesOf", base_version_id="demand")) == 1
        client.close()
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# load-aware routing (EWMA + power of two choices)
# ---------------------------------------------------------------------------


class TickingClock:
    """A manual clock the fake transports advance by their 'latency'."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def latency_script(clock, latency, result="ok"):
    def script(data):
        clock.advance(latency)
        return ok_frame(result)
    return script


def three_endpoints():
    return (Endpoint("a", 1), Endpoint("b", 2), Endpoint("c", 3))


class TestLoadAwareRouting:
    def build(self, clock, fleet):
        return FailoverTransport(
            three_endpoints(),
            policies=fast_policies(),
            transport_factory=fleet.factory,
            sleep=lambda s: None,
            clock=clock,
        )

    @pytest.mark.parametrize("count", [2, 3, 5])
    @pytest.mark.parametrize("seed", [None, *range(4)])
    def test_fresh_transport_first_pick_is_reproducible(self, count, seed):
        """Unmeasured endpoints all score 0 and ties break toward rotation
        order: a fresh transport's first call over two endpoints goes to
        the first, and over more it never goes to the last."""
        addresses = [f"r{n}:{n + 1}" for n in range(count)]
        fleet = Fleet({a: (lambda d: ok_frame()) for a in addresses})
        transport = FailoverTransport(
            [Endpoint(f"r{n}", n + 1) for n in range(count)],
            policies=fast_policies(),
            transport_factory=fleet.factory,
            sleep=lambda s: None,
            rng=None if seed is None else random.Random(seed),
        )
        transport(read_frame())
        first = next(a for a in addresses if fleet.calls(a))
        if count == 2:
            assert first == addresses[0]
        assert first != addresses[-1]

    def test_p2c_sends_slow_replica_under_quarter_of_reads(self):
        """Acceptance criterion: a +10ms replica in a 3-replica fleet gets
        < 25% of reads under the EWMA/P2C router."""
        clock = TickingClock()
        fleet = Fleet({
            "a:1": latency_script(clock, 0.012),  # the slow one
            "b:2": latency_script(clock, 0.002),
            "c:3": latency_script(clock, 0.002),
        })
        transport = self.build(clock, fleet)
        total = 300
        for n in range(total):
            transport(read_frame(request_id=n + 1))
        assert fleet.calls("a:1") + fleet.calls("b:2") + fleet.calls("c:3") == total
        assert fleet.calls("a:1") < total * 0.25, (
            f"slow replica got {fleet.calls('a:1')}/{total} reads"
        )
        # the fast replicas carry the traffic (and both participate)
        assert fleet.calls("b:2") > 50 and fleet.calls("c:3") > 50

    def test_fresh_replica_is_probed_not_starved(self):
        clock = TickingClock()
        fleet = Fleet({
            "a:1": latency_script(clock, 0.005),
            "b:2": latency_script(clock, 0.005),
            "c:3": latency_script(clock, 0.001),
        })
        transport = self.build(clock, fleet)
        for n in range(10):
            transport(read_frame(request_id=n + 1))
        # c joins late (unmeasured => score 0 => most attractive)
        transport.update_endpoints(three_endpoints())
        before = fleet.calls("c:3")
        for n in range(10):
            transport(read_frame(request_id=100 + n))
        assert fleet.calls("c:3") > before

    def test_in_flight_depth_inflates_score(self):
        clock = TickingClock()
        fleet = Fleet({a: latency_script(clock, 0.004)
                       for a in ("a:1", "b:2", "c:3")})
        transport = self.build(clock, fleet)
        for n in range(6):
            transport(read_frame(request_id=n + 1))
        states = {s.endpoint.address: s
                  for s in transport._states}  # noqa: SLF001 - test probe
        idle_score = states["a:1"].score()
        states["a:1"].begin()
        try:
            assert states["a:1"].score() == pytest.approx(idle_score * 2)
        finally:
            states["a:1"].end()


# ---------------------------------------------------------------------------
# graceful drain routing
# ---------------------------------------------------------------------------


class TestDrainRouting:
    def build(self, fleet, attempts=4, drain_ttl=3.0, clock=frozen_clock):
        return FailoverTransport(
            two_endpoints(),
            policies=fast_policies(attempts),
            transport_factory=fleet.factory,
            sleep=lambda s: None,
            drain_ttl=drain_ttl,
            clock=clock,
        )

    def test_draining_replica_rerouted_without_breaker_penalty(self):
        fleet = Fleet({
            "a:1": lambda d: error_frame("ReplicaDrainingError"),
            "b:2": lambda d: ok_frame("from-b"),
        })
        transport = self.build(fleet)
        raw = transport(read_frame())
        assert wire.decode_response(raw).result == "from-b"
        assert transport.drain_reroutes == 1
        assert transport.failovers == 0  # a drain is not a failure
        # satellite fix: the drained replica's breaker stays closed
        assert transport.breaker_states()["a:1"] == "closed"
        # ...and the drain mark keeps it out of subsequent picks entirely
        before = fleet.calls("a:1")
        for n in range(4):
            transport(read_frame(request_id=10 + n))
        assert fleet.calls("a:1") == before

    def test_drain_reroute_is_free_of_retry_budget(self):
        # max_attempts=1: a transport failure would exhaust the budget,
        # but a drain rejection re-routes without charging an attempt.
        fleet = Fleet({
            "a:1": lambda d: error_frame("ReplicaDrainingError"),
            "b:2": lambda d: ok_frame("from-b"),
        })
        transport = self.build(fleet, attempts=1)
        raw = transport(read_frame())
        assert wire.decode_response(raw).result == "from-b"

    def test_drain_reroutes_mutation_without_client_id(self):
        # Never executed server-side => safe to re-send anywhere, even a
        # mutation that carries no dedup identity.
        fleet = Fleet({
            "a:1": lambda d: error_frame("ReplicaDrainingError"),
            "b:2": lambda d: ok_frame("landed"),
        })
        transport = self.build(fleet)
        raw = transport(mutation_frame(client_id=""))
        assert wire.decode_response(raw).result == "landed"

    def test_whole_fleet_draining_surfaces_typed_error(self):
        from repro.errors import ReplicaDrainingError

        fleet = Fleet({
            "a:1": lambda d: error_frame("ReplicaDrainingError"),
            "b:2": lambda d: error_frame("ReplicaDrainingError"),
        })
        transport = self.build(fleet)
        response = wire.decode_response(transport(read_frame()))
        with pytest.raises(ReplicaDrainingError):
            response.raise_if_error()

    def test_drain_mark_expires_and_replica_rejoins(self):
        clock = TickingClock()
        a_state = {"draining": True, "calls": 0}

        def a_script(data):
            a_state["calls"] += 1
            if a_state["draining"]:
                return error_frame("ReplicaDrainingError")
            return ok_frame("from-a")

        fleet = Fleet({"a:1": a_script, "b:2": lambda d: ok_frame("from-b")})
        transport = self.build(fleet, drain_ttl=3.0, clock=clock)
        transport(read_frame())  # a answers draining; call lands on b
        dialed_while_draining = a_state["calls"]
        transport(read_frame(request_id=2))  # still inside the TTL
        assert a_state["calls"] == dialed_while_draining
        # the operator undrains; the TTL expires; a is re-probed
        a_state["draining"] = False
        clock.advance(3.1)
        for n in range(4):
            transport(read_frame(request_id=10 + n))
        assert a_state["calls"] > dialed_while_draining

    def test_drain_end_to_end_over_real_services(self):
        from repro.core.registry import Gallery
        from repro.service.client import GalleryClient
        from repro.service.server import GalleryService
        from repro.store.blob import InMemoryBlobStore
        from repro.store.dal import DataAccessLayer
        from repro.store.metadata_store import InMemoryMetadataStore

        gallery = Gallery(
            DataAccessLayer(InMemoryMetadataStore(), InMemoryBlobStore())
        )
        svc_a, svc_b = GalleryService(gallery), GalleryService(gallery)
        fleet = Fleet({"a:1": svc_a.handle_frame, "b:2": svc_b.handle_frame})
        transport = self.build(fleet)
        client = GalleryClient(transport, client_id="drain-e2e")
        client.create_gallery_model("p", "m")
        svc_a.drain()
        # zero client-visible errors while one replica drains
        for n in range(6):
            client.upload_model("p", "m", b"w%d" % n, metadata={"n": n})
        assert len(client.call("instancesOf", base_version_id="m")) == 6
        assert transport.drain_reroutes >= 1
        assert svc_a.draining and not svc_b.draining
        assert client.fleet_status()["status"] in ("serving", "draining")


# ---------------------------------------------------------------------------
# QoS rate-limit routing
# ---------------------------------------------------------------------------


def rate_limited_frame(retry_after=0.05, request_id=1):
    return wire.encode_response(
        wire.Response(
            ok=False,
            error_type="RateLimitedError",
            error_message=(
                "tenant over rate limit: request was not executed;"
                f" retry_after={retry_after:.3f}s"
            ),
            request_id=request_id,
        )
    )


class TestRateLimitRouting:
    """RateLimitedError is a routing signal like ReplicaDrainingError:
    reroute elsewhere, no breaker penalty, no retry-budget burn."""

    def build(self, fleet, attempts=4, sleeps=None):
        return FailoverTransport(
            two_endpoints(),
            policies=fast_policies(attempts),
            transport_factory=fleet.factory,
            sleep=(sleeps.append if sleeps is not None else lambda s: None),
            clock=frozen_clock,
        )

    def test_rate_limited_replica_rerouted_without_breaker_penalty(self):
        fleet = Fleet({
            "a:1": lambda d: rate_limited_frame(),
            "b:2": lambda d: ok_frame("from-b"),
        })
        transport = self.build(fleet)
        raw = transport(read_frame())
        assert wire.decode_response(raw).result == "from-b"
        assert transport.rate_limit_reroutes == 1
        assert transport.failovers == 0  # a refusal is not a failure
        assert transport.breaker_states()["a:1"] == "closed"

    def test_rate_limit_reroute_is_free_of_retry_budget(self):
        fleet = Fleet({
            "a:1": lambda d: rate_limited_frame(),
            "b:2": lambda d: ok_frame("from-b"),
        })
        transport = self.build(fleet, attempts=1)
        raw = transport(read_frame())
        assert wire.decode_response(raw).result == "from-b"

    def test_limited_replica_stays_in_rotation_for_next_call(self):
        # Unlike a drain there is no TTL exile: buckets refill in
        # milliseconds, so the endpoint is only skipped within the call.
        state = {"limited": True}

        def a_script(data):
            if state["limited"]:
                return rate_limited_frame()
            return ok_frame("from-a")

        fleet = Fleet({"a:1": a_script, "b:2": lambda d: ok_frame("from-b")})
        transport = self.build(fleet)
        transport(read_frame())
        state["limited"] = False
        before = fleet.calls("a:1")
        for n in range(4):
            transport(read_frame(request_id=10 + n))
        assert fleet.calls("a:1") > before

    def test_whole_fleet_limited_backs_off_then_surfaces_typed_error(self):
        from repro.errors import RateLimitedError

        sleeps = []
        fleet = Fleet({
            "a:1": lambda d: rate_limited_frame(retry_after=0.02),
            "b:2": lambda d: rate_limited_frame(retry_after=0.07),
        })
        transport = self.build(fleet, sleeps=sleeps)
        response = wire.decode_response(transport(read_frame()))
        with pytest.raises(RateLimitedError) as excinfo:
            response.raise_if_error()
        # the typed error still carries the server's retry_after hint
        assert excinfo.value.retry_after > 0
        # the transport honoured the smallest advertised retry_after once
        assert sleeps and min(sleeps) == pytest.approx(0.02)
        # both replicas were given a second sweep after the backoff
        assert fleet.calls("a:1") == 2
        assert fleet.calls("b:2") == 2

    def test_recovery_after_backoff_sweep(self):
        # First sweep: both refuse.  After honouring retry_after, the
        # second sweep finds a refilled bucket and the call succeeds.
        counts = {"a": 0, "b": 0}

        def a_script(data):
            counts["a"] += 1
            if counts["a"] == 1:
                return rate_limited_frame()
            return ok_frame("from-a")

        fleet = Fleet({
            "a:1": a_script,
            "b:2": lambda d: rate_limited_frame(),
        })
        transport = self.build(fleet)
        raw = transport(read_frame())
        assert wire.decode_response(raw).result == "from-a"
        assert transport.rate_limit_reroutes >= 2
        assert transport.breaker_states()["a:1"] == "closed"
