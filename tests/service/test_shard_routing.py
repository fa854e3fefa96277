"""Shard-aware client routing (PR 6): with ``routing=shard`` a read that
names a model coordinate prefers the replica owning its shard, falls back
to any admitted replica when the owner is down, and degrades silently to
round-robin when topology is unavailable."""

import time

import pytest

from repro import build_gallery
from repro.errors import ValidationError
from repro.reliability.breaker import BreakerState
from repro.service import wire
from repro.service.endpoints import (
    TOPOLOGY_REQUEST_ID,
    Endpoint,
    EndpointSet,
    FailoverTransport,
)
from repro.service.server import GalleryService

SHARDS = 8
REPLICAS = 3


class CountingTransport:
    """In-process 'replica': dispatches into a shared service, counting
    frames; can be flipped dead to emulate a downed endpoint."""

    def __init__(self, service, counts, index):
        self.service = service
        self.counts = counts
        self.index = index
        self.dead = False
        self.seen = []  # (method, request_id) of every served frame

    def __call__(self, frame):
        if self.dead:
            raise ConnectionRefusedError("replica down")
        self.counts[self.index] += 1
        request = wire.decode_request(frame)
        self.seen.append((request.method, request.request_id))
        return self.service.handle_frame(frame)

    def close(self):
        pass


@pytest.fixture
def stack(tmp_path):
    gallery = build_gallery(
        metadata_backend="sqlite",
        blob_backend="fs",
        data_dir=tmp_path,
        shard_count=SHARDS,
    )
    service = GalleryService(gallery)
    gallery.create_model("p", "demand")
    gallery.upload_model("p", "demand", b"w0", metadata={"city": "sf"})
    counts = [0] * REPLICAS
    transports = [
        CountingTransport(service, counts, i) for i in range(REPLICAS)
    ]
    endpoint_set = EndpointSet(
        endpoints=tuple(Endpoint("replica", 9000 + i) for i in range(REPLICAS)),
        routing="shard",
    )
    failover = FailoverTransport(
        endpoint_set,
        transport_factory=lambda ep: transports[ep.port - 9000],
        reset_timeout=0.05,
    )
    yield failover, transports, counts, gallery
    failover.close()
    gallery.dal.metadata.close()


def read_frame(method="instancesOf", **params):
    return wire.encode_request(
        wire.Request(
            method=method,
            params=params or {"base_version_id": "demand"},
            request_id=99,
            client_id="router",
        ),
    )


def owner_index(failover):
    frame_key = "demand"
    return failover._shard_map.shard_for(frame_key) % REPLICAS  # noqa: SLF001


def test_url_routing_param():
    parsed = EndpointSet.parse("gallery://a:1,b:2?routing=shard")
    assert parsed.routing == "shard"
    assert EndpointSet.parse("gallery://a:1").routing == "p2c"
    parsed_rr = EndpointSet.parse("gallery://a:1,b:2?routing=roundrobin")
    assert parsed_rr.routing == "roundrobin"
    with pytest.raises(ValidationError):
        EndpointSet.parse("gallery://a:1?routing=nope")


def test_routable_reads_pin_to_the_owner(stack):
    failover, _transports, counts, _gallery = stack
    frame = read_frame()
    for _ in range(9):
        assert wire.decode_response(failover(frame)).ok
    assert failover.topology_epoch == 0
    owner = owner_index(failover)
    # 9 routed reads + possibly the topology fetch land on the owner;
    # nothing else went anywhere.
    others = [c for i, c in enumerate(counts) if i != owner]
    assert counts[owner] >= 9
    assert sum(others) <= 1  # at most the topology fetch

    # modelQuery routes via its baseVersionId equality constraint
    before = counts[owner]
    query = read_frame(
        method="modelQuery",
        constraints=[
            {"field": "baseVersionId", "operator": "equal", "value": "demand"}
        ],
        include_deprecated=False,
    )
    for _ in range(4):
        assert wire.decode_response(failover(query)).ok
    assert counts[owner] == before + 4


def test_unroutable_reads_still_round_robin(stack):
    failover, _transports, counts, _gallery = stack
    frame = read_frame(method="modelQuery", constraints=[
        {"field": "city", "operator": "equal", "value": "sf"}
    ], include_deprecated=False)
    for _ in range(6):
        assert wire.decode_response(failover(frame)).ok
    assert all(c >= 1 for c in counts)  # spread, not pinned


def test_dead_owner_falls_back_to_any_replica(stack):
    failover, transports, counts, _gallery = stack
    frame = read_frame()
    assert wire.decode_response(failover(frame)).ok  # topology + pin
    owner = owner_index(failover)
    transports[owner].dead = True
    before = list(counts)
    for _ in range(5):
        assert wire.decode_response(failover(frame)).ok
    gained = [c - b for c, b in zip(counts, before)]
    assert gained[owner] == 0  # dead replica served nothing
    assert sum(gained) == 5


def test_refresh_topology_refetches(stack):
    failover, _transports, _counts, _gallery = stack
    assert wire.decode_response(failover(read_frame())).ok
    assert failover.topology_epoch == 0
    failover.refresh_topology()
    assert failover.topology_epoch is None
    assert wire.decode_response(failover(read_frame())).ok
    assert failover.topology_epoch == 0


def test_topology_fetch_uses_reserved_request_id(stack):
    # The internal shardTopology fetch shares the pipelined connection with
    # client calls, which allocate request_ids counting up from 1 — the
    # fetch must use the reserved id so it can never collide in flight.
    failover, transports, _counts, _gallery = stack
    assert wire.decode_response(failover(read_frame())).ok
    topology_ids = [
        request_id
        for transport in transports
        for method, request_id in transport.seen
        if method == "shardTopology"
    ]
    assert topology_ids == [TOPOLOGY_REQUEST_ID]


def test_topology_probe_settles_a_half_open_breaker(stack):
    failover, transports, _counts, _gallery = stack
    state = failover._states[0]  # noqa: SLF001
    # Trip endpoint 0's breaker while its replica is down, then let it
    # decay to half-open: the lazy topology fetch will consume the single
    # recovery probe that allow() hands out.
    transports[0].dead = True
    for _ in range(3):
        state.breaker.record_failure()
    time.sleep(0.06)  # reset_timeout=0.05: OPEN decays to HALF_OPEN
    assert failover._topology() is not None  # noqa: SLF001
    # The failed probe must be recorded (re-opening the breaker) — a
    # dangling probe would reject this endpoint on every future call.
    assert state.breaker.state is BreakerState.OPEN
    transports[0].dead = False
    time.sleep(0.06)
    state.breaker.allow()  # recovered replica admits a probe again
    state.breaker.record_success()
    assert state.breaker.state is BreakerState.CLOSED


def test_mutations_never_shard_route(stack):
    failover, _transports, counts, _gallery = stack
    frame = wire.encode_request(
        wire.Request(
            method="uploadModel",
            params={
                "project": "p",
                "base_version_id": "demand",
                "blob": b"w",
                "metadata": {},
            },
            request_id=1,
            client_id="writer",
        ),
    )
    # preferred-state computation must not kick in for mutations
    assert failover._preferred_state(wire.decode_request(frame)) is None  # noqa: SLF001
    assert wire.decode_response(failover(frame)).ok
