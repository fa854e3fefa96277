"""The one retry layer, fleet of one: retries, write safety, breaker, dedup.

A single endpoint is a fleet of one, so every case here drives a
one-endpoint :class:`FailoverTransport` whose ``transport_factory`` hands
back a chaos-wrapped in-process transport.  The interplay under test is
the heart of the fault-tolerant control plane:

* idempotent reads retry blindly;
* mutating writes retry ONLY when the frame carries a ``client_id`` so the
  server's request-id dedup makes the replay safe;
* a lost response (the server executed, the reply vanished) is replayed and
  answered from the dedup cache — exactly-once effect, no duplicate writes;
* the circuit breaker counts transport failures, not relayed store errors.
"""

import pytest

from repro.core.clock import ManualClock
from repro.core.ids import SeededIdFactory
from repro.core.registry import Gallery
from repro.errors import CircuitOpenError, MetadataStoreError, ServiceError
from repro.reliability import (
    FaultInjector,
    FaultKind,
    FaultyMetadataStore,
    FaultyTransport,
    RetryPolicy,
)
from repro.rules.engine import RuleEngine
from repro.service.client import (
    BLOB_METHODS,
    IDEMPOTENT_METHODS,
    GalleryClient,
    InProcessTransport,
    MethodRetryPolicies,
)
from repro.service.endpoints import Endpoint, FailoverTransport
from repro.service.server import MUTATING_METHODS, GalleryService
from repro.store.blob import InMemoryBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import InMemoryMetadataStore


def uniform(policy):
    return MethodRetryPolicies(read=policy, blob=policy, mutation=policy)


def fleet_of_one(inner, policies, **options):
    """A one-endpoint FailoverTransport over *inner*, never really sleeping.

    The breaker threshold defaults high so the retry-budget cases see every
    attempt reach the wire; the breaker cases pass their own.
    """
    options.setdefault("failure_threshold", 100)
    options.setdefault("sleep", lambda _s: None)
    return FailoverTransport(
        [Endpoint("fleet-of-one", 1)],
        policies=policies,
        transport_factory=lambda _endpoint: inner,
        **options,
    )


class FrozenClock:
    """Callable clock that only moves when told to (breaker timing)."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


@pytest.fixture
def faulty_stack():
    """Service stack whose transport AND metadata store can inject faults."""
    store_injector = FaultInjector(seed=11, rate=0.0)
    wire_injector = FaultInjector(seed=13, rate=0.0)
    metadata = FaultyMetadataStore(InMemoryMetadataStore(), store_injector)
    dal = DataAccessLayer(metadata, InMemoryBlobStore(), LRUBlobCache(1 << 20))
    gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(1))
    engine = RuleEngine(gallery, clock=ManualClock(), bus=gallery.bus)
    service = GalleryService(gallery, engine)
    faulty = FaultyTransport(InProcessTransport(service), wire_injector)
    transport = fleet_of_one(faulty, uniform(RetryPolicy(max_attempts=4)))
    client = GalleryClient(transport)
    return {
        "service": service,
        "gallery": gallery,
        "client": client,
        "transport": transport,
        "store_injector": store_injector,
        "wire_injector": wire_injector,
    }


class TestMethodTables:
    def test_tables_are_disjoint_and_cover_the_service(self, faulty_stack):
        assert not (IDEMPOTENT_METHODS & MUTATING_METHODS)
        service = faulty_stack["service"]
        assert IDEMPOTENT_METHODS | MUTATING_METHODS == set(service.methods())


class TestTransportFaults:
    def test_read_survives_dropped_frames(self, faulty_stack):
        client = faulty_stack["client"]
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"weights")
        faulty_stack["wire_injector"].inject_next("call", FaultKind.DROP)
        got = client.get_model_instance(instance["instance_id"])
        assert got["instance_id"] == instance["instance_id"]
        assert faulty_stack["transport"].failovers >= 1

    def test_lost_response_write_is_not_double_applied(self, faulty_stack):
        client = faulty_stack["client"]
        gallery = faulty_stack["gallery"]
        service = faulty_stack["service"]
        client.create_gallery_model("p", "demand")
        # The server processes the upload but the response never arrives;
        # the retry replays the SAME (client_id, request_id) and the server
        # answers from its dedup cache instead of uploading again.
        faulty_stack["wire_injector"].inject_next("call", FaultKind.LOST_RESPONSE)
        instance = client.upload_model("p", "demand", b"weights-v1")
        assert instance["instance_id"]
        assert len(gallery.instances_of("demand")) == 1
        assert service.dedup.hits == 1

    def test_write_without_client_id_fails_fast(self, faulty_stack):
        # An anonymous client gets the pre-PR behaviour: no replay, the
        # transport error surfaces after a single attempt.
        anonymous = GalleryClient(faulty_stack["transport"], client_id="")
        transport = faulty_stack["transport"]
        anonymous.create_gallery_model("p", "demand")
        before = transport.attempts
        faulty_stack["wire_injector"].inject_next("call", FaultKind.DROP)
        with pytest.raises(ServiceError):
            anonymous.upload_model("p", "demand", b"w")
        assert transport.attempts == before + 1
        assert len(faulty_stack["gallery"].instances_of("demand")) == 0

    def test_exhausted_retries_reraise_transport_error(self, faulty_stack):
        client = faulty_stack["client"]
        injector = faulty_stack["wire_injector"]
        client.create_gallery_model("p", "demand")
        for _ in range(4):  # every attempt of a max_attempts=4 policy
            injector.inject_next("call", FaultKind.DROP)
        with pytest.raises(ServiceError):
            client.latest_instance("demand")


class TestTransientServerErrors:
    def test_flaky_store_error_is_retried_transparently(self, faulty_stack):
        client = faulty_stack["client"]
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"weights")
        faulty_stack["store_injector"].inject_next("get_instance", FaultKind.TIMEOUT)
        got = client.get_model_instance(instance["instance_id"])
        assert got["instance_id"] == instance["instance_id"]

    def test_deterministic_errors_are_not_retried(self, faulty_stack):
        client = faulty_stack["client"]
        transport = faulty_stack["transport"]
        before = transport.attempts
        from repro.errors import NotFoundError

        with pytest.raises(NotFoundError):
            client.get_model("no-such-model")
        assert transport.attempts == before + 1

    def test_persistent_store_error_surfaces_after_retry_budget(self, faulty_stack):
        client = faulty_stack["client"]
        injector = faulty_stack["store_injector"]
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"weights")
        for _ in range(4):
            injector.inject_next("get_instance", FaultKind.TIMEOUT)
        # Retries exhausted: the ORIGINAL wire error comes back, typed.
        with pytest.raises(MetadataStoreError, match="injected timeout"):
            client.get_model_instance(instance["instance_id"])


class TestPerMethodRetryBudgets:
    """One retry budget per method class, not one global compromise."""

    def build(self, policies):
        injector = FaultInjector(seed=21, rate=0.0)
        dal = DataAccessLayer(
            InMemoryMetadataStore(), InMemoryBlobStore(), LRUBlobCache(1 << 20)
        )
        gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(2))
        service = GalleryService(gallery, RuleEngine(gallery, clock=ManualClock()))
        faulty = FaultyTransport(InProcessTransport(service), injector)
        transport = fleet_of_one(faulty, policies)
        return GalleryClient(transport), injector, transport, gallery

    @staticmethod
    def budgets(read_attempts=4, blob_attempts=2, mutation_attempts=2):
        sleepless = dict(base_delay=0.0, jitter=0.0)
        return MethodRetryPolicies(
            read=RetryPolicy(max_attempts=read_attempts, **sleepless),
            blob=RetryPolicy(max_attempts=blob_attempts, **sleepless),
            mutation=RetryPolicy(max_attempts=mutation_attempts, **sleepless),
        )

    def test_classification_covers_every_method(self, faulty_stack):
        policies = self.budgets()
        service = faulty_stack["service"]
        for method in service.methods():
            policy = policies.for_method(method)
            if method in BLOB_METHODS:
                assert policy is policies.blob
            elif method in MUTATING_METHODS:
                assert policy is policies.mutation
            else:
                assert policy is policies.read

    def test_upload_model_is_budgeted_as_a_blob_transfer(self):
        policies = self.budgets()
        assert policies.for_method("uploadModel") is policies.blob
        assert policies.for_method("loadModelBlob") is policies.blob
        assert policies.for_method("deprecateModel") is policies.mutation
        assert policies.for_method("modelQuery") is policies.read

    def test_reads_get_the_deep_budget(self):
        client, injector, transport, _ = self.build(self.budgets(read_attempts=4))
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"weights")
        before = transport.attempts
        for _ in range(3):  # three failures still fit a 4-attempt read budget
            injector.inject_next("call", FaultKind.DROP)
        latest = client.latest_instance("demand")
        assert latest["instance_id"] == instance["instance_id"]
        assert transport.attempts == before + 4

    def test_blob_budget_is_shallower_than_read_budget(self):
        client, injector, transport, _ = self.build(
            self.budgets(read_attempts=4, blob_attempts=2)
        )
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"weights")
        before = transport.attempts
        for _ in range(3):  # would fit the read budget, overruns the blob one
            injector.inject_next("call", FaultKind.DROP)
        with pytest.raises(ServiceError):
            client.load_model_blob(instance["instance_id"])
        assert transport.attempts == before + 2

    def test_mutation_budget_still_dedup_safe(self):
        client, injector, transport, gallery = self.build(self.budgets())
        client.create_gallery_model("p", "demand")
        injector.inject_next("call", FaultKind.LOST_RESPONSE)
        client.upload_model("p", "demand", b"v1")
        assert len(gallery.instances_of("demand")) == 1  # replay deduped

    def test_default_budgets_are_ordered_sensibly(self):
        policies = MethodRetryPolicies.default()
        assert policies.read.max_attempts >= policies.blob.max_attempts
        assert policies.blob.deadline > policies.read.deadline


class TestCircuitBreaker:
    def build(self, clock):
        injector = FaultInjector(seed=3, rate=0.0)
        dal = DataAccessLayer(
            InMemoryMetadataStore(), InMemoryBlobStore(), LRUBlobCache(1 << 20)
        )
        gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(1))
        service = GalleryService(gallery, RuleEngine(gallery, clock=ManualClock()))
        faulty = FaultyTransport(InProcessTransport(service), injector)
        transport = fleet_of_one(
            faulty,
            uniform(RetryPolicy(max_attempts=1)),
            failure_threshold=2,
            reset_timeout=10.0,
            clock=clock,
        )
        return GalleryClient(transport), injector, transport

    def test_breaker_opens_after_transport_failures_and_recovers(self):
        clock = FrozenClock()
        client, injector, transport = self.build(clock)
        for _ in range(2):
            injector.inject_next("call", FaultKind.DROP)
            with pytest.raises(ServiceError):
                client.audit_storage()
        # Circuit open: the next call is rejected without touching the wire.
        before = transport.attempts
        with pytest.raises(CircuitOpenError):
            client.audit_storage()
        assert transport.attempts == before
        assert transport.breaker_states() == {"fleet-of-one:1": "open"}
        clock.advance(10.0)  # reset timeout elapses -> half-open probe
        assert client.audit_storage()["consistent"]
        assert client.audit_storage()["consistent"]  # closed again
        assert transport.breaker_states() == {"fleet-of-one:1": "closed"}

    def test_relayed_store_errors_do_not_trip_the_breaker(self, faulty_stack):
        transport = fleet_of_one(
            FaultyTransport(
                InProcessTransport(faulty_stack["service"]),
                FaultInjector(rate=0.0),
            ),
            uniform(RetryPolicy(max_attempts=1)),
            failure_threshold=1,
            reset_timeout=10.0,
        )
        client = GalleryClient(transport)
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"w")
        faulty_stack["store_injector"].inject_next("get_instance", FaultKind.TIMEOUT)
        with pytest.raises(MetadataStoreError):
            client.get_model_instance(instance["instance_id"])
        # The server answered; only the STORE behind it failed.
        client.audit_storage()  # breaker still closed
        assert transport.breaker_states() == {"fleet-of-one:1": "closed"}
