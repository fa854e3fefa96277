"""Replicated serving plane: endpoint sets, live membership, and failover.

Gallery at Uber runs its stateless service "horizontally scalable across
different data centers" (Section 4) — any replica can answer any call
because all state lives in the storage layer.  This module is the client
half of that deployment, and its one retry and routing layer:

* :class:`EndpointSet` parses a ``gallery://host:port,host:port`` URL into
  an ordered replica list plus connection options (timeout, QoS lane);
* :class:`FailoverTransport` routes every frame — a single call or one
  frame of a pipelined batch — through one loop with one replay rule and
  one retry budget: load-aware picks (latency EWMA × in-flight depth,
  power of two choices), one circuit breaker per endpoint, failover on
  transport errors, backoff on transient store errors, and re-routing off
  replicas that answer :class:`~repro.errors.ReplicaDrainingError`.
  Replayed mutations stay exactly-once because every replica shares the
  store's ``(client_id, request_id)`` dedup table;
* **membership is live**: :meth:`FailoverTransport.update_endpoints`
  swaps the replica set atomically, fed by a
  :class:`repro.service.membership.FleetRegistry` so replicas are added or
  drained without any client restart;
* :func:`connect` is the one-line factory:
  ``connect("gallery://10.0.0.1:9000,10.0.0.2:9000")`` for a static
  fleet, ``connect("gallery+file:///etc/gallery/fleet.txt")`` for a
  registry-driven one.
"""

from __future__ import annotations

import random
import threading
import time

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.errors import (
    CircuitOpenError,
    ServiceError,
    ValidationError,
)
from repro.reliability.breaker import BreakerState, CircuitBreaker
from repro.service import wire
from repro.service.client import (
    TRANSIENT_ERROR_TYPES,
    GalleryClient,
    MethodRetryPolicies,
    Transport,
    can_replay,
)
from repro.service.tcp import PipelinedTcpTransport

if TYPE_CHECKING:
    from repro.service.membership import FleetRegistry

#: URL scheme accepted by :meth:`EndpointSet.parse`.
SCHEME = "gallery"

_LANES = (wire.LANE_INTERACTIVE, wire.LANE_BULK)

#: EWMA smoothing factor for per-endpoint latency (higher = snappier).
_LATENCY_ALPHA = 0.2

#: Seconds a drain rejection keeps an endpoint out of the pick.  Cheap to
#: keep short: when the mark expires the next pick re-probes the replica,
#: and a still-draining server just re-marks it with one wasted frame.
DEFAULT_DRAIN_TTL = 3.0


@dataclass(frozen=True, slots=True)
class Endpoint:
    """One replica address."""

    host: str
    port: int

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


def add_endpoint(text: str, endpoints: list[Endpoint]) -> None:
    """Parse one ``host:port`` and append it to *endpoints*.

    A bad or repeated one raises ``ValueError`` whose message completes
    "<text> ..."; :meth:`EndpointSet.parse` and ``membership.parse_registry``
    re-raise it as their own error type, each with its own prefix.
    """
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError("must be host:port (port is required)")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError("has a non-numeric port") from None
    if not 0 < port < 65536:
        raise ValueError("has a port out of range")
    if (endpoint := Endpoint(host, port)) in endpoints:
        raise ValueError("is a duplicate endpoint")
    endpoints.append(endpoint)


def parse_endpoint_options(query: str) -> dict[str, Any]:
    """Parse a ``gallery://`` URL's query string into EndpointSet options.

    Shared by :meth:`EndpointSet.parse` and the fleet-URL parser in
    :mod:`repro.service.membership`.  Unknown and repeated keys are
    rejected loudly.
    """
    options: dict[str, Any] = {}
    if not query:
        return options
    for pair in query.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        if key in options:
            raise ValidationError(f"repeated query parameter {key!r}")
        if key == "timeout":
            try:
                timeout = float(value)
            except ValueError:
                raise ValidationError(
                    f"timeout {value!r} is not a number"
                ) from None
            if timeout <= 0:
                raise ValidationError("timeout must be positive")
            options["timeout"] = timeout
        elif key == "lane":
            if value not in _LANES:
                raise ValidationError(
                    f"unknown lane {value!r} (interactive or bulk)"
                )
            options["lane"] = value
        else:
            raise ValidationError(f"unknown query parameter {key!r}")
    return options


@dataclass(frozen=True, slots=True)
class EndpointSet:
    """An ordered set of replica endpoints plus connection options.

    Built either from a URL or by the membership layer::

        gallery://10.0.0.1:9000,10.0.0.2:9000?timeout=10&lane=bulk

    Query parameters: ``timeout`` (per-call seconds, default 10) and
    ``lane`` (``interactive``, the default, or ``bulk`` — the QoS lane
    stamped on every request, weighting how the server's read batcher
    schedules this client against others).  Unknown or repeated
    parameters, malformed ports, and duplicate hosts are rejected loudly
    — a silently dropped replica is an outage waiting to be discovered.

    Application code should not construct this directly (ruff TID251
    enforces it): go through :func:`connect` or a
    :class:`~repro.service.membership.FleetRegistry`, which keep the set
    in sync with the live fleet.
    """

    endpoints: tuple[Endpoint, ...]
    timeout: float = 10.0
    lane: str = wire.LANE_INTERACTIVE

    def __post_init__(self) -> None:
        if not self.endpoints:
            raise ValidationError("an EndpointSet needs at least one endpoint")

    def __len__(self) -> int:
        return len(self.endpoints)

    @classmethod
    def parse(cls, url: str) -> "EndpointSet":
        if "://" not in url:
            raise ValidationError(
                f"not an endpoint URL: {url!r} (expected gallery://host:port,...)"
            )
        scheme, rest = url.split("://", 1)
        if scheme != SCHEME:
            raise ValidationError(
                f"unsupported scheme {scheme!r} (expected {SCHEME!r})"
            )
        netloc, _, query = rest.partition("?")
        netloc = netloc.rstrip("/")
        if not netloc:
            raise ValidationError(f"no endpoints in URL {url!r}")

        endpoints: list[Endpoint] = []
        for part in netloc.split(","):
            part = part.strip()
            if not part:
                raise ValidationError(f"empty endpoint in URL {url!r}")
            try:
                add_endpoint(part, endpoints)
            except ValueError as exc:
                raise ValidationError(f"endpoint {part!r} {exc}") from None
        return cls(endpoints=tuple(endpoints), **parse_endpoint_options(query))


@dataclass(eq=False)
class _EndpointState:
    """One replica: lazily dialed transport, breaker, and load meters.

    ``eq=False`` keeps identity semantics (states live in sets during
    drain re-routing, and two states for the same address are still two
    different connections).
    """

    endpoint: Endpoint
    factory: Callable[[Endpoint], Transport]
    breaker: CircuitBreaker
    _transport: Transport | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _meter: threading.Lock = field(default_factory=threading.Lock)
    #: latency EWMA over successful calls, seconds (None until measured)
    ewma: float | None = None
    #: synchronous calls currently on the wire to this endpoint
    in_flight: int = 0
    #: pipelined exchanges sent here: load until they complete (a timed-out
    #: wait completes its own), but they never hold a retired endpoint open
    pipelined: set = field(default_factory=set)
    #: monotonic timestamp until which the endpoint is considered draining
    draining_until: float = 0.0
    #: set when the endpoint left the membership; close deferred until
    #: its in-flight calls finish
    retired: bool = False
    #: the transport error last charged to the breaker: a dropped
    #: connection fails every exchange on it with this one exception
    last_failure: BaseException | None = None

    def transport(self) -> Transport:
        with self._lock:
            if self._transport is None:
                self._transport = self.factory(self.endpoint)
            return self._transport

    # -- load metering --------------------------------------------------------

    def begin(self) -> None:
        with self._meter:
            self.in_flight += 1

    def end(self) -> None:
        close_now = False
        with self._meter:
            self.in_flight -= 1
            close_now = self.retired and self.in_flight <= 0
        if close_now:
            self.reset()

    def observe(self, latency: float) -> None:
        """Fold one successful call's latency into the EWMA."""
        if latency < 0:
            return
        with self._meter:
            if self.ewma is None:
                self.ewma = latency
            else:
                self.ewma += _LATENCY_ALPHA * (latency - self.ewma)

    def track(self, exchanges: Iterable[Any]) -> int:
        """Count *exchanges* as load until they are done, forgetting those
        that are; the load: synchronous calls plus pipelined exchanges."""
        with self._meter:
            self.pipelined = {e for e in self.pipelined if not e.done()}
            self.pipelined.update(exchanges)
            return self.in_flight + len(self.pipelined)

    def load(self) -> int:
        return self.track(())

    def score(self) -> float:
        """Load score: latency estimate scaled by queue depth.

        Unmeasured endpoints score 0 — the most attractive — so a fresh
        replica gets probed (and measured) quickly instead of starving.
        """
        return (self.ewma or 0.0) * (1 + self.load())

    # -- drain / retirement ---------------------------------------------------

    def mark_draining(self, until: float) -> None:
        self.draining_until = until

    def is_draining(self, now: float) -> bool:
        return now < self.draining_until

    def retire(self) -> None:
        """Departed from membership: close as soon as in-flight drains."""
        close_now = False
        with self._meter:
            self.retired = True
            close_now = self.in_flight <= 0
        if close_now:
            self.reset()

    # -- connection lifecycle -------------------------------------------------

    def reset(self) -> None:
        """Close and discard the transport; the next call dials fresh."""
        with self._lock:
            transport, self._transport = self._transport, None
        if transport is not None:
            close = getattr(transport, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:  # noqa: BLE001 - teardown is best-effort
                    pass


class FailoverTransport:
    """Routes frames across replica endpoints with breaker-aware failover.

    * **Load-aware picks** (power of two choices): every endpoint carries
      a latency EWMA (updated on each answered call) and an in-flight
      count, pipelined frames included; a pick samples two distinct
      breaker-admitted, non-draining replicas and takes the lower
      ``ewma × (1 + in_flight)`` score.  A measurably slow or busy
      replica keeps serving — just much less — and unmeasured replicas
      score 0 so new endpoints are probed immediately.  Ties break toward
      rotation order, so a fresh transport's first call over two
      endpoints goes to the first, and over more never to the last.
    * **Live membership**: :meth:`update_endpoints` atomically swaps the
      replica set under an epoch stamp.  Surviving endpoints keep their
      breakers, EWMA, and warm connections; departed ones are retired —
      closed at once when idle, or as soon as their last in-flight call
      finishes, so a membership change never cuts a request mid-flight.
      Wire a :class:`~repro.service.membership.FleetRegistry` to this via
      ``registry.subscribe(transport.update_endpoints)``.
    * **Graceful drain**: a replica answering
      :class:`~repro.errors.ReplicaDrainingError` was *never going to
      execute the request*, so the call is transparently re-sent to a
      different replica — no breaker penalty, no retry-budget charge —
      and the draining endpoint is kept out of picks for
      ``drain_ttl`` seconds (after which it is re-probed; an undrained
      replica rejoins with no push notification needed).  Only when every
      replica reports draining does the typed error surface to the
      caller, who can retry later.
    * **Transport errors** (connection refused/reset, wire breakage) count
      against that endpoint's breaker once per broken connection, drop it
      (a timeout leaves it open), and fail the call over to the next
      endpoint immediately — no backoff, because a different replica is
      an independent resource.  Only when every
      endpoint has already failed this call does the pick wrap around,
      and then it backs off per policy first.  Mutations are only
      replayed when the frame carries a ``client_id``; the replicas'
      shared dedup table then answers the replay with the original
      response instead of executing it twice.
    * **Transient server errors** (a flaky store relayed as
      ``MetadataStoreError`` etc.) are retried with the per-method backoff
      but do *not* trip the breaker — the replica answered; its store
      hiccuped, and hammering a different replica of the same store gains
      nothing beyond the rotation it gets anyway.
    * A tripped breaker decays to half-open after ``reset_timeout``; the
      pick then admits one probe call, and a single success closes the
      circuit (recovered replicas rejoin without operator action).
    * **Pipelined batches** (:meth:`submit_many`) are spread one shard
      per admitted replica; each frame's handle then settles through the
      same loop as a single call, so drain reroutes, transient retries and
      failover apply to pipelined frames too.

    The retry budget is one :class:`MethodRetryPolicies` budget per frame,
    counted across *all* endpoints and, for a pipelined frame, across its
    batch attempt and any resend — a frame never takes more than one
    budget even when every replica is down.  A single endpoint is a fleet
    of one: the same loop then re-dials that address with the policy's
    backoff between attempts.
    """

    def __init__(
        self,
        endpoints: EndpointSet | str | Sequence[Endpoint],
        *,
        policies: MethodRetryPolicies | None = None,
        transport_factory: Callable[[Endpoint], Transport] | None = None,
        failure_threshold: int = 3,
        reset_timeout: float = 1.0,
        transient_errors: frozenset[str] = TRANSIENT_ERROR_TYPES,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        drain_ttl: float = DEFAULT_DRAIN_TTL,
        rng: random.Random | None = None,
    ) -> None:
        if isinstance(endpoints, str):
            endpoints = EndpointSet.parse(endpoints)
        if isinstance(endpoints, EndpointSet):
            endpoint_set = endpoints
        else:
            endpoint_set = EndpointSet(endpoints=tuple(endpoints))
        self.endpoint_set = endpoint_set
        if transport_factory is None:
            transport_factory = self._default_factory(endpoint_set)
        self._transport_factory = transport_factory
        self._failure_threshold = failure_threshold
        self._reset_timeout = reset_timeout
        self._policies = policies or MethodRetryPolicies.default()
        self._transient_errors = transient_errors
        self._sleep = sleep
        self._clock = clock
        self._drain_ttl = drain_ttl
        # Seeded by default so routing decisions are reproducible run to
        # run (and in tests); inject an rng to vary or pin them.
        self._rng = rng or random.Random(0x9E3779B9)
        self._states = [
            self._new_state(endpoint) for endpoint in endpoint_set.endpoints
        ]
        self._rr_lock = threading.Lock()
        self._rr_next = 0
        self._swap_lock = threading.Lock()
        self._retiring: list[_EndpointState] = []
        self._registry: "FleetRegistry | None" = None
        #: epoch of the membership set currently routing (0 = the initial
        #: set; registry swaps stamp their epoch here)
        self.membership_epoch = 0
        #: total membership swaps applied via update_endpoints()
        self.membership_swaps = 0
        #: total frames put on a wire (includes retries and pipelined frames)
        self.attempts = 0
        #: transport errors that frames were failed over from (one per
        #: broken connection, however many pipelined frames it carried)
        self.failovers = 0
        #: frames transparently re-routed off a draining replica
        self.drain_reroutes = 0

    def _new_state(self, endpoint: Endpoint) -> _EndpointState:
        return _EndpointState(
            endpoint=endpoint,
            factory=self._transport_factory,
            breaker=CircuitBreaker(
                failure_threshold=self._failure_threshold,
                reset_timeout=self._reset_timeout,
                clock=self._clock,
                name=endpoint.address,
            ),
        )

    @staticmethod
    def _default_factory(
        endpoint_set: EndpointSet,
    ) -> Callable[[Endpoint], Transport]:
        return lambda ep: PipelinedTcpTransport(
            ep.host, ep.port, timeout=endpoint_set.timeout
        )

    # -- introspection --------------------------------------------------------

    @property
    def endpoints(self) -> tuple[Endpoint, ...]:
        return self.endpoint_set.endpoints

    def breaker_states(self) -> dict[str, str]:
        """Endpoint address -> breaker state, for operators and tests."""
        return {
            state.endpoint.address: state.breaker.state.value
            for state in self._states
        }

    def load_report(self) -> dict[str, dict[str, Any]]:
        """Per-endpoint routing signals, for operators and tests."""
        now = self._clock()
        report = {}
        for state in self._states:
            report[state.endpoint.address] = {
                "ewma_ms": None if state.ewma is None else state.ewma * 1000.0,
                "in_flight": state.load(),
                "draining": state.is_draining(now),
                "breaker": state.breaker.state.value,
            }
        return report

    # -- live membership ------------------------------------------------------

    def update_endpoints(
        self,
        endpoints: EndpointSet | Sequence[Endpoint],
        epoch: int | None = None,
    ) -> bool:
        """Atomically swap the replica set; True when membership changed.

        Endpoints present in both sets keep their state (breaker, EWMA,
        warm connection); new ones join cold; departed ones are retired —
        their connections close immediately when idle, or as soon as
        their in-flight calls finish, so a swap never cuts a request
        mid-flight.  The swap is a single list-reference assignment:
        concurrent calls that already snapshotted the old list finish on
        the old set, everything after sees the new one.
        """
        if isinstance(endpoints, EndpointSet):
            new_endpoints = endpoints.endpoints
        else:
            new_endpoints = tuple(endpoints)
        if not new_endpoints:
            raise ValidationError(
                "refusing to swap in an empty endpoint set; a fleet needs "
                "at least one replica"
            )
        with self._swap_lock:
            current = {state.endpoint: state for state in self._states}
            changed = tuple(current) != new_endpoints
            states = [
                current.pop(endpoint, None) or self._new_state(endpoint)
                for endpoint in new_endpoints
            ]
            departed = list(current.values())
            self._states = states
            self.endpoint_set = replace(
                self.endpoint_set, endpoints=new_endpoints
            )
            if epoch is not None:
                self.membership_epoch = epoch
            elif changed:
                self.membership_epoch += 1
            if changed:
                self.membership_swaps += 1
            if departed:
                self._retiring = [
                    state
                    for state in self._retiring + departed
                    if state.in_flight > 0
                ]
        for state in departed:
            state.retire()
        return changed

    def attach_registry(self, registry: "FleetRegistry") -> None:
        """Adopt a registry's lifecycle: ``close()`` stops its poller."""
        self._registry = registry

    # -- routing --------------------------------------------------------------

    def _rotation(self, states: list[_EndpointState]) -> list[_EndpointState]:
        if not states:
            return []
        with self._rr_lock:
            start = self._rr_next
            self._rr_next = (self._rr_next + 1) % len(states)
        count = len(states)
        return [states[(start + i) % count] for i in range(count)]

    def _pick_order(self, exclude: set[_EndpointState]) -> list[_EndpointState]:
        """Candidate endpoints, best first.

        Open breakers are filtered out by *peeking* at their state (the
        winner's ``allow()`` is what consumes a half-open probe — peeking
        never does).  Draining replicas are candidates only when no other
        replica is, as a better-than-nothing fallback when the whole fleet
        is draining — so a batch gives them no shard either.
        """
        now = self._clock()
        active: list[_EndpointState] = []
        draining: list[_EndpointState] = []
        for state in self._rotation(self._states):
            if state in exclude or state.breaker.state is BreakerState.OPEN:
                continue
            (draining if state.is_draining(now) else active).append(state)
        if len(active) < 2:
            return active or draining
        winner = self._p2c_pick(active)
        return [winner] + [state for state in active if state is not winner]

    def _p2c_pick(self, active: list[_EndpointState]) -> _EndpointState:
        """Power of two choices over *active* (rotation-ordered, len >= 2).

        Ties (e.g. several unmeasured endpoints) break toward rotation
        order, so an idle homogeneous fleet still spreads instead of
        pinning.
        """
        if len(active) == 2:
            pair = active
        else:
            pair = self._rng.sample(active, 2)
        return min(pair, key=lambda state: (state.score(), active.index(state)))

    def _admit(
        self, exclude: set[_EndpointState], limit: int = 1
    ) -> list[_EndpointState]:
        """Up to *limit* best endpoints whose breakers let traffic through.

        ``allow()`` is asked one endpoint at a time, and never past
        *limit*, so a half-open breaker spends its single probe only on
        traffic that actually goes to that endpoint.
        """
        admitted: list[_EndpointState] = []
        for state in self._pick_order(exclude):
            if len(admitted) == limit:
                break
            try:
                state.breaker.allow()
            except CircuitOpenError:
                continue
            admitted.append(state)
        return admitted

    def _charge(self, state: _EndpointState, exc: BaseException) -> bool:
        """Charge a transport error to *state*; False if already charged.

        Every exchange a dropped connection carried fails with the same
        exception, so N frames in flight on it are one breaker failure, not
        N.  A timeout is no broken connection: the exchanges beside it on
        the connection keep waiting, so only other errors drop it.
        """
        if exc is state.last_failure:
            return False
        state.last_failure = exc
        state.breaker.record_failure()
        if not isinstance(exc, TimeoutError) and not isinstance(
            exc.__cause__, TimeoutError
        ):
            state.reset()
        return True

    # -- transport contract ---------------------------------------------------

    def __call__(self, data: bytes) -> bytes:
        return self._settle(data)

    def _settle(
        self,
        data: bytes,
        state: _EndpointState | None = None,
        outcome: bytes | BaseException | None = None,
    ) -> bytes:
        """Send *data* until it has an answer: the one loop every frame takes.

        A single call enters with nothing in hand.  A pipelined frame enters
        with its first attempt's *outcome* from *state* (a response, or the
        transport error its exchange or its shard's send raised); that
        attempt counts against the same retry budget as any resend.
        """
        head = wire.peek_request_head(data)
        retryable = can_replay(head)
        policy = self._policies.for_method(head[0] if head is not None else "")
        attempts_allowed = policy.max_attempts if retryable else 1
        deadline = (
            None if policy.deadline is None else self._clock() + policy.deadline
        )

        last_error: BaseException | None = None
        transient_raw: bytes | None = None
        draining_raw: bytes | None = None
        drained: set[_EndpointState] = set()
        # Endpoints that already failed *this call* at the transport level:
        # unexcluded, a freshly dead replica (no EWMA yet, so it scores 0,
        # "most attractive") would take the whole budget until its breaker
        # opens.
        failed: set[_EndpointState] = set()
        backoff_next = False  # sleep before the next attempt?
        retry_number = 1  # RetryPolicy.backoff is 1-based
        attempt = 0
        started: float | None = None  # set once this loop sends the frame
        while attempt < attempts_allowed:
            if state is None:
                if attempt and backoff_next:
                    backoff_next = False
                    delay = policy.backoff(retry_number)
                    retry_number += 1
                    if deadline is not None:
                        delay = min(delay, max(0.0, deadline - self._clock()))
                    if delay > 0:
                        self._sleep(delay)
                if deadline is not None and self._clock() >= deadline and attempt:
                    break
                state = next(iter(self._admit(drained | failed)), None)
                if state is None and failed:
                    # Every other endpoint is out: wrap around to those that
                    # already failed this call (always, for a fleet of one),
                    # after the backoff — unless all of them tripped their
                    # breakers, when the all-open branch below takes over
                    # without a wasted sleep.
                    backoff_next = any(
                        s.breaker.state is not BreakerState.OPEN for s in failed
                    )
                    failed.clear()
                    continue
                if state is None:
                    if draining_raw is not None:
                        # Every reachable replica is draining: surface the
                        # typed retryable error instead of faking an outage.
                        return draining_raw
                    # Every breaker is open: nothing to try right now.  Back
                    # off toward the reset timeout so a half-open probe
                    # becomes possible, then go around again.
                    last_error = CircuitOpenError(
                        "no healthy endpoint: all circuit breakers are open "
                        f"({', '.join(ep.address for ep in self.endpoints)})"
                    )
                    transient_raw = None
                    backoff_next = True
                    attempt += 1
                    continue
                self.attempts += 1
                state.begin()
                started = self._clock()
                outcome = _attempt(state.transport, data)
                state.end()
                if not isinstance(outcome, BaseException):
                    state.breaker.record_success()
            answered, state = state, None
            if isinstance(outcome, BaseException):
                # The replica (or the path to it) is broken: charge its
                # breaker and fail over immediately.
                if (
                    self._charge(answered, outcome)
                    and retryable
                    and attempt + 1 < attempts_allowed
                ):
                    self.failovers += 1
                failed.add(answered)
                last_error = outcome
                transient_raw = None
                backoff_next = False
                attempt += 1
                continue
            assert outcome is not None
            error_type = wire.peek_response_error(outcome)
            if error_type == "ReplicaDrainingError":
                # A routing signal, not a failure: the server never
                # executed the request (safe to re-send anywhere, even a
                # mutation without a client_id), so route elsewhere for
                # free — no breaker penalty, no retry-budget charge.  The
                # drain mark keeps this endpoint out of picks until its
                # TTL expires and the replica is re-probed.
                answered.mark_draining(self._clock() + self._drain_ttl)
                drained.add(answered)
                draining_raw = outcome
                self.drain_reroutes += 1
                continue
            if started is not None:
                answered.observe(self._clock() - started)
            if retryable and error_type in self._transient_errors:
                # The replica is fine; its dependency flaked.  Retry with
                # backoff (and a fresh pick), but leave the breaker alone.
                transient_raw = outcome
                last_error = None
                backoff_next = True
                attempt += 1
                continue
            return outcome

        if transient_raw is not None:
            return transient_raw  # retries exhausted: surface the real error
        if draining_raw is not None and last_error is None:
            return draining_raw
        if isinstance(last_error, CircuitOpenError):
            raise last_error
        raise ServiceError(
            f"all endpoints failed after {self.attempts} attempt(s): {last_error}"
        ) from last_error

    def submit_many(self, frames: list[bytes]) -> list[Any]:
        """Ship a pipelined batch across the healthy endpoints.

        The batch is sharded round-robin across the breaker-admitted
        replicas, and each shard goes out through its own connection in
        one pipelined send.  Every frame gets a handle in the caller's
        order whose ``wait`` settles the frame through the same loop as a
        single call (:meth:`_settle`): its shard's send is its first
        attempt, and a drain refusal, transient store error, lost
        connection or failed send is handled from there exactly as for
        ``__call__``.  A wait with no timeout is bounded by the endpoint
        set's ``timeout``.
        """
        if not frames:
            return []
        # Admit at most as many endpoints as there are frames: a half-open
        # breaker's allow() hands out its single recovery probe, so we must
        # not admit an endpoint we won't use.
        admitted = self._admit(set(), len(frames))
        if not admitted:
            raise CircuitOpenError(
                "no healthy endpoint: all circuit breakers are open"
            )
        self.attempts += len(frames)
        handles: list[Any] = [None] * len(frames)
        for shard, state in enumerate(admitted):
            indices = range(shard, len(frames), len(admitted))
            shard_frames = [frames[index] for index in indices]
            transport = state.transport()
            submit = getattr(transport, "submit_many", None)
            try:
                if submit is None:  # a plain bytes -> bytes transport
                    firsts = [_attempt(state.transport, f) for f in shard_frames]
                else:
                    firsts = submit(shard_frames)
            except (ServiceError, OSError) as exc:
                # Nothing reached the replica; each frame settles from
                # this one error when waited.
                if self._charge(state, exc):
                    self.failovers += 1
                firsts = [exc] * len(shard_frames)
            else:
                state.breaker.record_success()
            state.track(f for f in firsts if not isinstance(f, _IN_HAND))
            for index, frame, first in zip(indices, shard_frames, firsts):
                handles[index] = _PipelinedFrame(self, frame, state, first)
        return handles

    def close(self) -> None:
        """Close every endpoint's connection (idle, active, or retiring)
        and stop the attached fleet registry's poller, if any."""
        registry, self._registry = self._registry, None
        if registry is not None:
            try:
                registry.stop()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
        with self._swap_lock:
            retiring, self._retiring = self._retiring, []
            states = list(self._states)
        for state in states + retiring:
            state.reset()

    def __enter__(self) -> "FailoverTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _attempt(
    transport: Callable[[], Transport], data: bytes
) -> bytes | BaseException:
    """One exchange: the response, or the transport error it raised."""
    try:
        return transport()(data)
    except (ServiceError, OSError) as exc:
        return exc


@dataclass(eq=False, slots=True)
class _PipelinedFrame:
    """Handle for one frame of a :meth:`FailoverTransport.submit_many` batch.

    *first* is what the frame's shard produced: the endpoint transport's
    exchange handle, or an outcome already in hand (a plain transport's
    response or error, or the error its shard's send raised).
    """

    owner: FailoverTransport
    data: bytes
    state: _EndpointState
    first: Any

    def done(self) -> bool:
        return isinstance(self.first, _IN_HAND) or self.first.done()

    def wait(self, timeout: float | None = None) -> bytes:
        outcome = self.first
        if not isinstance(outcome, _IN_HAND):
            if timeout is None:
                timeout = self.owner.endpoint_set.timeout
            try:
                outcome = outcome.wait(timeout)
            except (ServiceError, OSError) as exc:
                outcome = exc
        if isinstance(outcome, BaseException) or wire.peek_response_error(outcome):
            return self.owner._settle(self.data, self.state, outcome)
        return outcome  # answered ok (or unparseable): nothing to settle


#: First outcomes a :class:`_PipelinedFrame` holds instead of an exchange.
_IN_HAND = (bytes, bytearray, BaseException)


def connect(
    url: str | EndpointSet,
    *,
    client_id: str | None = None,
    lane: str | None = None,
    policies: MethodRetryPolicies | None = None,
    transport_factory: Callable[[Endpoint], Transport] | None = None,
    failure_threshold: int = 3,
    reset_timeout: float = 1.0,
) -> GalleryClient:
    """Open a Gallery client for one or more service replicas.

    The one-line replacement for hand-assembled transport stacks::

        client = connect("gallery://10.0.0.1:9000,10.0.0.2:9000")
        client.upload_model("eta", "v1", blob)
        client.close()

    Accepts a ``gallery://`` URL (or a prebuilt :class:`EndpointSet`) and
    returns a :class:`GalleryClient` over a :class:`FailoverTransport` —
    load-aware reads, breaker-aware endpoint skipping, mid-call failover,
    graceful-drain re-routing, per-method retry budgets, and exactly-once
    mutations via the stable ``client_id`` the server replicas
    deduplicate on.  Also works fine with a single endpoint: the failover
    machinery then degrades to reconnect-and-retry against that address.

    A ``gallery+file://`` or ``gallery+http(s)://`` URL names a **fleet
    registry** instead of a fixed endpoint list::

        client = connect("gallery+file:///etc/gallery/fleet.txt?poll=1")

    The registry is polled in the background and every membership change
    is swapped into the transport live — replicas are added, drained, and
    removed without the client restarting.  Closing the client stops the
    poller along with every replica connection.

    ``lane`` picks the QoS lane the server's read batcher schedules this
    client in: ``"interactive"`` (the default) or ``"bulk"`` for
    backfills and sweeps — equivalently ``?lane=bulk`` on the URL.  A
    bulk client's reads queue behind interactive ones under load.
    """
    registry = None
    if isinstance(url, str) and url.partition("://")[0].startswith(
        f"{SCHEME}+"
    ):
        from repro.service.membership import fleet_from_url

        registry, endpoint_set = fleet_from_url(url)
    else:
        endpoint_set = EndpointSet.parse(url) if isinstance(url, str) else url
    transport = FailoverTransport(
        endpoint_set,
        policies=policies,
        transport_factory=transport_factory,
        failure_threshold=failure_threshold,
        reset_timeout=reset_timeout,
    )
    if registry is not None:
        registry.subscribe(transport.update_endpoints, replay=False)
        transport.attach_registry(registry)
        registry.start()
    return GalleryClient(
        transport,
        client_id=client_id,
        lane=lane if lane is not None else endpoint_set.lane,
    )
