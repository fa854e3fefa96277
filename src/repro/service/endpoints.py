"""Replicated serving plane: endpoint sets, live membership, and failover.

Gallery at Uber runs its stateless service "horizontally scalable across
different data centers" (Section 4) — any replica can answer any call
because all state lives in the storage layer.  This module is the client
half of that deployment:

* :class:`EndpointSet` parses a ``gallery://host:port,host:port`` URL into
  an ordered replica list plus connection options (timeout, QoS lane);
* :class:`FailoverTransport` spreads calls across the replicas with
  **load-aware routing**: per-endpoint latency EWMA plus in-flight depth,
  power-of-two-choices pick among breaker-admitted non-draining replicas,
  one :class:`~repro.reliability.breaker.CircuitBreaker` per endpoint so a
  dead replica is skipped instead of re-probed on every call, and
  mid-call failover on transport errors.  Replayed mutations stay
  exactly-once because every replica shares the durable
  ``(client_id, request_id)`` dedup table (see
  :class:`repro.service.server.DurableRequestDedupCache`);
* **membership is live**: :meth:`FailoverTransport.update_endpoints`
  swaps the replica set atomically under an epoch stamp — new endpoints
  join the rotation, departed ones have their connections closed (at once
  when idle, deferred until their in-flight calls finish otherwise), and
  surviving endpoints keep their breakers and warm connections.  A
  :class:`repro.service.membership.FleetRegistry` feeds these swaps from
  a file/HTTP registry so replicas are added or drained without any
  client restart;
* **graceful drain**: a replica answering
  :class:`~repro.errors.ReplicaDrainingError` is marked draining for a
  short TTL and routed around — the rejection is a routing signal, not an
  endpoint failure, so it neither trips the breaker nor consumes the
  caller's retry budget (the server guarantees a drain-rejected request
  was never executed, which makes the re-route safe even for mutations);
* :func:`connect` is the one-line factory:
  ``connect("gallery://10.0.0.1:9000,10.0.0.2:9000")`` for a static
  fleet, ``connect("gallery+file:///etc/gallery/fleet.txt")`` for a
  registry-driven one.

Recovered replicas rejoin automatically: an open breaker decays to
half-open after its reset timeout, the pick admits a single probe, and
one success closes the circuit again.  Undrained replicas rejoin the
same way — the drain mark expires after its TTL and the next pick either
sticks (server still draining: re-marked) or serves.
"""

from __future__ import annotations

import random
import threading
import time

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import (
    CircuitOpenError,
    RateLimitedError,
    ServiceError,
    ValidationError,
)
from repro.reliability.breaker import BreakerState, CircuitBreaker
from repro.service import wire
from repro.service.client import (
    IDEMPOTENT_METHODS,
    TRANSIENT_ERROR_TYPES,
    GalleryClient,
    MethodRetryPolicies,
    Transport,
)
from repro.service.server import MUTATING_METHODS
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
        seen: set[tuple[str, int]] = set()
        for part in netloc.split(","):
            part = part.strip()
            if not part:
                raise ValidationError(f"empty endpoint in URL {url!r}")
            host, sep, port_text = part.rpartition(":")
            if not sep or not host:
                raise ValidationError(
                    f"endpoint {part!r} must be host:port (port is required)"
                )
            try:
                port = int(port_text)
            except ValueError:
                raise ValidationError(
                    f"endpoint {part!r} has a non-numeric port"
                ) from None
            if not 0 < port < 65536:
                raise ValidationError(f"endpoint {part!r} port out of range")
            if (host, port) in seen:
                raise ValidationError(f"duplicate endpoint {part!r} in URL")
            seen.add((host, port))
            endpoints.append(Endpoint(host, port))

        return cls(
            endpoints=tuple(endpoints), **parse_endpoint_options(query)
        )


class _ResolvedExchange:
    """A pre-resolved stand-in for a pipelined exchange handle.

    Used when a batch shard's outcome is known at submit time (its
    submission failed everywhere, or an injected endpoint transport has no
    ``submit_many`` and the shard ran as sequential round-trips): the
    handle just replays the outcome.
    """

    __slots__ = ("_error", "_frame")

    def __init__(self, frame: bytes | None, error: BaseException | None) -> None:
        self._frame = frame
        self._error = error

    def wait(self, timeout: float | None = None) -> bytes:
        if self._error is not None:
            raise self._error
        assert self._frame is not None
        return self._frame

    def done(self) -> bool:
        return True


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
    #: calls currently on the wire to this endpoint
    in_flight: int = 0
    #: monotonic timestamp until which the endpoint is considered draining
    draining_until: float = 0.0
    #: set when the endpoint left the membership; close deferred until
    #: its in-flight calls finish
    retired: bool = False

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
            self.close()

    def observe(self, latency: float) -> None:
        """Fold one successful call's latency into the EWMA."""
        if latency < 0:
            return
        with self._meter:
            if self.ewma is None:
                self.ewma = latency
            else:
                self.ewma += _LATENCY_ALPHA * (latency - self.ewma)

    def score(self) -> float:
        """Load score: latency estimate scaled by queue depth.

        Unmeasured endpoints score 0 — the most attractive — so a fresh
        replica gets probed (and measured) quickly instead of starving.
        """
        with self._meter:
            return (self.ewma or 0.0) * (1 + self.in_flight)

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
            self.close()

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

    def close(self) -> None:
        self.reset()


class FailoverTransport:
    """Routes frames across replica endpoints with breaker-aware failover.

    * **Load-aware picks** (power of two choices): every endpoint carries
      a latency EWMA (updated on each answered call) and an in-flight
      counter; a pick samples two distinct breaker-admitted, non-draining
      replicas and takes the lower ``ewma × (1 + in_flight)`` score.  A
      measurably slow or busy replica keeps serving — just much less —
      and unmeasured replicas score 0 so new endpoints are probed
      immediately.  Ties break toward rotation order, so a fresh
      transport's first call over two endpoints goes to the first, and
      over more never to the last.
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
    * **Rate-limit reroutes**: a replica answering
      :class:`~repro.errors.RateLimitedError` likewise *never executed
      the request* — its QoS layer refused this tenant — so the call is
      re-sent to a different replica with no breaker penalty and no
      retry-budget charge.  When *every* replica refuses, the transport
      honours the smallest advertised ``retry_after`` once before one
      more sweep; if the fleet is still refusing, the typed retryable
      error surfaces to the caller.
    * **Transport errors** (connection refused/reset, wire breakage) count
      against that endpoint's breaker, drop its connection, and fail the
      call over to the next endpoint immediately — no backoff, because a
      different replica is an independent resource.  Only when every
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

    The retry budget is one :class:`MethodRetryPolicies` budget per call,
    counted across *all* endpoints — a call never takes more than one
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
        #: total frames put on a wire (includes retries)
        self.attempts = 0
        #: calls that moved to a different endpoint after a transport error
        self.failovers = 0
        #: calls transparently re-routed off a draining replica
        self.drain_reroutes = 0
        #: calls transparently re-routed off a rate-limiting replica
        self.rate_limit_reroutes = 0

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
                "in_flight": state.in_flight,
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
        never does).  Draining replicas go last, as a better-than-nothing
        fallback when the whole fleet is draining.
        """
        now = self._clock()
        active: list[_EndpointState] = []
        draining: list[_EndpointState] = []
        for state in self._rotation(self._states):
            if state in exclude or state.breaker.state is BreakerState.OPEN:
                continue
            (draining if state.is_draining(now) else active).append(state)
        if len(active) < 2:
            return active + draining
        winner = self._p2c_pick(active)
        return (
            [winner]
            + [state for state in active if state is not winner]
            + draining
        )

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

    def _admit(self, exclude: set[_EndpointState]) -> _EndpointState | None:
        """Best endpoint whose breaker lets the call through, if any.

        ``allow()`` is asked one endpoint at a time so a half-open breaker
        spends its single probe only on a call that actually goes to that
        endpoint.
        """
        for state in self._pick_order(exclude):
            try:
                state.breaker.allow()
            except CircuitOpenError:
                continue
            return state
        return None

    @staticmethod
    def _can_retry(head: tuple[str, str] | None) -> bool:
        if head is None:  # opaque frame: be conservative
            return False
        method, client_id = head
        if method in IDEMPOTENT_METHODS:
            return True
        return bool(client_id) and method in MUTATING_METHODS

    # -- transport contract ---------------------------------------------------

    def __call__(self, data: bytes) -> bytes:
        head = wire.peek_request_head(data)
        retryable = self._can_retry(head)
        policy = self._policies.for_method(head[0] if head is not None else "")
        attempts_allowed = policy.max_attempts if retryable else 1
        deadline = (
            None if policy.deadline is None else self._clock() + policy.deadline
        )

        last_error: BaseException | None = None
        transient_raw: bytes | None = None
        draining_raw: bytes | None = None
        drained: set[_EndpointState] = set()
        # Endpoints whose QoS layer refused this tenant *this call*.  Like
        # draining, a refusal means the request was never executed, so the
        # pick simply avoids them; unlike draining the endpoint stays in
        # rotation for the *next* call (buckets refill in milliseconds).
        limited: set[_EndpointState] = set()
        limited_raw: bytes | None = None
        limited_retry_after: float | None = None
        limited_sweeps = 0
        # Endpoints that already failed *this call* at the transport level.
        # Without this exclusion the load-aware pick re-selects a freshly
        # dead replica every attempt — it has no EWMA measurement, so it
        # scores 0 ("most attractive") until its breaker finally opens,
        # burning the whole retry budget on one corpse.
        failed: set[_EndpointState] = set()
        backoff_next = False  # sleep before the next attempt?
        retry_number = 1  # RetryPolicy.backoff is 1-based
        attempt = 0
        while attempt < attempts_allowed:
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
            state = self._admit(drained | failed | limited)
            if state is None and failed:
                # Every non-excluded endpoint is out; give already-failed
                # ones another chance rather than faking a full outage.
                # The pick is wrapping around to an endpoint that already
                # failed this call (always, for a fleet of one), so unlike
                # a move to a different replica it waits out the backoff —
                # unless every one of them tripped its breaker, in which
                # case there is nothing to re-dial and the all-open branch
                # below takes over without a wasted sleep.
                backoff_next = any(
                    s.breaker.state is not BreakerState.OPEN for s in failed
                )
                failed.clear()
                continue
            if state is None:
                if limited and limited_raw is not None and limited_sweeps < 1:
                    # Every pickable replica refused on QoS this call:
                    # honour the smallest advertised retry_after, then give
                    # the whole fleet one more sweep — token buckets refill
                    # on exactly that horizon.  No retry-budget charge.
                    delay = (
                        limited_retry_after
                        if limited_retry_after is not None
                        else RateLimitedError.DEFAULT_RETRY_AFTER
                    )
                    if deadline is not None:
                        delay = min(delay, max(0.0, deadline - self._clock()))
                    if delay > 0:
                        self._sleep(delay)
                    limited.clear()
                    limited_retry_after = None
                    limited_sweeps += 1
                    continue
                if limited_raw is not None and not drained:
                    # Still refused after the backoff sweep: surface the
                    # typed retryable error for the caller to pace itself.
                    return limited_raw
                if draining_raw is not None:
                    # Every reachable replica is draining: surface the
                    # typed retryable error instead of faking an outage.
                    return draining_raw
                # Every breaker is open: nothing to try right now.  Back
                # off toward the reset timeout so a half-open probe becomes
                # possible, then go around again.
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
            try:
                raw = state.transport()(data)
            except (ServiceError, OSError) as exc:
                state.end()
                # The replica (or the path to it) is broken: penalize its
                # breaker, drop its connection, and fail over immediately.
                state.breaker.record_failure()
                state.reset()
                failed.add(state)
                if retryable and attempt + 1 < attempts_allowed:
                    self.failovers += 1
                last_error = exc
                transient_raw = None
                backoff_next = False
                attempt += 1
                continue
            state.end()
            state.breaker.record_success()
            try:
                response = wire.decode_response(raw)
            except Exception:  # noqa: BLE001 - hand back verbatim
                state.observe(self._clock() - started)
                return raw
            if not response.ok and response.error_type == "ReplicaDrainingError":
                # A routing signal, not a failure: the server never
                # executed the request (safe to re-send anywhere, even a
                # mutation without a client_id), so route elsewhere for
                # free — no breaker penalty, no retry-budget charge.  The
                # drain mark keeps this endpoint out of picks until its
                # TTL expires and the replica is re-probed.
                state.mark_draining(self._clock() + self._drain_ttl)
                drained.add(state)
                draining_raw = raw
                self.drain_reroutes += 1
                continue
            if not response.ok and response.error_type == "RateLimitedError":
                # QoS refusal: also a routing signal — the request was
                # never executed, so another replica (whose token buckets
                # are independent) can serve it for free.  No breaker
                # penalty, no retry-budget charge, and the endpoint stays
                # in rotation for future calls.
                limited.add(state)
                limited_raw = raw
                hint = RateLimitedError(response.error_message).retry_after
                if limited_retry_after is None or hint < limited_retry_after:
                    limited_retry_after = hint
                self.rate_limit_reroutes += 1
                continue
            state.observe(self._clock() - started)
            if (
                retryable
                and not response.ok
                and response.error_type in self._transient_errors
            ):
                # The replica is fine; its dependency flaked.  Retry with
                # backoff (and a fresh pick), but leave the breaker alone.
                transient_raw = raw
                last_error = None
                backoff_next = True
                attempt += 1
                continue
            return raw

        if transient_raw is not None:
            return transient_raw  # retries exhausted: surface the real error
        if draining_raw is not None and last_error is None:
            return draining_raw
        if limited_raw is not None and last_error is None:
            return limited_raw
        if isinstance(last_error, CircuitOpenError):
            raise last_error
        raise ServiceError(
            f"all endpoints failed after {self.attempts} attempt(s): {last_error}"
        ) from last_error

    def submit_many(self, frames: list[bytes]) -> list[Any]:
        """Ship a pipelined batch across the healthy endpoints.

        The batch is sharded round-robin across every breaker-admitted,
        non-draining replica — each shard goes out through its own
        connection, responses stream back concurrently, and the returned
        handles are re-knit into the caller's original frame order.  A
        shard whose submission fails fails over to the next admitted
        endpoint before giving up (safe: a batch whose send fails never
        reaches the server, and the pipelined transport discards its
        registrations when the connection drops).  Once submitted,
        individual exchanges resolve or fail on their own — per-item retry
        is the caller's decision, exactly as with a direct
        :class:`PipelinedTcpTransport`.
        """
        if not frames:
            return []
        # Admit at most as many endpoints as there are frames: a half-open
        # breaker's allow() hands out its single recovery probe, so we must
        # not admit an endpoint we won't use.
        admitted = self._admitted_states(len(frames))
        if not admitted:
            raise CircuitOpenError(
                "no healthy endpoint: all circuit breakers are open"
            )
        # Failover candidates beyond the admitted set; _submit_shard asks
        # their breakers itself when it reaches them.
        others = [
            state
            for state in self._states
            if all(state is not used for used in admitted)
        ]
        if len(admitted) == 1:
            return self._submit_shard(frames, admitted + others)
        shard_count = len(admitted)
        exchanges: list[Any] = [None] * len(frames)
        for shard in range(shard_count):
            indices = range(shard, len(frames), shard_count)
            shard_frames = [frames[index] for index in indices]
            # Each shard prefers its own replica; on submission failure it
            # fails over to the other admitted ones, then the rest.
            preference = admitted[shard:] + admitted[:shard] + others
            try:
                resolved = self._submit_shard(shard_frames, preference)
            except BaseException as exc:  # noqa: BLE001 - park per shard
                resolved = [
                    _ResolvedExchange(None, exc) for _ in shard_frames
                ]
            for index, exchange in zip(indices, resolved):
                exchanges[index] = exchange
        return exchanges

    def _admitted_states(self, limit: int) -> list[_EndpointState]:
        """Up to *limit* endpoints whose breakers admit traffic right now.

        Draining replicas are only admitted when nothing else is — a
        batch pinned to a draining server would bounce off its drain gate
        frame by frame.
        """
        now = self._clock()
        ordered = self._rotation(self._states)
        candidates = [s for s in ordered if not s.is_draining(now)] + [
            s for s in ordered if s.is_draining(now)
        ]
        admitted: list[_EndpointState] = []
        for state in candidates:
            if len(admitted) >= limit:
                break
            try:
                state.breaker.allow()
            except CircuitOpenError:
                continue
            admitted.append(state)
        return admitted

    def _submit_shard(
        self, frames: list[bytes], states: list[_EndpointState]
    ) -> list[Any]:
        """Submit one batch to the first workable endpoint in *states*."""
        last_error: BaseException | None = None
        for attempt, state in enumerate(states):
            if attempt:
                # Failover target: re-check the breaker (the preferred
                # endpoint consumed its admission when the shard was cut).
                try:
                    state.breaker.allow()
                except CircuitOpenError:
                    continue
            transport = state.transport()
            submit = getattr(transport, "submit_many", None)
            if submit is None:
                # A plain bytes -> bytes transport (injected through
                # transport_factory): sequential failover calls instead.
                return [self._resolved(frame) for frame in frames]
            try:
                exchanges = submit(frames)
            except (ServiceError, OSError) as exc:
                state.breaker.record_failure()
                state.reset()
                self.failovers += 1
                last_error = exc
                continue
            state.breaker.record_success()
            return exchanges
        if last_error is not None:
            raise ServiceError(
                f"batch submission failed on every endpoint: {last_error}"
            ) from last_error
        raise CircuitOpenError(
            "no healthy endpoint: all circuit breakers are open"
        )

    def _resolved(self, frame: bytes) -> _ResolvedExchange:
        try:
            return _ResolvedExchange(self(frame), None)
        except BaseException as exc:  # noqa: BLE001 - delivered via wait()
            return _ResolvedExchange(None, exc)

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
            state.close()

    def __enter__(self) -> "FailoverTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


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
    bulk client's reads queue behind interactive ones under load, and a
    rate-limited tenant sees a typed retryable
    :class:`~repro.errors.RateLimitedError` that the failover transport
    reroutes (and paces via ``retry_after``) without breaker penalty.
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
