"""Dynamic fleet membership: registry sources feeding live endpoint sets.

Gallery's serving tier is stateless and horizontally scaled (Section 4):
replicas come and go with deploys, crashes, and autoscaling.  PR 4 froze
the fleet at ``connect()`` time — a dead replica burned breaker probes
forever and a new one was invisible until every client restarted.  This
module makes membership *dynamic*, the way TensorFlow-Serving treats
servable versions as an aspired set to reconcile against:

* :func:`parse_registry` reads the one-endpoint-per-line registry format
  (``host:port``, ``#`` comments, blank lines) and rejects malformed
  lines, duplicates, and empty fleets loudly with a typed
  :class:`~repro.errors.FleetRegistryError`;
* :class:`StaticRegistrySource`, :class:`FileRegistrySource`, and
  :class:`HttpRegistrySource` answer "who is in the fleet right now?"
  from a fixed list, a watched file, or an HTTP endpoint;
* :class:`FleetRegistry` polls a source on a background thread, bumps an
  **epoch** every time membership actually changes, and pushes the new
  endpoint tuple to subscribers —
  :meth:`repro.service.endpoints.FailoverTransport.update_endpoints`
  swaps its replica states atomically under that epoch, so in-flight
  requests finish on the old set while new picks see the new one;
* :func:`fleet_from_url` turns a ``gallery+file://`` / ``gallery+http://``
  URL into a ready registry + initial
  :class:`~repro.service.endpoints.EndpointSet` (this is what
  :func:`repro.service.connect` calls when handed a registry URL).

A poll that fails after the first successful resolve keeps the last good
set (a registry outage must not empty a serving fleet); the *first*
resolve failing is loud — starting with zero replicas is an outage, not
a default.
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.request
from typing import Callable, Protocol, Sequence

from repro.errors import FleetRegistryError
from repro.service.endpoints import (
    Endpoint,
    EndpointSet,
    add_endpoint,
    parse_endpoint_options,
)

#: URL schemes :func:`fleet_from_url` accepts (plain ``gallery://`` stays
#: with :meth:`EndpointSet.parse` — a static fleet needs no registry).
FLEET_SCHEMES = ("gallery+file", "gallery+http", "gallery+https")

#: Default seconds between registry polls.
DEFAULT_POLL_INTERVAL = 1.0

MembershipCallback = Callable[[tuple[Endpoint, ...], int], None]


def parse_registry(text: str, origin: str = "registry") -> tuple[Endpoint, ...]:
    """Parse registry text: one ``host:port`` per line.

    Blank lines and ``#`` comments (whole-line or trailing) are
    tolerated; everything else must be a well-formed endpoint.  Errors
    carry *origin* and the 1-based line number so an operator can fix the
    file the message points at.
    """
    endpoints: list[Endpoint] = []
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            add_endpoint(line, endpoints)
        except ValueError as exc:
            raise FleetRegistryError(
                f"{origin} line {lineno}: {line!r} {exc}"
            ) from None
    if not endpoints:
        raise FleetRegistryError(
            f"{origin} is empty: a fleet needs at least one endpoint"
        )
    return tuple(endpoints)


class RegistrySource(Protocol):
    """Anything that can answer "who is in the fleet right now?"."""

    def load(self) -> tuple[Endpoint, ...]: ...

    def describe(self) -> str: ...


class StaticRegistrySource:
    """A fixed membership list (tests, single-host deployments)."""

    def __init__(self, endpoints: Sequence[Endpoint]) -> None:
        self._endpoints = tuple(endpoints)
        if not self._endpoints:
            raise FleetRegistryError(
                "static registry is empty: a fleet needs at least one endpoint"
            )

    def load(self) -> tuple[Endpoint, ...]:
        return self._endpoints

    def describe(self) -> str:
        return f"static({len(self._endpoints)} endpoints)"

    def replace(self, endpoints: Sequence[Endpoint]) -> None:
        """Swap the advertised membership (the next poll picks it up)."""
        self._endpoints = tuple(endpoints)


class FileRegistrySource:
    """A watched registry file: one ``host:port`` per line.

    The file is re-read on every poll; an *unchanged* file produces an
    identical endpoint tuple, which :class:`FleetRegistry` recognizes and
    does not re-announce.  A missing or unreadable file is a load error
    (loud on first resolve, last-good-set afterwards).
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)

    def load(self) -> tuple[Endpoint, ...]:
        try:
            with open(self.path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise FleetRegistryError(
                f"cannot read fleet registry {self.path!r}: {exc}"
            ) from exc
        return parse_registry(text, origin=self.path)

    def describe(self) -> str:
        return f"file({self.path})"


class HttpRegistrySource:
    """An HTTP(S) registry endpoint serving the same line format.

    Covers the "the deploy system knows the fleet" case: a sidecar or
    control plane exposes ``GET /fleet`` returning one ``host:port`` per
    line.  Non-2xx answers and transport failures are load errors.
    """

    def __init__(self, url: str, timeout: float = 5.0) -> None:
        self.url = url
        self.timeout = timeout

    def load(self) -> tuple[Endpoint, ...]:
        try:
            with urllib.request.urlopen(self.url, timeout=self.timeout) as reply:
                status = getattr(reply, "status", 200)
                if not 200 <= status < 300:
                    raise FleetRegistryError(
                        f"fleet registry {self.url!r} answered HTTP {status}"
                    )
                text = reply.read().decode("utf-8", errors="replace")
        except FleetRegistryError:
            raise
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise FleetRegistryError(
                f"cannot fetch fleet registry {self.url!r}: {exc}"
            ) from exc
        return parse_registry(text, origin=self.url)

    def describe(self) -> str:
        return f"http({self.url})"


class FleetRegistry:
    """Polls a :class:`RegistrySource` and announces membership changes.

    * :meth:`refresh` loads the source once; when the endpoint tuple
      differs from the current one it bumps :attr:`epoch` and calls every
      subscriber with ``(endpoints, epoch)``.  Identical loads are free.
    * :meth:`start` runs :meth:`refresh` every ``poll_interval`` seconds
      on a daemon thread until :meth:`stop`.
    * The **first** resolve failing raises (an empty fleet is an outage);
      later failures park in :attr:`last_error` and keep the last good
      set — a registry blip must not tear down a serving fleet.
    """

    def __init__(
        self,
        source: RegistrySource,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ) -> None:
        if poll_interval <= 0:
            raise FleetRegistryError("poll interval must be positive")
        self._source = source
        self._poll_interval = poll_interval
        self._lock = threading.Lock()
        self._subscribers: list[MembershipCallback] = []
        self._endpoints: tuple[Endpoint, ...] | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: membership version: bumped on every actual change
        self.epoch = 0
        #: most recent load failure (None while the source is healthy)
        self.last_error: Exception | None = None
        #: total refresh() calls that completed a load attempt
        self.refreshes = 0

    # -- membership -----------------------------------------------------------

    def endpoints(self) -> tuple[Endpoint, ...]:
        with self._lock:
            if self._endpoints is None:
                raise FleetRegistryError(
                    f"fleet registry {self._source.describe()} never resolved"
                )
            return self._endpoints

    def refresh(self) -> bool:
        """Load the source once; True when membership changed."""
        try:
            endpoints = self._source.load()
        except Exception as exc:
            with self._lock:
                self.last_error = exc
                self.refreshes += 1
                never_resolved = self._endpoints is None
            if never_resolved:
                raise  # starting with zero replicas is an outage, not a default
            return False
        with self._lock:
            self.last_error = None
            self.refreshes += 1
            if endpoints == self._endpoints:
                return False
            self._endpoints = endpoints
            self.epoch += 1
            epoch = self.epoch
            subscribers = list(self._subscribers)
        for callback in subscribers:  # outside the lock: callbacks may be slow
            callback(endpoints, epoch)
        return True

    def subscribe(self, callback: MembershipCallback, replay: bool = True) -> None:
        """Register for membership updates (optionally replaying the
        current set immediately so late subscribers never miss it)."""
        with self._lock:
            self._subscribers.append(callback)
            current, epoch = self._endpoints, self.epoch
        if replay and current is not None:
            callback(current, epoch)

    # -- polling --------------------------------------------------------------

    def start(self) -> "FleetRegistry":
        """Start the background poller (idempotent)."""
        if self._thread is not None:
            return self
        if self._endpoints is None:
            self.refresh()  # loud: the first resolve must succeed
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._poll_loop, name="gallery-fleet-registry", daemon=True
        )
        self._thread.start()
        return self

    def _poll_loop(self) -> None:
        while not self._stop.wait(self._poll_interval):
            try:
                self.refresh()
            except Exception:  # noqa: BLE001 - recorded in last_error
                pass

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    close = stop

    def __enter__(self) -> "FleetRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def fleet_from_url(url: str) -> tuple[FleetRegistry, EndpointSet]:
    """Build a registry + initial endpoint set from a fleet URL.

    Formats::

        gallery+file:///var/run/gallery/fleet.txt?poll=0.5&timeout=5
        gallery+http://10.0.0.5:8500/v1/gallery/fleet?poll=2

    Query parameters are the usual connection option (``timeout``) plus
    ``poll`` (seconds between registry polls, default 1),
    each at most once.  The registry is resolved once, loudly, before this
    returns — the caller gets a non-empty fleet or a typed error, never a
    silently empty client.
    """
    if "://" not in url:
        raise FleetRegistryError(
            f"not a fleet URL: {url!r} (expected gallery+file:// or gallery+http://)"
        )
    scheme, rest = url.split("://", 1)
    if scheme not in FLEET_SCHEMES:
        raise FleetRegistryError(
            f"unsupported fleet scheme {scheme!r} (expected one of {FLEET_SCHEMES})"
        )
    location, _, query = rest.partition("?")
    poll_interval: float | None = None
    passthrough: list[str] = []
    for pair in query.split("&") if query else ():
        if not pair:
            continue
        key, _, value = pair.partition("=")
        if key == "poll":
            if poll_interval is not None:
                raise FleetRegistryError("repeated query parameter 'poll'")
            try:
                poll_interval = float(value)
            except ValueError:
                raise FleetRegistryError(
                    f"poll interval {value!r} is not a number"
                ) from None
            if poll_interval <= 0:
                raise FleetRegistryError("poll interval must be positive")
        else:
            passthrough.append(pair)
    options = parse_endpoint_options("&".join(passthrough))

    source: RegistrySource
    if scheme == "gallery+file":
        if not location:
            raise FleetRegistryError(f"no registry path in fleet URL {url!r}")
        source = FileRegistrySource(location)
    else:
        http_scheme = scheme.removeprefix("gallery+")
        if not location:
            raise FleetRegistryError(f"no registry host in fleet URL {url!r}")
        source = HttpRegistrySource(f"{http_scheme}://{location}")

    registry = FleetRegistry(source, poll_interval=poll_interval or DEFAULT_POLL_INTERVAL)
    registry.refresh()  # loud on first resolve
    endpoint_set = EndpointSet(endpoints=registry.endpoints(), **options)
    return registry, endpoint_set


def fleet_endpoints(url: str) -> tuple[str, ...]:
    """Resolve any fleet/endpoint URL to its ``host:port`` addresses.

    Accepts registry URLs (``gallery+file://``, ``gallery+http(s)://``),
    plain ``gallery://`` lists, and a bare ``host:port``.  This is the
    operator-tool entry point (``gallery fleet status``) — it answers
    "who would a client dial right now?" without opening connections.
    """
    scheme = url.partition("://")[0]
    if scheme in FLEET_SCHEMES:
        _registry, endpoint_set = fleet_from_url(url)
    else:
        endpoint_set = EndpointSet.parse(
            url if "://" in url else f"gallery://{url}"
        )
    return tuple(endpoint.address for endpoint in endpoint_set.endpoints)
