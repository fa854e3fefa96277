"""The paper's headline scenario: fleet-wide rule-driven family switching.

Section 4.2's closing anecdote, run end to end over the production plane:
a fleet of per-city demand forecasters serves base models until a holiday
window opens; one checked-in action rule fires ``switch_family`` per city,
the registry's durable serving assignments re-point every city at its
event-aware family, and all serving replicas — separate processes' worth of
:class:`~repro.service.tcp.GalleryTcpServer` over one sharded store — see
the switch without restart while query traffic keeps flowing.

The harness measures what the paper claims:

* **switch propagation** — wall-clock from the rule's commit (the
  ``SERVING_SWITCHED`` event on the rules replica) to each peer replica
  observing the new assignment through ``servingFor`` over the wire, under
  concurrent ``modelQuery`` load.  Reported as p50/p95;
* **MAPE improvement** — event-hour forecast error of registry-driven
  switching vs. a never-switching baseline (EXP-C1-SWITCH's ">10%" bar);
* **replica agreement** — every replica must resolve the same instance for
  every sampled city after the switch.

``run_scenario`` stamps all of it into one JSON document (``out_path``).
"""

from __future__ import annotations

import json
import statistics
import threading
import time

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro import build_gallery
from repro.core.registry import Gallery
from repro.errors import GalleryError, NotFoundError
from repro.forecasting.features import FeatureSpec
from repro.forecasting.models import RidgeRegression
from repro.forecasting.pipeline import ForecastingPipeline, ModelSpecification
from repro.forecasting.switching import ModelCache, simulate_serving
from repro.forecasting.workload import (
    HOURS_PER_WEEK,
    DemandSeries,
    build_city_fleet,
    generate_city_demand,
)
from repro.rules import (
    RuleEngine,
    RuleRepository,
    action_rule,
    register_switch_family_action,
)
from repro.rules.events import EventKind
from repro.rules.rule import ActionSpec
from repro.service.endpoints import connect
from repro.service.server import GalleryService
from repro.service.tcp import GalleryTcpServer


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Knobs for the fleet-scale switching scenario.

    The defaults are the fast seeded small-fleet mode (``make scenario``);
    ``examples/family_switch_fleet.py`` raises ``cities`` into the hundreds
    for the paper-scale run.
    """

    cities: int = 12
    weeks: int = 8
    train_weeks: int = 6
    holiday_every_weeks: int = 2
    shard_count: int = 4
    replicas: int = 3
    seed: int = 9
    #: cities whose propagation + MAPE are measured (bounded so the poller
    #: and simulation cost stays flat as the fleet grows).
    sample_cities: int = 8
    load_threads: int = 4
    propagation_timeout: float = 30.0
    base_spec_name: str = "ridge_base"
    event_spec_name: str = "ridge_event"

    @property
    def hours(self) -> int:
        return self.weeks * HOURS_PER_WEEK

    @property
    def train_hours(self) -> int:
        return self.train_weeks * HOURS_PER_WEEK


@dataclass
class ScenarioResult:
    """Everything the scenario measured, ready to be written as JSON."""

    config: ScenarioConfig
    propagation_ms: list[float] = field(default_factory=list)
    propagation_p50_ms: float = 0.0
    propagation_p95_ms: float = 0.0
    replicas_agree: bool = False
    cities_switched: int = 0
    durable_switch_total: int = 0
    queries_during_switch: int = 0
    query_errors: int = 0
    query_qps: float = 0.0
    static_event_mape: float = 0.0
    dynamic_event_mape: float = 0.0
    event_mape_improvement: float = 0.0
    per_city: list[dict[str, Any]] = field(default_factory=list)
    train_seconds: float = 0.0
    scenario_seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "benchmark": "PR9 fleet-scale family switching (EXP-C1-SWITCH)",
            "harness": "src/repro/forecasting/scenario.py",
            "config": {
                "cities": self.config.cities,
                "weeks": self.config.weeks,
                "train_weeks": self.config.train_weeks,
                "shard_count": self.config.shard_count,
                "replicas": self.config.replicas,
                "seed": self.config.seed,
                "sample_cities": self.config.sample_cities,
                "load_threads": self.config.load_threads,
            },
            "propagation": {
                "samples": len(self.propagation_ms),
                "p50_ms": round(self.propagation_p50_ms, 3),
                "p95_ms": round(self.propagation_p95_ms, 3),
                "replicas_agree": self.replicas_agree,
            },
            "switching": {
                "cities_switched": self.cities_switched,
                "durable_switch_total": self.durable_switch_total,
            },
            "query_load": {
                "queries_during_switch": self.queries_during_switch,
                "errors": self.query_errors,
                "qps": round(self.query_qps, 1),
            },
            "mape": {
                "static_event_mape": round(self.static_event_mape, 4),
                "dynamic_event_mape": round(self.dynamic_event_mape, 4),
                "event_improvement": round(self.event_mape_improvement, 4),
                "per_city": self.per_city,
            },
            "timing": {
                "train_seconds": round(self.train_seconds, 2),
                "scenario_seconds": round(self.scenario_seconds, 2),
            },
        }

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def _percentile(samples: list[float], pct: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[index]


class _QueryLoad:
    """Concurrent ``modelQuery`` traffic against every replica's wire port."""

    def __init__(self, addresses: list[tuple[str, int]], threads: int) -> None:
        self._addresses = addresses
        self._threads = threads
        self._stop = threading.Event()
        self._workers: list[threading.Thread] = []
        self.queries = 0
        self.errors = 0
        self._lock = threading.Lock()

    def start(self) -> None:
        for index in range(self._threads):
            worker = threading.Thread(target=self._run, args=(index,), daemon=True)
            self._workers.append(worker)
            worker.start()

    def _run(self, index: int) -> None:
        host, port = self._addresses[index % len(self._addresses)]
        client = connect(f"gallery://{host}:{port}")
        queries = errors = 0
        try:
            while not self._stop.is_set():
                try:
                    client.model_query(
                        [
                            {
                                "field": "model_domain",
                                "operator": "equal",
                                "value": "demand",
                            }
                        ]
                    )
                    queries += 1
                except GalleryError:
                    errors += 1
        finally:
            client.close()
            with self._lock:
                self.queries += queries
                self.errors += errors

    def stop(self) -> None:
        self._stop.set()
        for worker in self._workers:
            worker.join(timeout=30)


def _poll_replicas(
    addresses: list[tuple[str, int]],
    expected: Mapping[str, str],
    commit_times: Mapping[str, float],
    timeout: float,
) -> tuple[list[float], bool]:
    """Watch ``servingFor`` on every replica until each scope flips.

    Returns (latency samples in ms, completed) where each sample is the gap
    between the rules replica committing a scope's switch and one replica
    observing the expected family through the wire.
    """
    samples: list[float] = []
    lock = threading.Lock()
    incomplete = threading.Event()

    def watch(host: str, port: int) -> None:
        client = connect(f"gallery://{host}:{port}")
        try:
            pending = dict(expected)
            deadline = time.monotonic() + timeout
            while pending and time.monotonic() < deadline:
                for scope, family in list(pending.items()):
                    try:
                        assignment = client.serving_for(scope)
                    except GalleryError:
                        continue  # not assigned yet on this shard
                    if assignment.get("family") == family:
                        observed = time.monotonic()
                        committed = commit_times.get(scope, observed)
                        with lock:
                            samples.append(max(0.0, (observed - committed) * 1000.0))
                        del pending[scope]
                time.sleep(0.002)
            if pending:
                incomplete.set()
        finally:
            client.close()

    watchers = [
        threading.Thread(target=watch, args=(host, port), daemon=True)
        for host, port in addresses
    ]
    for watcher in watchers:
        watcher.start()
    for watcher in watchers:
        watcher.join(timeout=timeout + 10)
    return samples, not incomplete.is_set()


def run_scenario(
    config: ScenarioConfig,
    data_dir: str | Path,
    out_path: str | Path | None = None,
    verbose: bool = False,
) -> ScenarioResult:
    """Run the fleet-scale switching scenario; optionally stamp the JSON."""

    def say(message: str) -> None:
        if verbose:
            print(message)

    result = ScenarioResult(config=config)
    scenario_start = time.monotonic()

    # -- 1. one sharded store, trained through a local writer ------------------
    data_dir = Path(data_dir)
    writer = build_gallery(
        metadata_backend="sqlite",
        blob_backend="fs",
        data_dir=data_dir,
        shard_count=config.shard_count,
    )
    base_spec = ModelSpecification(
        config.base_spec_name, lambda: RidgeRegression(), FeatureSpec(event_flag=False)
    )
    event_spec = ModelSpecification(
        config.event_spec_name, lambda: RidgeRegression(), FeatureSpec(event_flag=True)
    )
    profiles = build_city_fleet(
        config.cities,
        hours=config.hours,
        seed=config.seed,
        holiday_every_weeks=config.holiday_every_weeks,
    )
    fleet = [
        generate_city_demand(profile, hours=config.hours, seed=config.seed)
        for profile in profiles
    ]
    pipeline = ForecastingPipeline(writer)
    train_start = time.monotonic()
    base_by_city: dict[str, str] = {}
    event_by_city: dict[str, str] = {}
    for series in fleet:
        trained_base = pipeline.train_city(
            series, base_spec, train_hours=config.train_hours
        )
        base_by_city[series.city] = trained_base.instance.instance_id
        # Event-aware candidates register disabled: the enablement gate is
        # flipped over the wire below, the way a reviewer (or CI) would.
        trained_event = pipeline.train_city(
            series, event_spec, train_hours=config.train_hours, enabled=False
        )
        event_by_city[series.city] = trained_event.instance.instance_id
    result.train_seconds = time.monotonic() - train_start
    say(
        f"trained {2 * len(fleet)} instances across {len(fleet)} cities "
        f"in {result.train_seconds:.1f}s ({config.shard_count} shards)"
    )

    # Every city starts on its base model — durable rows in the registry.
    for series in fleet:
        writer.assign_serving(series.city, base_by_city[series.city], reason="launch")

    # -- 2. three serving replicas over the same sharded store ----------------
    replicas = [
        build_gallery(metadata_backend="sqlite", blob_backend="fs", data_dir=data_dir)
        for _ in range(config.replicas)
    ]
    servers = [GalleryTcpServer(GalleryService(replica)) for replica in replicas]
    for server in servers:
        server.start()
    addresses = [server.address for server in servers]
    say(f"{len(servers)} replicas serving at {addresses}")

    try:
        # Flip the enablement gate over the wire (round-robin across replicas).
        gate_client = connect(
            "gallery://" + ",".join(f"{h}:{p}" for h, p in addresses)
        )
        try:
            for instance_id in event_by_city.values():
                gate_client.enable_instance(instance_id)
        finally:
            gate_client.close()
        say(f"enabled {len(event_by_city)} event-aware instances over the wire")

        # -- 3. the rules replica: commit times come off its event bus --------
        rules_gallery = replicas[0]
        engine = RuleEngine(rules_gallery, bus=rules_gallery.bus)
        register_switch_family_action(engine.actions, rules_gallery)
        repo = RuleRepository()
        swap_to_event = action_rule(
            uuid="event-window-open",
            team="forecasting",
            given="handles_events == true",
            when="metrics.mape < 10.0",
            actions=[ActionSpec("switch_family", {"metric": "mape", "reason": "event window open"})],
            description="event window open: serve each city's event-aware family",
        )
        swap_to_base = action_rule(
            uuid="event-window-close",
            team="forecasting",
            given="handles_events == false",
            when="metrics.mape < 10.0",
            actions=[ActionSpec("switch_family", {"metric": "mape", "reason": "event window closed"})],
            description="event window closed: return each city to its base family",
        )
        repo.check_in(
            "forecasting-oncall",
            "forecasting-lead",
            "family switching for scheduled event windows",
            [swap_to_event, swap_to_base],
        )
        engine.sync_from_repo(repo)

        commit_times: dict[str, float] = {}

        def record_commit(event) -> None:
            if event.kind is EventKind.SERVING_SWITCHED:
                commit_times[event.payload.get("scope", "")] = time.monotonic()

        rules_gallery.bus.subscribe(record_commit)

        sample = fleet[: max(1, min(config.sample_cities, len(fleet)))]
        expected_families = {
            series.city: f"{series.city}:{config.event_spec_name}" for series in sample
        }

        # -- 4. event fires under concurrent query load -----------------------
        load = _QueryLoad(addresses, config.load_threads)
        load.start()
        load_started = time.monotonic()

        poll_out: dict[str, Any] = {}
        poller = threading.Thread(
            target=lambda: poll_out.update(
                zip(
                    ("samples", "complete"),
                    _poll_replicas(
                        addresses,
                        expected_families,
                        commit_times,
                        config.propagation_timeout,
                    ),
                )
            ),
            daemon=True,
        )
        poller.start()

        engine.trigger(swap_to_event)
        fired = engine.drain()
        say(f"rule engine fired {len(fired)} switch_family actions")

        poller.join(timeout=config.propagation_timeout + 30)
        load.stop()
        load_seconds = time.monotonic() - load_started

        result.propagation_ms = list(poll_out.get("samples", []))
        result.propagation_p50_ms = _percentile(result.propagation_ms, 50)
        result.propagation_p95_ms = _percentile(result.propagation_ms, 95)
        result.queries_during_switch = load.queries
        result.query_errors = load.errors
        result.query_qps = load.queries / load_seconds if load_seconds > 0 else 0.0
        say(
            f"propagation p50={result.propagation_p50_ms:.1f}ms "
            f"p95={result.propagation_p95_ms:.1f}ms over "
            f"{len(result.propagation_ms)} observations; "
            f"{load.queries} concurrent queries ({result.query_qps:.0f}/s)"
        )

        # -- 5. replica agreement: all replicas resolve the same instance -----
        agree = bool(poll_out.get("complete", False))
        served_event: dict[str, str] = {}
        for series in sample:
            seen: set[str] = set()
            for host, port in addresses:
                client = connect(f"gallery://{host}:{port}")
                try:
                    assignment = client.serving_for(series.city)
                finally:
                    client.close()
                seen.add(str(assignment["instance_id"]))
            if len(seen) != 1:
                agree = False
            served_event[series.city] = next(iter(seen))
        result.replicas_agree = agree
        result.cities_switched = sum(
            1
            for series in fleet
            if writer.serving_for(series.city).family
            == f"{series.city}:{config.event_spec_name}"
        )
        say(
            f"replicas agree={agree}; {result.cities_switched}/{len(fleet)} "
            f"cities now serve their event-aware family"
        )

        # -- 6. window closes: rule returns the fleet to base families --------
        engine.trigger(swap_to_base)
        engine.drain()
        served_base: dict[str, str] = {}
        for series in sample:
            host, port = addresses[-1]
            client = connect(f"gallery://{host}:{port}")
            try:
                served_base[series.city] = str(
                    client.serving_for(series.city)["instance_id"]
                )
            finally:
                client.close()
        result.durable_switch_total = sum(
            assignment.switch_count for assignment in writer.serving_assignments()
        )

        # -- 7. MAPE: registry-driven switching vs never-switching ------------
        cache = ModelCache(writer)
        static_event: list[float] = []
        dynamic_event: list[float] = []
        for series in sample:
            specs = {
                base_by_city[series.city]: base_spec.feature_spec,
                event_by_city[series.city]: event_spec.feature_spec,
                served_event[series.city]: event_spec.feature_spec,
                served_base[series.city]: base_spec.feature_spec,
            }
            static = simulate_serving(
                series,
                lambda h, e, c=series.city: base_by_city[c],
                cache,
                specs,
                config.train_hours,
                len(series.values),
            )
            # The dynamic policy serves exactly what the registry resolved:
            # the rule-switched instance inside the window, the switched-back
            # instance outside it.
            dynamic = simulate_serving(
                series,
                lambda h, e, c=series.city: (
                    served_event[c] if e else served_base[c]
                ),
                cache,
                specs,
                config.train_hours,
                len(series.values),
            )
            if static.event_hours is None or dynamic.event_hours is None:
                continue
            static_event.append(static.event_hours["mape"])
            dynamic_event.append(dynamic.event_hours["mape"])
            result.per_city.append(
                {
                    "city": series.city,
                    "static_event_mape": round(static.event_hours["mape"], 4),
                    "dynamic_event_mape": round(dynamic.event_hours["mape"], 4),
                }
            )
        if static_event:
            result.static_event_mape = statistics.mean(static_event)
            result.dynamic_event_mape = statistics.mean(dynamic_event)
            if result.static_event_mape > 0:
                result.event_mape_improvement = (
                    1.0 - result.dynamic_event_mape / result.static_event_mape
                )
        say(
            f"event-hour MAPE: static={result.static_event_mape:.4f} "
            f"dynamic={result.dynamic_event_mape:.4f} "
            f"improvement={result.event_mape_improvement:.1%}"
        )
    finally:
        for server in servers:
            server.stop()
        for replica in replicas:
            replica.dal.metadata.close()
        writer.dal.metadata.close()

    result.scenario_seconds = time.monotonic() - scenario_start
    if out_path is not None:
        result.write(out_path)
        say(f"stamped {out_path}")
    return result


__all__ = ["ScenarioConfig", "ScenarioResult", "run_scenario"]
