"""The paper's fleet-scale switching scenario (Section 4.2), end to end.

Hundreds of per-city demand forecasters live behind three serving replicas
sharing one sharded store.  When the holiday window opens, a checked-in
action rule fires ``switch_family`` per city: the registry's durable
serving assignments re-point every city at its event-aware family, every
replica observes the switch over the wire without restart, and the harness
measures switch-propagation latency (under concurrent ``modelQuery`` load)
plus the event-hour MAPE improvement vs. never switching.

Run:       python examples/family_switch_fleet.py
Fast mode: python examples/family_switch_fleet.py --fast   (make scenario)

Results are stamped into ``build/family_switch_fleet.json`` (untracked).
"""

from __future__ import annotations

import sys
import tempfile

from pathlib import Path

from repro.forecasting.scenario import ScenarioConfig, run_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    fast = "--fast" in sys.argv[1:]
    config = (
        ScenarioConfig(cities=12, sample_cities=8, seed=9)
        if fast
        else ScenarioConfig(cities=200, sample_cities=12, seed=9)
    )
    mode = "fast seeded small-fleet" if fast else "paper-scale"
    print(
        f"{mode} mode: {config.cities} cities x 2 model families, "
        f"{config.replicas} replicas over {config.shard_count} shards"
    )
    out_path = REPO_ROOT / "build" / "family_switch_fleet.json"
    out_path.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="gallery-scenario-") as tmp:
        result = run_scenario(
            config, Path(tmp) / "gallery", out_path=out_path, verbose=True
        )

    print("\n--- scenario summary ---")
    print(f"cities switched by rule:   {result.cities_switched}/{config.cities}")
    print(f"replicas agree:            {result.replicas_agree}")
    print(
        f"switch propagation:        p50 {result.propagation_p50_ms:.1f}ms / "
        f"p95 {result.propagation_p95_ms:.1f}ms "
        f"({len(result.propagation_ms)} observations, bar: p95 < 2000ms)"
    )
    print(
        f"concurrent query load:     {result.queries_during_switch} queries, "
        f"{result.query_errors} errors ({result.query_qps:.0f}/s)"
    )
    print(
        f"event-hour MAPE:           static {result.static_event_mape:.4f} -> "
        f"dynamic {result.dynamic_event_mape:.4f} "
        f"({result.event_mape_improvement:.1%} improvement, bar: >10%)"
    )
    print(f"total wall clock:          {result.scenario_seconds:.1f}s")


if __name__ == "__main__":
    main()
