"""PR9 acceptance: fleet-scale rule-driven family switching (Section 4.2).

Three serving replicas over one sharded store; a checked-in action rule
fires ``switch_family`` for every city when the event window opens; the
harness measures switch propagation to every replica over the wire (under
concurrent ``modelQuery`` load) and the event-hour MAPE improvement of
registry-driven switching vs. a never-switching baseline, then stamps its
JSON result — under ``tmp_path`` here; ``make scenario`` writes the
untracked ``build/family_switch_fleet.json``.
"""

from __future__ import annotations

import json

from repro.forecasting.scenario import ScenarioConfig, run_scenario


class TestFleetScaleFamilySwitch:
    def test_rule_driven_switch_across_replicas(self, tmp_path):
        config = ScenarioConfig(
            cities=10,
            weeks=8,
            train_weeks=6,
            shard_count=4,
            replicas=3,
            seed=9,
            sample_cities=6,
            load_threads=4,
        )
        bench_path = tmp_path / "family_switch_fleet.json"
        result = run_scenario(config, tmp_path / "gallery", out_path=bench_path)

        # The rule switched every city's durable assignment, and every
        # replica resolved the same post-switch instance over the wire.
        assert result.cities_switched == config.cities
        assert result.replicas_agree

        # Propagation: each sampled scope observed on each replica.
        assert len(result.propagation_ms) == config.sample_cities * config.replicas
        assert result.propagation_p50_ms <= result.propagation_p95_ms
        assert result.propagation_p95_ms < 2000.0, (
            f"switch propagation p95 {result.propagation_p95_ms:.1f}ms "
            "breached the 2s bar"
        )

        # The switch happened under live query traffic, loss-free.
        assert result.queries_during_switch > 0
        assert result.query_errors == 0

        # EXP-C1-SWITCH: >10% event-hour MAPE improvement vs never switching.
        assert result.event_mape_improvement > 0.10, (
            f"event-hour MAPE improvement {result.event_mape_improvement:.1%} "
            "below the paper's >10% bar"
        )

        # Every switch is a durable row: per city, the launch assignment
        # (switch_count=1) plus the open and close rule switches.
        assert result.durable_switch_total >= 3 * config.cities

        # The stamped benchmark file is self-consistent with the result.
        stamped = json.loads(bench_path.read_text())
        assert stamped["propagation"]["p95_ms"] < 2000.0
        assert stamped["propagation"]["replicas_agree"] is True
        assert stamped["mape"]["event_improvement"] > 0.10
        assert stamped["config"]["replicas"] == 3
        assert stamped["switching"]["cities_switched"] == config.cities
