"""Tests for real-time rule-selected champion serving (Section 3.7)."""

import numpy as np
import pytest

from repro.core.clock import ManualClock
from repro.errors import ValidationError
from repro.forecasting.features import FeatureSpec
from repro.forecasting.models import MovingAverage, RidgeRegression
from repro.forecasting.realtime import (
    RealtimeCandidate,
    RollingErrorTracker,
    SLOTS_PER_DAY,
    champion_rule,
    simulate_realtime_serving,
)
from repro.rules.engine import RuleEngine


def make_series(days=5, anomaly_start=None, anomaly_len=36, seed=0):
    """5-minute demand: daily sinusoid + noise + optional level anomaly."""
    rng = np.random.default_rng(seed)
    slots = days * SLOTS_PER_DAY
    t = np.arange(slots)
    base = 100.0 * (1.0 + 0.4 * np.sin(2 * np.pi * t / SLOTS_PER_DAY))
    values = base * rng.lognormal(0.0, 0.03, size=slots)
    if anomaly_start is not None:
        values[anomaly_start: anomaly_start + anomaly_len] *= 2.0
    return values


HEURISTIC_SPEC = FeatureSpec(lags=(1, 2, 3), rolling_windows=(), calendar=False)
COMPLEX_SPEC = FeatureSpec(
    lags=(1, 2, 3, SLOTS_PER_DAY), rolling_windows=(12,), calendar=False
)


@pytest.fixture
def realtime_world(gallery):
    values = make_series(days=5, anomaly_start=4 * SLOTS_PER_DAY + 60, seed=3)
    train_slots = 3 * SLOTS_PER_DAY
    gallery.create_model("rt", "demand_rt")

    from repro.forecasting.features import build_dataset
    from repro.forecasting.models import serialize

    candidates = []
    for label, spec, factory in [
        ("heuristic", HEURISTIC_SPEC, lambda: MovingAverage(window=3)),
        ("complex", COMPLEX_SPEC, lambda: RidgeRegression()),
    ]:
        dataset = build_dataset(values[:train_slots], spec)
        model = factory().fit(dataset.features, dataset.targets)
        instance = gallery.upload_model(
            "rt", "demand_rt", blob=serialize(model),
            metadata={"model_name": label},
        )
        candidates.append(
            RealtimeCandidate(
                instance_id=instance.instance_id,
                model=model,
                feature_spec=spec,
                label=label,
            )
        )
    engine = RuleEngine(gallery, clock=ManualClock())
    return gallery, engine, values, candidates, train_slots


class TestRollingErrorTracker:
    def test_publishes_rolling_ape(self, gallery):
        gallery.create_model("rt", "demand_rt")
        instance = gallery.upload_model("rt", "demand_rt", blob=b"m")
        tracker = RollingErrorTracker(gallery, window=2)
        tracker.record(instance.instance_id, actual=100.0, predicted=110.0)
        rolling = tracker.record(instance.instance_id, actual=100.0, predicted=90.0)
        assert rolling == pytest.approx(0.1)
        assert gallery.latest_metric(
            instance.instance_id, "rolling_ape"
        ) == pytest.approx(0.1)

    def test_window_bounds_memory(self, gallery):
        gallery.create_model("rt", "demand_rt")
        instance = gallery.upload_model("rt", "demand_rt", blob=b"m")
        tracker = RollingErrorTracker(gallery, window=3)
        for predicted in (200.0, 200.0, 200.0, 100.0, 100.0, 100.0):
            tracker.record(instance.instance_id, 100.0, predicted)
        assert tracker.rolling(instance.instance_id) == pytest.approx(0.0)

    def test_bad_window_rejected(self, gallery):
        with pytest.raises(ValidationError):
            RollingErrorTracker(gallery, window=0)


class TestChampionRule:
    def test_rule_prefers_lower_rolling_error(self):
        rule = champion_rule()
        better = {"metrics": {"rolling_ape": 0.05}}
        worse = {"metrics": {"rolling_ape": 0.20}}
        assert rule.prefers(better, worse)
        assert not rule.prefers(worse, better)

    def test_rule_excludes_catastrophic_candidates(self):
        rule = champion_rule(max_error=0.5)
        assert not rule.condition_holds({"metrics": {"rolling_ape": 0.9}})


class TestServingReplay:
    def test_static_policies_serve_one_model(self, realtime_world):
        gallery, engine, values, candidates, train_slots = realtime_world
        outcome = simulate_realtime_serving(
            gallery, engine, values, candidates,
            start_slot=train_slots, end_slot=len(values), policy="heuristic",
        )
        assert set(outcome.served_counts) == {"heuristic"}
        assert outcome.switches == 0

    def test_rule_policy_mixes_models(self, realtime_world):
        gallery, engine, values, candidates, train_slots = realtime_world
        outcome = simulate_realtime_serving(
            gallery, engine, values, candidates,
            start_slot=train_slots, end_slot=len(values), policy="rules",
        )
        # the anomaly in the serving window forces at least one switch
        assert outcome.switches >= 1
        assert sum(outcome.served_counts.values()) > 0

    def test_rule_mix_beats_or_matches_each_alone(self, realtime_world):
        gallery, engine, values, candidates, train_slots = realtime_world
        outcomes = {}
        for policy in ("heuristic", "complex", "rules"):
            outcomes[policy] = simulate_realtime_serving(
                gallery, engine, values, candidates,
                start_slot=train_slots, end_slot=len(values), policy=policy,
            )
        best_single = min(
            outcomes["heuristic"].metrics["mape"], outcomes["complex"].metrics["mape"]
        )
        # "combine the benefits of different models": the mix must not be
        # meaningfully worse than the best single model...
        assert outcomes["rules"].metrics["mape"] <= best_single * 1.05
        # ...and must beat the worst one clearly
        worst_single = max(
            outcomes["heuristic"].metrics["mape"], outcomes["complex"].metrics["mape"]
        )
        assert outcomes["rules"].metrics["mape"] < worst_single

    def test_unknown_policy_rejected(self, realtime_world):
        gallery, engine, values, candidates, train_slots = realtime_world
        with pytest.raises(ValidationError):
            simulate_realtime_serving(
                gallery, engine, values, candidates,
                start_slot=train_slots, end_slot=len(values), policy="ghost",
            )

    def test_empty_candidates_rejected(self, realtime_world):
        gallery, engine, values, _, train_slots = realtime_world
        with pytest.raises(ValidationError):
            simulate_realtime_serving(
                gallery, engine, values, [],
                start_slot=train_slots, end_slot=len(values),
            )
