"""EXP-C1-SWITCH — Section 4.2: dynamic model switching "improves the
accuracy of the served predictions by more than 10% MAPE ... compared to a
static served model".

Per city: a base ridge model (no event features) and an event-aware ridge
model are trained on six weeks containing holidays; weeks 7-8 are served
(a) statically with the base champion and (b) dynamically with Gallery
selection rules switching to the event model inside event windows.  The
headline number is the event-hour MAPE improvement, averaged over cities.

The benchmark times one rule-mediated serving decision (controller tick).
"""

from __future__ import annotations

import numpy as np
from conftest import report

from repro import build_gallery
from repro.core import ManualClock, SeededIdFactory
from repro.forecasting import (
    CityProfile,
    EventSwitchingController,
    EventWindow,
    FeatureSpec,
    ForecastingPipeline,
    HOURS_PER_DAY,
    HOURS_PER_WEEK,
    ModelCache,
    ModelSpecification,
    RegistrySwitchboard,
    generate_city_demand,
    simulate_serving,
)
from repro.forecasting.models import RidgeRegression

N_CITIES = 3
TOTAL_WEEKS = 8
TRAIN_WEEKS = 6


def build_city(index: int):
    events = tuple(
        EventWindow(
            start=week * HOURS_PER_WEEK + 2 * HOURS_PER_DAY,
            end=week * HOURS_PER_WEEK + 3 * HOURS_PER_DAY,
            multiplier=1.7 + 0.1 * index,
            name=f"holiday-w{week}",
        )
        for week in (1, 3, 5, 6, 7)  # training coverage + serving-window events
    )
    profile = CityProfile(
        name=f"city-{index}", base_demand=100.0 + 60.0 * index, events=events
    )
    return generate_city_demand(profile, hours=TOTAL_WEEKS * HOURS_PER_WEEK, seed=index)


def run_experiment():
    from repro.rules import RuleEngine

    gallery = build_gallery(clock=ManualClock(), id_factory=SeededIdFactory(20))
    pipeline = ForecastingPipeline(gallery)
    engine = RuleEngine(gallery, clock=ManualClock())
    switchboard = RegistrySwitchboard(gallery)
    controller = EventSwitchingController(gallery, engine, switchboard)
    cache = ModelCache(gallery)

    base_spec = ModelSpecification(
        "ridge_base", lambda: RidgeRegression(), FeatureSpec(event_flag=False)
    )
    event_spec = ModelSpecification(
        "ridge_event", lambda: RidgeRegression(), FeatureSpec(event_flag=True)
    )
    train_hours = TRAIN_WEEKS * HOURS_PER_WEEK
    rows = []
    for index in range(N_CITIES):
        series = build_city(index)
        base = pipeline.train_city(series, base_spec, train_hours=train_hours)
        event = pipeline.train_city(series, event_spec, train_hours=train_hours)
        specs = {
            base.instance.instance_id: base_spec.feature_spec,
            event.instance.instance_id: event_spec.feature_spec,
        }
        static = simulate_serving(
            series, lambda h, e: base.instance.instance_id, cache, specs,
            train_hours, len(series.values),
        )
        dynamic = simulate_serving(
            series,
            lambda h, e, c=series.city: controller.tick(c, h, e),
            cache, specs, train_hours, len(series.values),
        )
        rows.append((series.city, static, dynamic))
    return rows, switchboard, controller


def test_dynamic_switching_mape_improvement(benchmark):
    rows, switchboard, controller = run_experiment()

    improvements = []
    lines = [
        f"{'city':<10}{'static ev-MAPE':>16}{'dynamic ev-MAPE':>17}"
        f"{'improvement':>13}{'overall d/s':>14}{'switches':>10}"
    ]
    for city, static, dynamic in rows:
        improvement = 1 - dynamic.event_hours["mape"] / static.event_hours["mape"]
        improvements.append(improvement)
        lines.append(
            f"{city:<10}{static.event_hours['mape']:>16.4f}"
            f"{dynamic.event_hours['mape']:>17.4f}{improvement:>12.1%}"
            f"{dynamic.overall['mape'] / static.overall['mape']:>14.3f}"
            f"{switchboard.switch_count(city):>10}"
        )
    mean_improvement = float(np.mean(improvements))
    lines.append("")
    lines.append(
        f"mean event-window MAPE improvement: {mean_improvement:.1%} "
        "(paper claims >10%)"
    )
    assert mean_improvement > 0.10
    assert all(switchboard.switch_count(city) >= 2 for city, *_ in rows)

    # benchmark: one rule-mediated serving decision
    benchmark(lambda: controller.tick("city-0", 1200, True))
    report("EXP-C1-SWITCH_model_switching", lines)
