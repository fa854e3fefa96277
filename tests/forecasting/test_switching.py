"""Tests for dynamic model switching (Section 4.2 mechanics)."""

import pytest

from repro.core.clock import ManualClock
from repro.errors import NotFoundError
from repro.forecasting.features import FeatureSpec
from repro.forecasting.models import RidgeRegression
from repro.forecasting.pipeline import ForecastingPipeline, ModelSpecification
from repro.forecasting.switching import (
    EventSwitchingController,
    ModelCache,
    RegistrySwitchboard,
    register_switch_action,
    simulate_serving,
)
from repro.forecasting.workload import (
    CityProfile,
    EventWindow,
    HOURS_PER_DAY,
    HOURS_PER_WEEK,
    generate_city_demand,
)
from repro.rules.actions import ActionContext, ActionRegistry
from repro.rules.engine import RuleEngine


@pytest.fixture
def instance_ids(memory_gallery):
    """Three servable instances the board can point cities at."""
    memory_gallery.create_model("forecasting", "demand")
    return [
        memory_gallery.upload_model("forecasting", "demand", blob).instance_id
        for blob in (b"one", b"two", b"three")
    ]


class TestSwitchboard:
    def test_assign_and_query(self, memory_gallery, instance_ids):
        board = RegistrySwitchboard(memory_gallery)
        board.assign("sf", instance_ids[0], hour=5)
        assert board.serving("sf") == instance_ids[0]

    def test_noop_switch_not_recorded(self, memory_gallery, instance_ids):
        board = RegistrySwitchboard(memory_gallery)
        board.assign("sf", instance_ids[0])
        board.assign("sf", instance_ids[0])
        assert board.switch_count("sf") == 1
        assert len(board.history) == 1

    def test_unserved_city_raises(self, memory_gallery):
        with pytest.raises(NotFoundError):
            RegistrySwitchboard(memory_gallery).serving("ghost")

    def test_history_records_reason_and_hour(self, memory_gallery, instance_ids):
        board = RegistrySwitchboard(memory_gallery)
        board.assign("sf", instance_ids[0], hour=3, reason="event window")
        record = board.history[0]
        assert (record.city, record.hour, record.reason) == ("sf", 3, "event window")


class TestSwitchAction:
    def test_action_updates_switchboard(self, memory_gallery, instance_ids):
        board = RegistrySwitchboard(memory_gallery)
        actions = ActionRegistry()
        register_switch_action(actions, board)
        result = actions.execute(
            ActionContext(
                rule_uuid="r1",
                action="switch_model",
                params={"city": "sf", "hour": 9},
                instance_id=instance_ids[1],
                document={"city": "sf"},
            )
        )
        assert result.ok
        assert board.serving("sf") == instance_ids[1]
        assert board.history[0].hour == 9

    def test_city_falls_back_to_document(self, memory_gallery, instance_ids):
        board = RegistrySwitchboard(memory_gallery)
        actions = ActionRegistry()
        register_switch_action(actions, board)
        actions.execute(
            ActionContext(
                rule_uuid="r1",
                action="switch_model",
                params={},
                instance_id=instance_ids[2],
                document={"city": "nyc"},
            )
        )
        assert board.serving("nyc") == instance_ids[2]


@pytest.fixture
def switching_world(memory_gallery):
    """One city with a holiday in the serving window; base + event models."""
    # Holidays recur during training (weeks 1-2) so the event-aware model
    # learns the flag, plus one in the serving window (week 4).
    events = tuple(
        EventWindow(
            start=week * HOURS_PER_WEEK + 2 * HOURS_PER_DAY,
            end=week * HOURS_PER_WEEK + 3 * HOURS_PER_DAY,
            multiplier=1.8,
            name=f"holiday-w{week}",
        )
        for week in (1, 2, 3)
    )
    series = generate_city_demand(
        CityProfile(name="sf", base_demand=150, events=events),
        hours=4 * HOURS_PER_WEEK,
        seed=2,
    )
    pipeline = ForecastingPipeline(memory_gallery)
    base_spec = ModelSpecification(
        "ridge_base", lambda: RidgeRegression(), FeatureSpec(event_flag=False)
    )
    event_spec = ModelSpecification(
        "ridge_event", lambda: RidgeRegression(), FeatureSpec(event_flag=True)
    )
    train_hours = 3 * HOURS_PER_WEEK
    base = pipeline.train_city(series, base_spec, train_hours=train_hours)
    event = pipeline.train_city(series, event_spec, train_hours=train_hours)
    engine = RuleEngine(memory_gallery, clock=ManualClock())
    board = RegistrySwitchboard(memory_gallery)
    controller = EventSwitchingController(memory_gallery, engine, board)
    return {
        "gallery": memory_gallery,
        "series": series,
        "base": base,
        "event": event,
        "controller": controller,
        "board": board,
        "train_hours": train_hours,
        "specs": {
            base.instance.instance_id: base_spec.feature_spec,
            event.instance.instance_id: event_spec.feature_spec,
        },
    }


class TestController:
    def test_champion_prefers_event_model_during_events(self, switching_world):
        w = switching_world
        assert w["controller"].champion("sf", event_active=True) == w["event"].instance.instance_id
        assert w["controller"].champion("sf", event_active=False) == w["base"].instance.instance_id

    def test_tick_drives_switchboard(self, switching_world):
        w = switching_world
        w["controller"].tick("sf", hour=1, event_active=False)
        assert w["board"].serving("sf") == w["base"].instance.instance_id
        w["controller"].tick("sf", hour=2, event_active=True)
        assert w["board"].serving("sf") == w["event"].instance.instance_id
        assert w["board"].switch_count("sf") == 2

    def test_unknown_city_selects_nothing(self, switching_world):
        assert switching_world["controller"].champion("atlantis", False) is None

    def test_event_fallback_to_base_when_no_event_model(self, memory_gallery):
        pipeline = ForecastingPipeline(memory_gallery)
        series = generate_city_demand(
            CityProfile(name="solo", base_demand=100), 3 * HOURS_PER_WEEK, seed=3
        )
        base = pipeline.train_city(
            series,
            ModelSpecification("only_base", lambda: RidgeRegression(), FeatureSpec()),
        )
        engine = RuleEngine(memory_gallery, clock=ManualClock())
        controller = EventSwitchingController(memory_gallery, engine)
        assert controller.champion("solo", event_active=True) == base.instance.instance_id


class TestServingReplay:
    def test_dynamic_beats_static_on_event_hours(self, switching_world):
        w = switching_world
        cache = ModelCache(w["gallery"])
        start, end = w["train_hours"], len(w["series"].values)
        static = simulate_serving(
            w["series"],
            lambda h, e: w["base"].instance.instance_id,
            cache,
            w["specs"],
            start,
            end,
        )
        dynamic = simulate_serving(
            w["series"],
            lambda h, e: w["controller"].tick("sf", h, e),
            cache,
            w["specs"],
            start,
            end,
        )
        assert static.event_hours is not None and dynamic.event_hours is not None
        improvement = 1 - dynamic.event_hours["mape"] / static.event_hours["mape"]
        assert improvement > 0.10  # the paper's ">10% MAPE" shape
        assert dynamic.switches >= 2  # into and out of the event window

    def test_outcome_bookkeeping(self, switching_world):
        w = switching_world
        cache = ModelCache(w["gallery"])
        outcome = simulate_serving(
            w["series"],
            lambda h, e: w["base"].instance.instance_id,
            cache,
            w["specs"],
            w["train_hours"],
            len(w["series"].values),
        )
        assert outcome.switches == 0
        assert len(set(outcome.served_instances)) == 1
        assert outcome.overall["mape"] > 0

    def test_model_cache_loads_once(self, switching_world):
        w = switching_world
        cache = ModelCache(w["gallery"])
        blob_store = w["gallery"].dal.blobs
        before = blob_store.stats.gets
        iid = w["base"].instance.instance_id
        cache.get(iid)
        cache.get(iid)
        # DAL-level LRU may also intercept; the serving cache must not issue
        # more than one physical read for repeated access.
        assert blob_store.stats.gets <= before + 1
