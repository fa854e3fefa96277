"""Dynamic model switching for events (Section 4.2).

"Via action rules, Gallery is able to inform [the] forecasting serving
system about the performance of models that include holiday/event features
versus those that do not, and subsequently switch to serve the appropriate
models for the duration of the event."

Mechanics reproduced here:

* a :class:`RegistrySwitchboard` is the serving system's configuration —
  which instance each city serves right now — backed by the registry's
  durable serving assignments, so every replica over a shared store
  observes a switch without restart;
* :class:`EventSwitchingController` owns the Gallery selection rules that
  pick the event-aware or base champion per city, and the action rules that
  push switches onto the switchboard as events start and end;
* :func:`simulate_serving` replays a demand series hour by hour under a
  serving policy and scores the served predictions — the harness behind the
  ">10% MAPE improvement" experiment (EXP-C1-SWITCH).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.registry import Gallery
from repro.errors import NotFoundError
from repro.forecasting.evaluation import evaluate_forecast
from repro.forecasting.features import FeatureSpec, build_dataset
from repro.forecasting.models.base import ForecastModel, deserialize
from repro.forecasting.workload import DemandSeries
from repro.rules.actions import ActionContext, ActionRegistry
from repro.rules.engine import RuleEngine
from repro.rules.rule import Rule, selection_rule


@dataclass
class SwitchRecord:
    """One serving change: which city moved to which instance and when."""

    city: str
    instance_id: str
    hour: int
    reason: str = ""


class RegistrySwitchboard:
    """The serving system's live model-version configuration (registry-backed).

    Each city's "what is serving now" is a durable
    :class:`~repro.core.records.ServingAssignment` row in the Gallery
    registry: a switch made here (or by a rule action, a wire client, or a
    peer replica over the same store) is immediately visible to every
    reader of :meth:`Gallery.serving_for`.  ``history`` keeps this
    process's hour-stamped view of the switches *it* made — the simulation
    replay needs hours, which durable rows do not carry.
    """

    def __init__(self, gallery: Gallery) -> None:
        self._gallery = gallery
        self.history: list[SwitchRecord] = []

    def assign(self, city: str, instance_id: str, hour: int = 0, reason: str = "") -> None:
        try:
            current: str | None = self._gallery.serving_for(city).instance_id
        except NotFoundError:
            current = None
        if current == instance_id:
            return  # no-op switches are not configuration changes
        self._gallery.assign_serving(city, instance_id, reason=reason)
        self.history.append(
            SwitchRecord(city=city, instance_id=instance_id, hour=hour, reason=reason)
        )

    def serving(self, city: str) -> str:
        return self._gallery.serving_for(city).instance_id

    def switch_count(self, city: str | None = None) -> int:
        """Durable switch totals — they include peer replicas' switches."""
        if city is None:
            return sum(
                assignment.switch_count
                for assignment in self._gallery.serving_assignments()
            )
        try:
            return self._gallery.serving_for(city).switch_count
        except NotFoundError:
            return 0


def register_switch_action(
    actions: ActionRegistry, switchboard: RegistrySwitchboard
) -> None:
    """Install the ``switch_model`` callback action onto a registry."""

    def _switch(context: ActionContext) -> str:
        city = str(context.params.get("city") or context.document.get("city", ""))
        hour = int(context.params.get("hour", 0))
        switchboard.assign(
            city,
            context.instance_id,
            hour=hour,
            reason=context.params.get("reason", f"rule {context.rule_uuid}"),
        )
        return f"switched {city} -> {context.instance_id}"

    actions.register("switch_model", _switch, replace=True)


class EventSwitchingController:
    """Chooses per-city champions with Gallery selection rules.

    Two selection rules exist per city: one over event-aware instances
    (``handles_events == true``) and one over base instances.  When the
    event calendar says an event window is active the controller queries
    the event rule, otherwise the base rule; every change of champion is
    pushed through the ``switch_model`` action so the switchboard records
    it like a production configuration change.
    """

    def __init__(
        self,
        gallery: Gallery,
        engine: RuleEngine,
        switchboard: RegistrySwitchboard | None = None,
        team: str = "forecasting",
        quality_gate: str = "metrics.mape < 0.5",
    ) -> None:
        self._gallery = gallery
        self._engine = engine
        # Default to the registry-backed board so controller switches are
        # durable rows every replica (and the wire API) can observe.
        self._switchboard = (
            RegistrySwitchboard(gallery) if switchboard is None else switchboard
        )
        self._team = team
        self._quality_gate = quality_gate
        self._rules: dict[tuple[str, bool], Rule] = {}
        register_switch_action(engine.actions, self._switchboard)

    @property
    def switchboard(self) -> RegistrySwitchboard:
        return self._switchboard

    def _rule_for(self, city: str, event_aware: bool) -> Rule:
        key = (city, event_aware)
        rule = self._rules.get(key)
        if rule is None:
            flag = "true" if event_aware else "false"
            rule = selection_rule(
                uuid=f"select-{city}-{'event' if event_aware else 'base'}",
                team=self._team,
                given=f'city == "{city}" and handles_events == {flag}',
                when=self._quality_gate,
                selection="a.created_time > b.created_time",
                description=(
                    f"champion for {city} "
                    f"({'event-aware' if event_aware else 'base'} models)"
                ),
            )
            self._rules[key] = rule
        return rule

    def champion(self, city: str, event_active: bool) -> str | None:
        """The instance id the rules pick for *city* right now."""
        result = self._engine.select(self._rule_for(city, event_active))
        if result.instance_id is not None:
            return result.instance_id
        if event_active:
            # No qualified event model: degrade gracefully to the base rule
            # rather than serving nothing.
            return self._engine.select(self._rule_for(city, False)).instance_id
        return None

    def tick(self, city: str, hour: int, event_active: bool) -> str | None:
        """Advance one serving hour; switch the switchboard if needed."""
        instance_id = self.champion(city, event_active)
        if instance_id is None:
            return None
        self._switchboard.assign(
            city,
            instance_id,
            hour=hour,
            reason="event window" if event_active else "steady state",
        )
        return instance_id


# ---------------------------------------------------------------------------
# Serving replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ServingOutcome:
    """Scored results of a serving replay."""

    overall: Mapping[str, float]
    event_hours: Mapping[str, float] | None
    non_event_hours: Mapping[str, float] | None
    served_instances: tuple[str, ...]
    switches: int


class ModelCache:
    """Deserialized-model cache keyed by instance id (serving-side)."""

    def __init__(self, gallery: Gallery) -> None:
        self._gallery = gallery
        self._models: dict[str, ForecastModel] = {}

    def get(self, instance_id: str) -> ForecastModel:
        model = self._models.get(instance_id)
        if model is None:
            model = deserialize(self._gallery.load_instance_blob(instance_id))
            self._models[instance_id] = model
        return model


def simulate_serving(
    series: DemandSeries,
    choose_instance: Callable[[int, bool], str],
    model_cache: ModelCache,
    spec_by_instance: Mapping[str, FeatureSpec],
    start_hour: int,
    end_hour: int,
) -> ServingOutcome:
    """Replay serving on ``[start_hour, end_hour)`` of a demand series.

    ``choose_instance(hour, event_active)`` is the serving policy (static
    champion or rule-driven switching).  Each served hour is predicted by
    the chosen instance using *its own* feature specification, so base and
    event-aware models each see the features they were trained on.
    """
    datasets = {
        id(spec): build_dataset(series.values, spec, event_flags=series.event_flags)
        for spec in set(spec_by_instance.values())
    }
    row_index = {
        key: {hour: i for i, hour in enumerate(ds.hour_index)}
        for key, ds in datasets.items()
    }
    predictions: list[float] = []
    actuals: list[float] = []
    event_mask: list[bool] = []
    served: list[str] = []
    switchovers = 0
    previous: str | None = None
    for hour in range(start_hour, min(end_hour, len(series.values))):
        event_active = bool(series.event_flags[hour])
        instance_id = choose_instance(hour, event_active)
        spec = spec_by_instance[instance_id]
        dataset = datasets[id(spec)]
        row = row_index[id(spec)].get(hour)
        if row is None:
            continue  # inside the feature warm-up window
        model = model_cache.get(instance_id)
        predicted = float(model.predict(dataset.features[row: row + 1])[0])
        predictions.append(predicted)
        actuals.append(float(series.values[hour]))
        event_mask.append(event_active)
        served.append(instance_id)
        if previous is not None and instance_id != previous:
            switchovers += 1
        previous = instance_id
    actual_arr = np.asarray(actuals)
    predicted_arr = np.asarray(predictions)
    mask = np.asarray(event_mask, dtype=bool)
    overall = evaluate_forecast(actual_arr, predicted_arr)
    event_metrics = (
        evaluate_forecast(actual_arr[mask], predicted_arr[mask]) if mask.any() else None
    )
    non_event_metrics = (
        evaluate_forecast(actual_arr[~mask], predicted_arr[~mask])
        if (~mask).any()
        else None
    )
    return ServingOutcome(
        overall=overall,
        event_hours=event_metrics,
        non_event_hours=non_event_metrics,
        served_instances=tuple(served),
        switches=switchovers,
    )
