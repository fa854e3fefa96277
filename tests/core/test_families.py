"""Registry-level tests for families, enablement, and serving assignments.

The PR9 API surface: ``create_model(..., family=)``, the enablement review
gate, family membership queries, durable serving assignments, and
``switch_family`` routing — all enablement-gated and event-publishing.
Runs on both metadata configurations (``:memory:`` and a WAL file).
"""

import pytest

from repro.errors import NotFoundError, ValidationError
from repro.rules.events import EventKind

pytestmark = pytest.mark.parametrize(
    "metadata_store", ["memory", "sqlite"], indirect=True
)


def seed_family(gallery, family="sf:rf", n=3, metric_values=None):
    """Create a model and *n* instances in *family*; returns the instances."""
    gallery.create_model("p", "demand", family="demand_rf")
    instances = []
    for index in range(n):
        instance = gallery.upload_model(
            "p",
            "demand",
            blob=f"blob-{index}".encode(),
            metadata={"model_name": "rf", "city": "sf"},
            family=family,
        )
        if metric_values is not None:
            gallery.insert_metric(instance.instance_id, "mape", metric_values[index])
        instances.append(instance)
    return instances


class TestFamilyMembership:
    def test_model_family_set_at_creation(self, gallery):
        model = gallery.create_model("p", "demand", family="demand_rf")
        assert model.family == "demand_rf"
        assert [m.model_id for m in gallery.models_in_family("demand_rf")] == [
            model.model_id
        ]

    def test_instance_inherits_model_family_by_default(self, gallery):
        gallery.create_model("p", "demand", family="demand_rf")
        instance = gallery.upload_model("p", "demand", blob=b"m")
        assert instance.family == "demand_rf"

    def test_explicit_instance_family_overrides_model(self, gallery):
        instances = seed_family(gallery, family="sf:rf", n=1)
        assert instances[0].family == "sf:rf"
        assert gallery.instances_in_family("demand_rf") == []

    def test_membership_excludes_unservable_by_default(self, gallery):
        instances = seed_family(gallery, n=3)
        gallery.disable_instance(instances[0].instance_id)
        gallery.deprecate_instance(instances[1].instance_id)
        servable = gallery.instances_in_family("sf:rf")
        assert [i.instance_id for i in servable] == [instances[2].instance_id]
        everyone = gallery.instances_in_family(
            "sf:rf", include_disabled=True, include_deprecated=True
        )
        assert len(everyone) == 3

    def test_deprecated_models_filtered_from_family(self, gallery):
        model = gallery.create_model("p", "demand", family="demand_rf")
        gallery.deprecate_model(model.model_id)
        assert gallery.models_in_family("demand_rf") == []
        assert len(gallery.models_in_family("demand_rf", include_deprecated=True)) == 1


class TestEnablementGate:
    def test_flip_round_trip(self, gallery):
        (instance,) = seed_family(gallery, n=1)
        assert instance.enabled is True
        disabled = gallery.disable_instance(instance.instance_id)
        assert disabled.enabled is False
        assert gallery.get_instance(instance.instance_id).enabled is False
        assert gallery.enable_instance(instance.instance_id).enabled is True

    def test_flip_publishes_enablement_event(self, gallery):
        (instance,) = seed_family(gallery, n=1)
        before = len(gallery.bus)
        gallery.disable_instance(instance.instance_id)
        events = [
            e
            for e in gallery.bus.history()[before:]
            if e.kind is EventKind.INSTANCE_ENABLEMENT
        ]
        assert len(events) == 1
        assert events[0].payload["enabled"] is False
        assert events[0].instance_id == instance.instance_id

    def test_noop_flip_publishes_nothing(self, gallery):
        (instance,) = seed_family(gallery, n=1)
        before = len(gallery.bus)
        gallery.enable_instance(instance.instance_id)  # already enabled
        assert len(gallery.bus) == before

    def test_upload_can_register_disabled(self, gallery):
        gallery.create_model("p", "demand")
        instance = gallery.upload_model("p", "demand", blob=b"m", enabled=False)
        assert instance.enabled is False


class TestServingAssignments:
    def test_assign_and_read_back(self, gallery):
        (instance,) = seed_family(gallery, n=1)
        assignment = gallery.assign_serving(
            "sf", instance.instance_id, reason="launch"
        )
        assert assignment.scope == "sf"
        assert assignment.family == "sf:rf"
        assert assignment.switch_count == 1
        assert gallery.serving_for("sf") == assignment
        assert [a.scope for a in gallery.serving_assignments()] == ["sf"]

    def test_unknown_scope_raises(self, gallery):
        with pytest.raises(NotFoundError):
            gallery.serving_for("ghost")

    def test_disabled_instance_cannot_win_assignment(self, gallery):
        (instance,) = seed_family(gallery, n=1)
        gallery.disable_instance(instance.instance_id)
        with pytest.raises(ValidationError):
            gallery.assign_serving("sf", instance.instance_id)

    def test_deprecated_instance_cannot_win_assignment(self, gallery):
        (instance,) = seed_family(gallery, n=1)
        gallery.deprecate_instance(instance.instance_id)
        with pytest.raises(ValidationError):
            gallery.assign_serving("sf", instance.instance_id)

    def test_unknown_instance_cannot_win_assignment(self, gallery):
        with pytest.raises(NotFoundError):
            gallery.assign_serving("sf", "ghost-instance")

    def test_switch_publishes_event_noop_does_not(self, gallery):
        a, b = seed_family(gallery, n=2)
        gallery.assign_serving("sf", a.instance_id)
        switched = [
            e for e in gallery.bus.history() if e.kind is EventKind.SERVING_SWITCHED
        ]
        assert len(switched) == 1  # first assignment is a switch
        gallery.assign_serving("sf", a.instance_id)  # no-op replay
        switched = [
            e for e in gallery.bus.history() if e.kind is EventKind.SERVING_SWITCHED
        ]
        assert len(switched) == 1, "no-op re-assignment must not publish"
        gallery.assign_serving("sf", b.instance_id, reason="cutover")
        event = [
            e for e in gallery.bus.history() if e.kind is EventKind.SERVING_SWITCHED
        ][-1]
        assert event.payload["scope"] == "sf"
        assert event.payload["previous_instance_id"] == a.instance_id
        assert event.payload["switch_count"] == 2
        assert event.payload["reason"] == "cutover"


class TestBestInFamilyAndSwitch:
    def test_best_without_metric_is_newest_servable(self, gallery):
        instances = seed_family(gallery, n=3)
        assert gallery.best_in_family("sf:rf") == instances[-1]
        gallery.disable_instance(instances[-1].instance_id)
        assert gallery.best_in_family("sf:rf") == instances[-2]

    def test_best_by_metric_min_and_max(self, gallery):
        instances = seed_family(gallery, n=3, metric_values=[0.3, 0.1, 0.2])
        best = gallery.best_in_family("sf:rf", metric="mape", mode="min")
        assert best.instance_id == instances[1].instance_id
        worst = gallery.best_in_family("sf:rf", metric="mape", mode="max")
        assert worst.instance_id == instances[0].instance_id

    def test_unmeasured_candidates_lose_to_measured(self, gallery):
        instances = seed_family(gallery, n=2)
        gallery.insert_metric(instances[0].instance_id, "mape", 0.4)
        best = gallery.best_in_family("sf:rf", metric="mape")
        assert best.instance_id == instances[0].instance_id

    def test_bad_mode_rejected(self, gallery):
        seed_family(gallery, n=1)
        with pytest.raises(ValidationError):
            gallery.best_in_family("sf:rf", metric="mape", mode="median")

    def test_empty_family_raises(self, gallery):
        with pytest.raises(NotFoundError):
            gallery.best_in_family("ghost-family")

    def test_switch_family_routes_scope_to_best(self, gallery):
        instances = seed_family(gallery, n=3, metric_values=[0.3, 0.1, 0.2])
        assignment = gallery.switch_family("sf", "sf:rf", metric="mape")
        assert assignment.instance_id == instances[1].instance_id
        assert assignment.reason == "switch_family:sf:rf"
        assert gallery.serving_for("sf").instance_id == instances[1].instance_id

    def test_switch_family_skips_unservable(self, gallery):
        instances = seed_family(gallery, n=2, metric_values=[0.1, 0.5])
        gallery.disable_instance(instances[0].instance_id)  # the metric winner
        assignment = gallery.switch_family("sf", "sf:rf", metric="mape")
        assert assignment.instance_id == instances[1].instance_id

    def test_switch_family_with_no_servable_leaves_scope_untouched(self, gallery):
        instances = seed_family(gallery, n=1)
        gallery.assign_serving("sf", instances[0].instance_id)
        gallery.disable_instance(instances[0].instance_id)
        with pytest.raises(NotFoundError):
            gallery.switch_family("sf", "ghost-family")
        # the existing assignment keeps serving while humans investigate
        assert gallery.serving_for("sf").instance_id == instances[0].instance_id
