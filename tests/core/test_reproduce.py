"""Tests for the model reproducibility service (Section 6.2)."""

import numpy as np
import pytest

from repro.core.records import MetricScope
from repro.core.reproduce import (
    ReproducibilityReport,
    TrainerRegistry,
    reproduce_instance,
)
from repro.errors import NotFoundError, ValidationError
from repro.forecasting import FeatureSpec, ForecastingPipeline, ModelSpecification
from repro.forecasting.pipeline import make_trainer
from repro.forecasting.models import RidgeRegression
from repro.forecasting.workload import CityProfile, generate_city_demand

SPEC = ModelSpecification(
    "ridge",
    lambda: RidgeRegression(l2=1.0),
    FeatureSpec(lags=(1, 2, 3, 24), rolling_windows=(6,)),
)


@pytest.fixture
def trained_world(gallery):
    """A trained instance plus the resolver that can replay its data."""
    series = generate_city_demand(
        CityProfile(name="sf", base_demand=120.0), hours=24 * 7 * 3, seed=9
    )
    pipeline = ForecastingPipeline(gallery)
    trained = pipeline.train_city(series, SPEC)

    def resolver(path, version):
        assert path == "synthetic://sf/demand"
        hours = int(version.rsplit("-", 1)[-1])
        return series.values[:hours], series.event_flags[:hours]

    trainers = TrainerRegistry()
    trainers.register("repro.forecasting.pipeline:ridge", make_trainer(SPEC, resolver))
    return gallery, trained, trainers


class TestTrainerRegistry:
    def test_register_and_resolve(self):
        registry = TrainerRegistry()
        trainer = lambda metadata: (b"", {})  # noqa: E731
        registry.register("code:ptr", trainer)
        assert registry.resolve("code:ptr") is trainer
        assert "code:ptr" in registry

    def test_duplicate_needs_replace(self):
        registry = TrainerRegistry()
        registry.register("p", lambda m: (b"", {}))
        with pytest.raises(ValidationError):
            registry.register("p", lambda m: (b"", {}))
        registry.register("p", lambda m: (b"x", {}), replace=True)

    def test_unknown_pointer_raises(self):
        with pytest.raises(NotFoundError):
            TrainerRegistry().resolve("ghost")


class TestReplay:
    def test_deterministic_training_reproduces_exactly(self, trained_world):
        gallery, trained, trainers = trained_world
        report = reproduce_instance(gallery, trained.instance.instance_id, trainers)
        assert report.reproduced
        assert report.blob_identical  # ridge on the same data is bit-stable
        assert report.max_relative_delta == pytest.approx(0.0, abs=1e-9)

    def test_replay_registered_as_sibling_with_lineage(self, trained_world):
        gallery, trained, trainers = trained_world
        report = reproduce_instance(gallery, trained.instance.instance_id, trainers)
        replayed = gallery.get_instance(report.replayed_instance_id)
        assert replayed.metadata["replay_of"] == trained.instance.instance_id
        assert replayed.parent_instance_id == trained.instance.instance_id
        assert gallery.ancestors(report.replayed_instance_id) == [
            trained.instance.instance_id
        ]

    def test_replay_records_validation_metrics(self, trained_world):
        gallery, trained, trainers = trained_world
        report = reproduce_instance(gallery, trained.instance.instance_id, trainers)
        metrics = gallery.metric_history(report.replayed_instance_id, "mape")
        assert metrics and metrics[0].scope is MetricScope.VALIDATION

    def test_dry_run_mode(self, trained_world):
        gallery, trained, trainers = trained_world
        before = gallery.dal.metadata.counts()["instances"]
        report = reproduce_instance(
            gallery, trained.instance.instance_id, trainers, record_replay=False
        )
        assert report.reproduced
        assert gallery.dal.metadata.counts()["instances"] == before

    def test_incomplete_metadata_refuses_replay(self, gallery):
        gallery.create_model("p", "demand")
        instance = gallery.upload_model("p", "demand", blob=b"m", metadata={})
        with pytest.raises(ValidationError, match="not reproducible"):
            reproduce_instance(gallery, instance.instance_id, TrainerRegistry())

    def test_divergent_trainer_reported(self, trained_world):
        gallery, trained, trainers = trained_world

        def drifting_trainer(metadata):
            return b"different-bytes", {"mape": 0.9, "bias": 0.5}

        trainers.register(
            "repro.forecasting.pipeline:ridge", drifting_trainer, replace=True
        )
        report = reproduce_instance(
            gallery, trained.instance.instance_id, trainers, metric_tolerance=0.05
        )
        assert not report.reproduced
        assert not report.blob_identical
        assert report.max_relative_delta > 0.05

    def test_nondeterministic_but_close_counts_as_reproduced(self, trained_world):
        gallery, trained, trainers = trained_world
        recorded = {
            m.name: m.value
            for m in gallery.metrics_of(trained.instance.instance_id)
        }

        def jittery_trainer(metadata):
            # different bytes (e.g. a new RNG stream) but metrics within 1%
            jittered = {name: value * 1.01 for name, value in recorded.items()}
            return b"other-seed-bytes", jittered

        trainers.register(
            "repro.forecasting.pipeline:ridge", jittery_trainer, replace=True
        )
        report = reproduce_instance(
            gallery, trained.instance.instance_id, trainers, metric_tolerance=0.05
        )
        assert report.reproduced and not report.blob_identical

    def test_report_str_readable(self, trained_world):
        gallery, trained, trainers = trained_world
        report = reproduce_instance(gallery, trained.instance.instance_id, trainers)
        assert "REPRODUCED" in str(report)
