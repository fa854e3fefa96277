"""Tests for the Gallery-wired training pipeline and retraining monitor."""

import pytest

from repro.core.health import DriftDetector
from repro.forecasting.features import FeatureSpec
from repro.forecasting.models import RidgeRegression, deserialize
from repro.forecasting.pipeline import (
    ForecastingPipeline,
    ModelSpecification,
    RetrainingMonitor,
)
from repro.forecasting.workload import CityProfile, generate_city_demand

SPEC = ModelSpecification(
    name="ridge",
    factory=lambda: RidgeRegression(l2=1.0),
    feature_spec=FeatureSpec(lags=(1, 2, 3, 24), rolling_windows=(6,)),
)


@pytest.fixture
def series():
    return generate_city_demand(CityProfile(name="sf", base_demand=150), 24 * 7 * 4, seed=5)


@pytest.fixture
def pipeline(gallery):
    return ForecastingPipeline(gallery)


class TestTrainCity:
    def test_trains_registers_and_scores(self, pipeline, series):
        trained = pipeline.train_city(series, SPEC)
        assert trained.city == "sf"
        assert 0 <= trained.validation_metrics["mape"] < 0.5
        instance = pipeline.gallery.get_instance(trained.instance.instance_id)
        assert instance.metadata["city"] == "sf"
        assert instance.metadata["model_name"] == "linear_regression"

    def test_blob_is_a_working_model(self, pipeline, series):
        trained = pipeline.train_city(series, SPEC)
        blob = pipeline.gallery.load_instance_blob(trained.instance.instance_id)
        model = deserialize(blob)
        import numpy as np

        from repro.forecasting.features import build_dataset

        dataset = build_dataset(series.values, SPEC.feature_spec)
        predictions = model.predict(dataset.features[-10:])
        assert np.all(np.isfinite(predictions))

    def test_reproducibility_metadata_complete(self, pipeline, series):
        trained = pipeline.train_city(series, SPEC)
        report = pipeline.gallery.instance_health(trained.instance.instance_id)
        assert report.completeness.reproducible

    def test_validation_metrics_recorded_in_gallery(self, pipeline, series):
        trained = pipeline.train_city(series, SPEC)
        names = {m.name for m in pipeline.gallery.metrics_of(trained.instance.instance_id)}
        assert {"mape", "mae", "bias", "r2"} <= names

    def test_model_created_once_per_spec(self, pipeline, series):
        pipeline.train_city(series, SPEC)
        pipeline.train_city(series, SPEC)
        models = pipeline.gallery.models()
        assert len(models) == 1
        assert len(pipeline.gallery.instances_of(SPEC.base_version_id())) == 2

    def test_compute_accounting(self, pipeline, series):
        pipeline.train_city(series, SPEC)
        assert pipeline.stats.fits == 1
        assert pipeline.stats.compute_units > 0

    def test_train_hours_window(self, pipeline, series):
        trained = pipeline.train_city(series, SPEC, train_hours=300)
        assert "hours-0-300" in trained.instance.metadata["training_data_version"]


class TestTrainFleet:
    def test_all_city_spec_combinations(self, pipeline):
        fleet = [
            generate_city_demand(CityProfile(name=f"c{i}", base_demand=100), 24 * 7 * 3, seed=i)
            for i in range(3)
        ]
        second_spec = ModelSpecification(
            name="ridge2",
            factory=lambda: RidgeRegression(l2=10.0),
            feature_spec=SPEC.feature_spec,
        )
        trained = pipeline.train_fleet(fleet, [SPEC, second_spec])
        assert len(trained) == 6
        assert ("c1", "ridge") in trained


class TestRetrainingMonitor:
    def make_monitor(self, pipeline):
        return RetrainingMonitor(
            pipeline=pipeline,
            detector_factory=lambda: DriftDetector(
                baseline_window=4, recent_window=2, ratio_threshold=1.5, patience=2
            ),
        )

    def test_stable_city_never_flags(self, pipeline):
        monitor = self.make_monitor(pipeline)
        for _ in range(30):
            assert not monitor.observe("sf", 0.10)

    def test_drifted_city_flags_and_retrains(self, pipeline, series):
        monitor = self.make_monitor(pipeline)
        detected = False
        for error in [0.1] * 6 + [0.3] * 4:
            detected = monitor.observe("sf", error)
        assert detected
        monitor.retrain(series, SPEC)
        assert monitor.retrained_cities == ["sf"]
        # detector reset: stable readings do not re-flag
        assert not monitor.observe("sf", 0.1)

    def test_per_city_isolation(self, pipeline):
        monitor = self.make_monitor(pipeline)
        for error in [0.1] * 6 + [0.5] * 4:
            monitor.observe("drifting", error)
        for _ in range(10):
            assert not monitor.observe("stable", 0.1)


class TestMultiQuantity:
    """Section 2: Gallery shards per city AND per quantity (supply/demand)."""

    def test_quantities_get_separate_models(self, pipeline, series):
        demand = pipeline.train_city(series, SPEC, quantity="demand")
        supply = pipeline.train_city(series, SPEC, quantity="supply")
        assert demand.instance.base_version_id == "demand_ridge"
        assert supply.instance.base_version_id == "supply_ridge"
        assert demand.instance.model_id != supply.instance.model_id
        assert len(pipeline.gallery.models()) == 2

    def test_quantity_recorded_in_domain_metadata(self, pipeline, series):
        supply = pipeline.train_city(series, SPEC, quantity="supply")
        assert supply.instance.metadata["model_domain"] == "supply"

    def test_search_separates_quantities(self, pipeline, series):
        pipeline.train_city(series, SPEC, quantity="demand")
        pipeline.train_city(series, SPEC, quantity="supply")
        hits = pipeline.gallery.model_query(
            [{"field": "modelDomain", "operator": "equal", "value": "supply"}]
        )
        assert len(hits) == 1
        assert hits[0].base_version_id == "supply_ridge"
