"""Tests for the simulation platform: coupled vs decoupled (Case 2)."""

import numpy as np
import pytest

from repro.forecasting.features import FeatureSpec
from repro.forecasting.models import RidgeRegression
from repro.forecasting.workload import CityProfile, generate_city_demand
from repro.simulation.marketplace import MarketplaceConfig
from repro.simulation.platform import run_coupled, run_decoupled, train_offline_model

SPEC = FeatureSpec(lags=(1, 2, 3, 24), rolling_windows=(6,), calendar=True)
HOURS = 24 * 7


@pytest.fixture(scope="module")
def curves():
    profile = CityProfile(name="sim-city", base_demand=60)
    historical = generate_city_demand(profile, hours=24 * 7 * 4, seed=11).values
    live = generate_city_demand(profile, hours=HOURS, seed=12).values
    return historical, live


class TestCoupledMode:
    def test_trains_in_loop_and_accounts_resources(self, curves):
        _, live = curves
        run = run_coupled(
            live,
            MarketplaceConfig(n_drivers=30),
            lambda: RidgeRegression(),
            SPEC,
            hours=HOURS,
            seed=1,
            retrain_every_hours=24,
            expansion_rows=50,
        )
        assert run.mode == "coupled"
        assert run.resources.fits >= 3
        assert run.resources.training_cpu_s > 0
        assert run.resources.peak_buffer_bytes > 100_000
        assert run.marketplace.trips_completed > 0

    def test_no_training_before_enough_history(self, curves):
        _, live = curves
        run = run_coupled(
            live[:30],
            MarketplaceConfig(n_drivers=30),
            lambda: RidgeRegression(),
            SPEC,
            hours=30,
            seed=1,
            retrain_every_hours=6,
        )
        assert run.resources.fits == 0  # under min_history: falls back to heuristic


class TestOfflineTraining:
    def test_registers_instance_with_metrics(self, gallery, curves):
        historical, _ = curves
        instance_id = train_offline_model(
            gallery, historical, lambda: RidgeRegression(), SPEC
        )
        instance = gallery.get_instance(instance_id)
        assert instance.metadata["team"] == "simulation"
        names = {m.name for m in gallery.metrics_of(instance_id)}
        assert "mape" in names

    def test_repeat_training_reuses_model(self, gallery, curves):
        historical, _ = curves
        first = train_offline_model(gallery, historical, lambda: RidgeRegression(), SPEC)
        second = train_offline_model(gallery, historical, lambda: RidgeRegression(), SPEC)
        assert first != second
        assert len(gallery.models()) == 1  # one model, two instances


class TestDecoupledMode:
    def test_fetches_from_gallery_and_runs(self, gallery, curves):
        historical, live = curves
        instance_id = train_offline_model(
            gallery, historical, lambda: RidgeRegression(), SPEC
        )
        run = run_decoupled(
            gallery,
            instance_id,
            live,
            MarketplaceConfig(n_drivers=30),
            SPEC,
            hours=HOURS,
            seed=1,
        )
        assert run.mode == "decoupled"
        assert run.resources.blob_fetches == 1
        assert run.resources.fits == 0
        assert run.resources.training_cpu_s == 0.0
        assert run.marketplace.trips_completed > 0

    def test_decoupling_saves_resources(self, gallery, curves):
        """The paper's Case 2 shape: less memory, less in-run CPU."""
        historical, live = curves
        config = MarketplaceConfig(n_drivers=30)
        coupled = run_coupled(
            live, config, lambda: RidgeRegression(), SPEC,
            hours=HOURS, seed=1, retrain_every_hours=24, expansion_rows=50,
        )
        instance_id = train_offline_model(
            gallery, historical, lambda: RidgeRegression(), SPEC
        )
        decoupled = run_decoupled(
            gallery, instance_id, live, config, SPEC, hours=HOURS, seed=1
        )
        assert decoupled.resources.peak_buffer_bytes < coupled.resources.peak_buffer_bytes / 100
        assert decoupled.resources.training_cpu_s < coupled.resources.training_cpu_s
        # same marketplace dynamics: identical seeds, comparable outcomes
        ratio = decoupled.marketplace.trips_completed / coupled.marketplace.trips_completed
        assert 0.9 < ratio < 1.1
