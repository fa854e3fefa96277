"""Integration: rolling backtests with real models feeding Gallery gates."""

import numpy as np
import pytest

from repro.forecasting import FeatureSpec, build_dataset, rolling_backtest
from repro.forecasting.models import MovingAverage, RidgeRegression
from repro.forecasting.workload import CityProfile, generate_city_demand

SPEC = FeatureSpec(lags=(1, 2, 3, 24), rolling_windows=(6,))


@pytest.fixture(scope="module")
def dataset():
    series = generate_city_demand(
        CityProfile(name="bt", base_demand=120.0), hours=24 * 7 * 5, seed=21
    )
    return build_dataset(series.values, SPEC)


def fit_predict_with(model_factory):
    def _fit_predict(train_x, train_y, test_x):
        model = model_factory()
        model.fit(train_x, train_y)
        return model.predict(test_x)

    return _fit_predict


class TestBacktestWithRealModels:
    def test_ridge_backtest_produces_gateable_metrics(self, dataset):
        result = rolling_backtest(
            fit_predict_with(lambda: RidgeRegression()),
            dataset.features,
            dataset.targets,
            n_folds=4,
        )
        # the metric blob is exactly what a deploy gate consumes
        assert result.metrics["mape"] < 0.2
        assert abs(result.metrics["bias"]) < 0.1
        assert result.metrics["r2"] > 0.5

    def test_backtest_ranks_models_consistently(self, dataset):
        ridge = rolling_backtest(
            fit_predict_with(lambda: RidgeRegression()),
            dataset.features, dataset.targets, n_folds=3,
        )
        heuristic = rolling_backtest(
            fit_predict_with(lambda: MovingAverage(window=3)),
            dataset.features, dataset.targets, n_folds=3,
        )
        assert ridge.metrics["mape"] < heuristic.metrics["mape"]

    def test_predictions_cover_the_evaluation_tail(self, dataset):
        result = rolling_backtest(
            fit_predict_with(lambda: MovingAverage(window=3)),
            dataset.features, dataset.targets, n_folds=4, min_train=200,
        )
        assert len(result.predictions) == len(dataset.targets) - 200
        assert np.all(np.isfinite(result.predictions))

    def test_backtest_gates_deployment_in_gallery(self, gallery, dataset):
        """The full gate: backtest metrics -> Gallery -> action rule."""
        from repro.core.clock import ManualClock
        from repro.forecasting.models import serialize
        from repro.rules import RuleEngine, action_rule

        result = rolling_backtest(
            fit_predict_with(lambda: RidgeRegression()),
            dataset.features, dataset.targets, n_folds=3,
        )
        engine = RuleEngine(gallery, clock=ManualClock(), bus=gallery.bus)
        engine.register(
            action_rule(
                "bt-gate", "t", "true",
                "metrics.mape < 0.2 and metrics.bias <= 0.1 and metrics.bias >= -0.1",
                ["deploy"],
            )
        )
        gallery.create_model("p", "demand")
        model = RidgeRegression().fit(dataset.features, dataset.targets)
        instance = gallery.upload_model("p", "demand", blob=serialize(model))
        gallery.insert_metrics(instance.instance_id, dict(result.metrics))
        fired = engine.drain()
        assert [f.context.action for f in fired] == ["deploy"]
