"""End-to-end integration: the full Listings 3-5 workflow over real
storage backends, plus the figures, through the public API only."""

import numpy as np
import pytest

from repro import build_gallery
from repro.core import ManualClock, SeededIdFactory
from repro.forecasting.features import FeatureSpec, build_dataset
from repro.forecasting.models import RandomForest, deserialize, serialize
from repro.forecasting.workload import CityProfile, generate_city_demand


@pytest.fixture(params=["memory", "durable"])
def full_gallery(request, tmp_path):
    if request.param == "memory":
        return build_gallery(clock=ManualClock(), id_factory=SeededIdFactory(11))
    return build_gallery(
        metadata_backend="sqlite",
        blob_backend="fs",
        data_dir=tmp_path,
        clock=ManualClock(),
        id_factory=SeededIdFactory(11),
    )


class TestQuickstartFlow:
    def test_train_upload_query_fetch_serve(self, full_gallery):
        """The complete paper workflow with a real trained model."""
        gallery = full_gallery
        series = generate_city_demand(
            CityProfile(name="New York City", base_demand=120), 24 * 7 * 4, seed=1
        )
        spec = FeatureSpec(lags=(1, 2, 3, 24), rolling_windows=(6,))
        dataset = build_dataset(series.values, spec)
        train, validation = dataset.split(0.8)
        model = RandomForest(n_trees=5, max_depth=4, seed=1).fit(
            train.features, train.targets
        )

        # Listing 3: create + upload
        gallery.create_model("example-project", "supply_rejection", owner="chong")
        instance = gallery.upload_model(
            "example-project",
            "supply_rejection",
            blob=serialize(model),
            metadata={
                "model_name": "Random Forest",
                "city": "New York City",
                "model_type": "repro-forecasting",
                "features": list(spec.feature_names()),
                "hyperparameters": model.hyperparameters(),
            },
        )

        # Listing 4: metrics
        from repro.forecasting.evaluation import evaluate_forecast

        metrics = evaluate_forecast(
            validation.targets, model.predict(validation.features)
        )
        gallery.insert_metrics(instance.instance_id, metrics, scope="Validation")

        # Listing 5: search
        hits = gallery.model_query(
            [
                {"field": "projectName", "operator": "equal", "value": "example-project"},
                {"field": "modelName", "operator": "equal", "value": "Random Forest"},
                {"field": "metricName", "operator": "equal", "value": "bias"},
                {"field": "metricValue", "operator": "smaller_than", "value": 0.25},
            ]
        )
        assert [h.instance_id for h in hits] == [instance.instance_id]

        # serving: fetch blob, rebuild, predict identically
        restored = deserialize(gallery.load_instance_blob(instance.instance_id))
        assert np.allclose(
            restored.predict(validation.features), model.predict(validation.features)
        )

    def test_retrain_lineage_and_deprecation_cycle(self, full_gallery):
        gallery = full_gallery
        gallery.create_model("p", "demand", owner="team")
        v1 = gallery.upload_model("p", "demand", blob=b"v1")
        v2 = gallery.upload_model(
            "p", "demand", blob=b"v2", parent_instance_id=v1.instance_id
        )
        gallery.deprecate_instance(v1.instance_id)
        assert gallery.latest_instance("demand").instance_id == v2.instance_id
        assert gallery.ancestors(v2.instance_id) == [v1.instance_id]
        # deprecated v1 is still fetchable for consumers mid-migration
        assert gallery.load_instance_blob(v1.instance_id) == b"v1"

    def test_storage_audit_clean_after_workflow(self, full_gallery):
        gallery = full_gallery
        gallery.create_model("p", "demand")
        for version in range(5):
            gallery.upload_model("p", "demand", blob=f"v{version}".encode())
        report = gallery.dal.audit_consistency()
        assert report.consistent
        assert report.orphan_blobs == ()
