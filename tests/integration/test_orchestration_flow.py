"""Integration: rule repo -> engine -> registry orchestration loops.

Covers the two Figure 8 client paths end to end, the deploy gate of
Listing 2, drift-triggered retraining, and champion selection of Listing 1.
"""

import pytest

from repro import build_gallery
from repro.core import DriftDetector, ManualClock, SeededIdFactory
from repro.rules import RuleEngine, RuleRepository, action_rule, selection_rule


@pytest.fixture
def world():
    clock = ManualClock()
    gallery = build_gallery(clock=clock, id_factory=SeededIdFactory(21))
    engine = RuleEngine(gallery, clock=clock, bus=gallery.bus)
    repo = RuleRepository(clock=clock)
    return gallery, engine, repo


class TestDeployGate:
    """Listing 2: deploy when bias is within [-0.1, 0.1]."""

    def setup_rules(self, engine, repo):
        rule = action_rule(
            uuid="deploy-gate",
            team="forecasting",
            given='model_domain == "UberX"',
            when="metrics.bias <= 0.1 and metrics.bias >= -0.1",
            actions=["deploy"],
        )
        repo.check_in("alice", "bob", "deploy gate", [rule])
        engine.sync_from_repo(repo)

    def test_good_instance_auto_deploys(self, world):
        gallery, engine, repo = world
        self.setup_rules(engine, repo)
        gallery.create_model("p", "demand")
        instance = gallery.upload_model(
            "p", "demand", blob=b"m", metadata={"model_domain": "UberX"}
        )
        gallery.insert_metric(instance.instance_id, "bias", 0.05)
        fired = engine.drain()
        assert [f.context.action for f in fired] == ["deploy"]
        assert engine.actions.sent("deploy")[0].instance_id == instance.instance_id

    def test_bad_instance_not_deployed(self, world):
        gallery, engine, repo = world
        self.setup_rules(engine, repo)
        gallery.create_model("p", "demand")
        instance = gallery.upload_model(
            "p", "demand", blob=b"m", metadata={"model_domain": "UberX"}
        )
        gallery.insert_metric(instance.instance_id, "bias", 0.4)
        assert engine.drain() == []

    def test_other_domain_ignored(self, world):
        gallery, engine, repo = world
        self.setup_rules(engine, repo)
        gallery.create_model("p", "eats")
        instance = gallery.upload_model(
            "p", "eats", blob=b"m", metadata={"model_domain": "Eats"}
        )
        gallery.insert_metric(instance.instance_id, "bias", 0.0)
        assert engine.drain() == []

    def test_rule_update_through_review_changes_behaviour(self, world):
        gallery, engine, repo = world
        self.setup_rules(engine, repo)
        # tighten the gate to +-0.01 through the peer-review process
        tighter = action_rule(
            uuid="deploy-gate",
            team="forecasting",
            given='model_domain == "UberX"',
            when="metrics.bias <= 0.01 and metrics.bias >= -0.01",
            actions=["deploy"],
        )
        request = repo.propose(
            "alice", "tighten gate", {"forecasting/deploy-gate.json": tighter.to_json()}
        )
        repo.approve(request.request_id, reviewer="bob")
        engine.sync_from_repo(repo)
        gallery.create_model("p", "demand")
        instance = gallery.upload_model(
            "p", "demand", blob=b"m", metadata={"model_domain": "UberX"}
        )
        gallery.insert_metric(instance.instance_id, "bias", 0.05)  # passes old gate only
        assert engine.drain() == []


class TestChampionSelection:
    """Listing 1: select the freshest model within the error threshold."""

    def test_latest_qualified_instance_wins(self, world):
        gallery, engine, _ = world
        gallery.create_model("p", "demand")
        stale = gallery.upload_model(
            "p", "demand", blob=b"old", metadata={"model_name": "linear_regression"}
        )
        gallery.insert_metric(stale.instance_id, "mae", 3.0)
        fresh = gallery.upload_model(
            "p", "demand", blob=b"new", metadata={"model_name": "linear_regression"}
        )
        gallery.insert_metric(fresh.instance_id, "mae", 4.0)
        broken = gallery.upload_model(
            "p", "demand", blob=b"broken", metadata={"model_name": "linear_regression"}
        )
        gallery.insert_metric(broken.instance_id, "mae", 50.0)

        rule = selection_rule(
            uuid="freshest-good",
            team="forecasting",
            given='model_name == "linear_regression"',
            when="metrics.mae < 5",
            selection="a.created_time > b.created_time",
        )
        result = engine.select(rule)
        assert result.instance_id == fresh.instance_id
        assert result.candidates_eligible == 2

    def test_deprecated_champion_disappears(self, world):
        gallery, engine, _ = world
        gallery.create_model("p", "demand")
        only = gallery.upload_model(
            "p", "demand", blob=b"x", metadata={"model_name": "linear_regression"}
        )
        gallery.insert_metric(only.instance_id, "mae", 1.0)
        rule = selection_rule(
            uuid="sel", team="t",
            given='model_name == "linear_regression"',
            when="metrics.mae < 5",
            selection="a.created_time > b.created_time",
        )
        assert engine.select(rule).instance_id == only.instance_id
        gallery.deprecate_instance(only.instance_id)
        assert engine.select(rule).instance_id is None


class TestDriftRetrainLoop:
    """Section 3.6/3.7: drift detection triggers retraining via rules."""

    def test_drift_alert_fires_retrain_action(self, world):
        gallery, engine, _ = world
        rule = action_rule(
            uuid="drift-retrain",
            team="forecasting",
            given="true",
            when="metrics.drift_ratio > 1.5",
            actions=["retrain", "alert"],
        )
        engine.register(rule)
        gallery.create_model("p", "demand")
        instance = gallery.upload_model("p", "demand", blob=b"m")
        detector = DriftDetector(
            baseline_window=4, recent_window=2, ratio_threshold=1.5, patience=1
        )
        # healthy period, then degradation; the monitor publishes the ratio
        for error in [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.4, 0.4]:
            report = detector.observe(error)
            gallery.insert_metric(
                instance.instance_id,
                "drift_ratio",
                report.degradation_ratio,
                scope="Production",
            )
        fired = engine.drain()
        actions = sorted(f.context.action for f in fired)
        assert actions == ["alert", "retrain"]

    def test_retrained_instance_passes_gate_and_deploys(self, world):
        gallery, engine, _ = world
        engine.register(
            action_rule(
                uuid="gate", team="t", given="true",
                when="metrics.mape < 0.2", actions=["deploy"],
            )
        )
        gallery.create_model("p", "demand")
        bad = gallery.upload_model("p", "demand", blob=b"bad")
        gallery.insert_metric(bad.instance_id, "mape", 0.5)
        assert engine.drain() == []
        good = gallery.upload_model(
            "p", "demand", blob=b"good", parent_instance_id=bad.instance_id
        )
        gallery.insert_metric(good.instance_id, "mape", 0.1)
        fired = engine.drain()
        assert [f.context.instance_id for f in fired] == [good.instance_id]


class TestLifecycleAutomation:
    """Figure 1 automation: the deploy action moves the lifecycle stage."""

    def test_deploy_action_advances_lifecycle(self, world):
        from repro.core import LifecycleStage

        gallery, engine, _ = world
        # replace the default deploy action with one that advances the stage
        engine.actions.register(
            "deploy",
            lambda ctx: gallery.mark_deployed(ctx.instance_id, reason=ctx.rule_uuid),
            replace=True,
        )
        engine.register(
            action_rule(
                uuid="stage-gate", team="t", given="true",
                when="metrics.mape < 0.2", actions=["deploy"],
            )
        )
        gallery.create_model("p", "demand")
        instance = gallery.upload_model("p", "demand", blob=b"m")
        assert gallery.stage_of(instance.instance_id) is LifecycleStage.EVALUATION
        gallery.insert_metric(instance.instance_id, "mape", 0.05)
        engine.drain()
        assert gallery.stage_of(instance.instance_id) is LifecycleStage.DEPLOYED
        history = gallery.stage_history(instance.instance_id)
        assert history[-1].reason == "stage-gate"
