"""Tests for champion/challenger shadow deployments."""

import pytest

from repro.core.records import MetricScope
from repro.errors import ValidationError
from repro.monitoring import ShadowDeployment, ShadowState, register_promote_action
from repro.rules.actions import ActionRegistry


@pytest.fixture
def pair(gallery):
    gallery.create_model("p", "demand")
    champion = gallery.upload_model("p", "demand", blob=b"champ")
    challenger = gallery.upload_model("p", "demand", blob=b"chall")
    return champion.instance_id, challenger.instance_id


def make_shadow(gallery, champion, challenger, **kwargs):
    actions = ActionRegistry()
    serving = {"sf": champion}
    register_promote_action(actions, serving)
    shadow = ShadowDeployment(
        gallery, actions, champion, challenger,
        patience=kwargs.pop("patience", 2),
        max_windows=kwargs.pop("max_windows", 6),
        **kwargs,
    )
    return shadow, serving


class TestValidation:
    def test_same_instance_rejected(self, gallery, pair):
        champion, _ = pair
        with pytest.raises(ValidationError):
            ShadowDeployment(gallery, ActionRegistry(), champion, champion)

    def test_deprecated_participant_rejected(self, gallery, pair):
        champion, challenger = pair
        gallery.deprecate_instance(challenger)
        with pytest.raises(ValidationError):
            ShadowDeployment(gallery, ActionRegistry(), champion, challenger)

    def test_bad_patience_rejected(self, gallery, pair):
        champion, challenger = pair
        with pytest.raises(ValidationError):
            ShadowDeployment(
                gallery, ActionRegistry(), champion, challenger,
                patience=5, max_windows=3,
            )


class TestPromotion:
    def test_consecutive_wins_promote(self, gallery, pair):
        champion, challenger = pair
        shadow, serving = make_shadow(gallery, champion, challenger, patience=2)
        shadow.observe_window(champion_value=0.20, challenger_value=0.10)
        assert shadow.state is ShadowState.RUNNING
        result = shadow.observe_window(champion_value=0.20, challenger_value=0.12)
        assert result.state is ShadowState.PROMOTED
        assert serving["sf"] == challenger  # the promote action rewired serving

    def test_loss_resets_streak(self, gallery, pair):
        champion, challenger = pair
        shadow, serving = make_shadow(gallery, champion, challenger, patience=2)
        shadow.observe_window(0.20, 0.10)   # win
        shadow.observe_window(0.20, 0.30)   # loss resets
        shadow.observe_window(0.20, 0.10)   # win again
        assert shadow.state is ShadowState.RUNNING
        assert shadow.consecutive_wins == 1
        assert serving["sf"] == champion

    def test_margin_required_to_win(self, gallery, pair):
        champion, challenger = pair
        shadow, _ = make_shadow(
            gallery, champion, challenger, patience=1, min_margin=0.1
        )
        result = shadow.observe_window(0.20, 0.19)  # better, but inside margin
        assert not result.challenger_wins
        assert shadow.state is ShadowState.RUNNING

    def test_exhaustion_aborts(self, gallery, pair):
        champion, challenger = pair
        shadow, serving = make_shadow(
            gallery, champion, challenger, patience=3, max_windows=4
        )
        for _ in range(4):
            shadow.observe_window(0.20, 0.50)
        assert shadow.state is ShadowState.ABORTED
        assert serving["sf"] == champion

    def test_observing_after_terminal_state_rejected(self, gallery, pair):
        champion, challenger = pair
        shadow, _ = make_shadow(gallery, champion, challenger, patience=1)
        shadow.observe_window(0.20, 0.10)
        with pytest.raises(ValidationError):
            shadow.observe_window(0.20, 0.10)

    def test_higher_is_better_mode(self, gallery, pair):
        champion, challenger = pair
        shadow, serving = make_shadow(
            gallery, champion, challenger,
            patience=1, higher_is_worse=False, metric="r2",
        )
        result = shadow.observe_window(champion_value=0.80, challenger_value=0.95)
        assert result.state is ShadowState.PROMOTED


class TestMetricsRecording:
    def test_both_sides_recorded_with_scopes(self, gallery, pair):
        champion, challenger = pair
        shadow, _ = make_shadow(gallery, champion, challenger)
        shadow.observe_window(0.20, 0.10)
        champ_history = gallery.metric_history(
            champion, "mape", scope=MetricScope.PRODUCTION
        )
        chall_history = gallery.metric_history(
            challenger, "mape", scope=MetricScope.VALIDATION
        )
        assert len(champ_history) == 1 and champ_history[0].value == 0.20
        assert len(chall_history) == 1 and chall_history[0].value == 0.10
        assert chall_history[0].metadata["shadow_of"] == champion

    def test_history_accumulates(self, gallery, pair):
        champion, challenger = pair
        shadow, _ = make_shadow(gallery, champion, challenger, patience=3)
        for _ in range(3):
            shadow.observe_window(0.20, 0.30)
        assert shadow.windows_observed == 3
        assert len(shadow.history) == 3
