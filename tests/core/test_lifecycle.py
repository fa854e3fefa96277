"""Tests for the lifecycle state machine (Figure 1)."""

import pytest

from repro.core.lifecycle import LifecycleStage, can_transition
from repro.errors import LifecycleError


class TestTransitionTable:
    def test_happy_path_through_figure1(self):
        path = [
            LifecycleStage.EXPLORATION,
            LifecycleStage.TRAINING,
            LifecycleStage.EVALUATION,
            LifecycleStage.DEPLOYED,
            LifecycleStage.MONITORING,
            LifecycleStage.RETRAINING,
            LifecycleStage.EVALUATION,
        ]
        for current, target in zip(path, path[1:]):
            assert can_transition(current, target), f"{current} -> {target}"

    def test_evaluation_can_loop_back_to_training(self):
        assert can_transition(LifecycleStage.EVALUATION, LifecycleStage.TRAINING)

    def test_every_stage_can_deprecate(self):
        for stage in LifecycleStage:
            if stage is LifecycleStage.DEPRECATED:
                continue
            assert can_transition(stage, LifecycleStage.DEPRECATED)

    def test_deprecated_is_terminal(self):
        for stage in LifecycleStage:
            assert not can_transition(LifecycleStage.DEPRECATED, stage)

    def test_no_skipping_evaluation(self):
        assert not can_transition(LifecycleStage.TRAINING, LifecycleStage.DEPLOYED)

    def test_parse(self):
        assert LifecycleStage.parse("deployed") is LifecycleStage.DEPLOYED
        assert LifecycleStage.parse(LifecycleStage.TRAINING) is LifecycleStage.TRAINING
        with pytest.raises(LifecycleError):
            LifecycleStage.parse("shipping")

