"""ActionRegistry.execute failure paths + engine dead-letter workflow.

Satellite coverage for the fault-tolerant control plane: exception class
and traceback preserved in ActionResult, retry policies respected, and the
engine's dead-letter queue re-drained once a transient fault clears.
"""

import pytest

from repro.core.clock import ManualClock
from repro.reliability import DeadLetterQueue, RetryPolicy
from repro.rules.actions import ActionContext, ActionRegistry
from repro.rules.engine import CandidateDocument, RuleEngine, build_static_source
from repro.rules.rule import action_rule as build_action_rule
from repro.store.metadata_store import SQLiteMetadataStore


def make_context(action, instance="i-1"):
    return ActionContext(
        rule_uuid="r-1",
        action=action,
        params={},
        instance_id=instance,
        document={"instance_id": instance},
        timestamp=50.0,
    )


class TestExecuteFailurePaths:
    def test_exception_type_and_traceback_preserved(self):
        registry = ActionRegistry()

        def crash(context):
            raise KeyError("missing deployment target")

        registry.register("crash", crash)
        result = registry.execute(make_context("crash"))
        assert not result.ok
        assert result.error_type == "KeyError"
        assert "missing deployment target" in result.error
        assert "KeyError" in result.traceback
        assert "crash" in result.traceback  # the failing frame is visible
        assert result.attempts == 1

    def test_success_records_attempt_count(self):
        registry = ActionRegistry()
        result = registry.execute(make_context("alert"))
        assert result.ok
        assert result.attempts == 1
        assert result.error_type == ""
        assert result.traceback == ""

    def test_unknown_action_is_not_retried(self):
        registry = ActionRegistry(include_defaults=False)
        policy = RetryPolicy(max_attempts=5, sleep=lambda _s: None)
        result = registry.execute(make_context("ghost"), policy=policy)
        assert not result.ok
        assert result.error_type == "ActionError"
        assert "unknown action" in result.error

    def test_retries_respect_max_attempts(self):
        registry = ActionRegistry()
        calls = {"n": 0}

        def always_fails(context):
            calls["n"] += 1
            raise ConnectionError(f"attempt {calls['n']}")

        registry.register("flaky", always_fails)
        policy = RetryPolicy(max_attempts=3, sleep=lambda _s: None)
        result = registry.execute(make_context("flaky"), policy=policy)
        assert not result.ok
        assert calls["n"] == 3
        assert result.attempts == 3
        assert result.error == "attempt 3"  # the *last* failure is reported
        assert result.error_type == "ConnectionError"

    def test_retry_recovers_within_budget(self):
        registry = ActionRegistry()
        calls = {"n": 0}

        def succeeds_third_time(context):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionError("blip")
            return "done"

        registry.register("flaky", succeeds_third_time)
        policy = RetryPolicy(max_attempts=4, sleep=lambda _s: None)
        result = registry.execute(make_context("flaky"), policy=policy)
        assert result.ok
        assert result.attempts == 3


def deploy_rule(uuid="r-dl"):
    return build_action_rule(
        uuid=uuid,
        team="forecasting",
        given="true",
        when="true",
        actions=["deploy"],
    )


class FlakyDeploy:
    def __init__(self):
        self.healthy = False
        self.calls = 0

    def __call__(self, context):
        self.calls += 1
        if not self.healthy:
            raise ConnectionError("deploy API down")
        return f"deployed:{context.instance_id}"


@pytest.fixture
def engine_with_flaky_deploy():
    registry = ActionRegistry()
    flaky = FlakyDeploy()
    registry.register("deploy", flaky, replace=True)
    source = build_static_source(
        [CandidateDocument(instance_id="i-1", document={"instance_id": "i-1"})]
    )
    engine = RuleEngine(
        source,
        actions=registry,
        clock=ManualClock(),
        action_policy=RetryPolicy(max_attempts=2, sleep=lambda _s: None),
        dead_letters=DeadLetterQueue(SQLiteMetadataStore(":memory:")),
    )
    engine.register(deploy_rule())
    return engine, flaky


class TestEngineDeadLetters:
    def test_failed_action_is_dead_lettered_not_lost(self, engine_with_flaky_deploy):
        engine, flaky = engine_with_flaky_deploy
        engine.trigger("r-dl")
        fired = engine.drain()
        assert [r.ok for r in fired] == [False]
        assert flaky.calls == 2  # the policy retried before parking
        assert engine.stats.actions_dead_lettered == 1
        letters = engine.dead_letter_entries()
        assert len(letters) == 1
        assert letters[0].error_type == "ConnectionError"
        assert letters[0].attempts == 2

    def test_redrive_after_fault_clears(self, engine_with_flaky_deploy):
        engine, flaky = engine_with_flaky_deploy
        engine.trigger("r-dl")
        engine.drain()
        flaky.healthy = True

        results = engine.redrive_dead_letters()
        assert [r.ok for r in results] == [True]
        assert engine.dead_letter_entries() == []
        assert engine.stats.actions_redriven == 1
        # the audit trail shows the failure AND the eventual success
        outcomes = [r.ok for r in engine.action_log()]
        assert outcomes == [False, True]

    def test_at_most_once_still_holds_after_dead_letter(
        self, engine_with_flaky_deploy
    ):
        engine, flaky = engine_with_flaky_deploy
        engine.trigger("r-dl")
        engine.drain()
        flaky.healthy = True
        engine.trigger("r-dl")
        fired = engine.drain()
        # the (rule, instance) pair already fired: no duplicate execution,
        # recovery goes through the dead-letter queue instead
        assert fired == []
        engine.redrive_dead_letters()
        assert flaky.calls == 3  # 2 failed attempts + 1 successful redrive
