"""Tests for the dead-letter queue: park, query, re-drive.

The contract runs over a bare in-memory SQLite store;
``test_deadletter_durable.py`` runs it over a file-backed store and adds
what a shared file brings: restart survival and one view across replicas.
"""

import pytest

from repro.reliability import DeadLetterQueue, RetryPolicy
from repro.rules.actions import ActionContext, ActionRegistry
from repro.store.metadata_store import SQLiteMetadataStore


def make_context(action="deploy", rule="rule-1", instance="i-1", ts=100.0):
    return ActionContext(
        rule_uuid=rule,
        action=action,
        params={},
        instance_id=instance,
        document={"instance_id": instance},
        timestamp=ts,
    )


@pytest.fixture
def registry():
    return ActionRegistry(include_defaults=True)


class FlakyAction:
    """Fails until ``healthy`` is flipped — a transient dependency."""

    def __init__(self):
        self.healthy = False
        self.calls = 0

    def __call__(self, context):
        self.calls += 1
        if not self.healthy:
            raise ConnectionError("deploy endpoint unreachable")
        return f"deployed:{context.instance_id}"


class TestParkAndQuery:
    def test_only_failures_are_accepted(self, registry):
        queue = DeadLetterQueue(SQLiteMetadataStore(":memory:"))
        ok = registry.execute(make_context("alert"))
        assert ok.ok
        with pytest.raises(ValueError):
            queue.append(ok)

    def test_letters_preserve_error_type_and_traceback(self, registry):
        registry.register("explode", lambda ctx: 1 / 0)
        queue = DeadLetterQueue(SQLiteMetadataStore(":memory:"))
        result = registry.execute(make_context("explode"))
        letter = queue.append(result)
        assert letter.error_type == "ZeroDivisionError"
        assert "ZeroDivisionError" in letter.traceback
        assert letter.first_failed_at == 100.0

    def test_query_filters(self, registry):
        registry.register("explode", lambda ctx: 1 / 0)
        registry.register("fail2", lambda ctx: [][1])
        queue = DeadLetterQueue(SQLiteMetadataStore(":memory:"))
        queue.append(registry.execute(make_context("explode", rule="r-a")))
        queue.append(registry.execute(make_context("fail2", rule="r-b")))
        assert len(queue.entries()) == 2
        assert [x.context.action for x in queue.entries(rule_uuid="r-a")] == ["explode"]
        assert [x.error_type for x in queue.entries(action="fail2")] == ["IndexError"]
        assert len(queue.entries(error_type="ZeroDivisionError")) == 1

    def test_bounded_queue_evicts_oldest(self, registry):
        registry.register("explode", lambda ctx: 1 / 0)
        queue = DeadLetterQueue(SQLiteMetadataStore(":memory:"), max_entries=2)
        for n in range(3):
            queue.append(registry.execute(make_context("explode", instance=f"i-{n}")))
        assert len(queue) == 2
        assert queue.evicted == 1
        assert [x.context.instance_id for x in queue.entries()] == ["i-1", "i-2"]


class TestRedrive:
    def test_redrive_succeeds_after_transient_fault_clears(self, registry):
        flaky = FlakyAction()
        registry.register("deploy", flaky, replace=True)
        queue = DeadLetterQueue(SQLiteMetadataStore(":memory:"))
        failure = registry.execute(make_context("deploy"))
        assert not failure.ok
        queue.append(failure)

        flaky.healthy = True  # the outage ends
        results = queue.redrive(registry)
        assert [r.ok for r in results] == [True]
        assert results[0].result == "deployed:i-1"
        assert len(queue) == 0
        assert queue.redriven_ok == 1

    def test_refailed_letters_stay_with_bumped_delivery_count(self, registry):
        flaky = FlakyAction()
        registry.register("deploy", flaky, replace=True)
        queue = DeadLetterQueue(SQLiteMetadataStore(":memory:"))
        queue.append(registry.execute(make_context("deploy")))

        results = queue.redrive(registry)  # still down
        assert [r.ok for r in results] == [False]
        assert len(queue) == 1
        assert queue.entries()[0].deliveries == 2

    def test_redrive_subset_by_letter_id(self, registry):
        flaky = FlakyAction()
        registry.register("deploy", flaky, replace=True)
        queue = DeadLetterQueue(SQLiteMetadataStore(":memory:"))
        first = queue.append(registry.execute(make_context("deploy", instance="i-1")))
        queue.append(registry.execute(make_context("deploy", instance="i-2")))
        flaky.healthy = True
        queue.redrive(registry, letter_ids={first.letter_id})
        assert [x.context.instance_id for x in queue.entries()] == ["i-2"]

    def test_redrive_honours_retry_policy(self, registry):
        calls = {"n": 0}

        def intermittent(context):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionError("blip")
            return "ok"

        registry.register("deploy", intermittent, replace=True)
        queue = DeadLetterQueue(SQLiteMetadataStore(":memory:"))
        queue.append(registry.execute(make_context("deploy")))  # call 1 fails
        policy = RetryPolicy(max_attempts=3, sleep=lambda _s: None)
        results = queue.redrive(registry, policy=policy)  # calls 2 (fail) + 3 (ok)
        assert results[0].ok
        assert results[0].attempts == 2

    def test_purge(self, registry):
        registry.register("explode", lambda ctx: 1 / 0)
        queue = DeadLetterQueue(SQLiteMetadataStore(":memory:"))
        a = queue.append(registry.execute(make_context("explode")))
        queue.append(registry.execute(make_context("explode")))
        assert queue.purge({a.letter_id}) == 1
        assert queue.purge() == 1
        assert len(queue) == 0
