"""Tests for :class:`DeadLetterQueue` over a file-backed metadata store.

``test_deadletter.py`` runs the contract over a bare in-memory store.
Here the same contract (park, query, re-drive, purge, bounded) runs over
a file, with the two properties a shared file adds: letters survive a
full restart, and every queue built over the same store sees the same
letters.  The engine tests pin which queue a ``RuleEngine`` builds.
"""

import pytest

from repro.core.clock import ManualClock
from repro.core.ids import SeededIdFactory
from repro.core.registry import Gallery
from repro.reliability import DeadLetterQueue
from repro.rules.actions import ActionContext, ActionRegistry
from repro.rules.engine import CandidateDocument, RuleEngine, build_static_source
from repro.rules.rule import action_rule
from repro.store.blob import FilesystemBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
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


def build_dal(tmp_path, name="gallery.db"):
    return DataAccessLayer(
        SQLiteMetadataStore(str(tmp_path / name)),
        FilesystemBlobStore(tmp_path / "blobs"),
        LRUBlobCache(4),
    )


@pytest.fixture
def registry():
    return ActionRegistry(include_defaults=True)


@pytest.fixture
def dal(tmp_path):
    return build_dal(tmp_path)


@pytest.fixture
def queue(dal):
    return DeadLetterQueue(dal.metadata)


class FlakyAction:
    """Fails until ``healthy`` is flipped — a transient dependency."""

    def __init__(self):
        self.healthy = False

    def __call__(self, context):
        if not self.healthy:
            raise ConnectionError("deploy endpoint unreachable")
        return f"deployed:{context.instance_id}"


class TestParkAndQuery:
    def test_only_failures_are_accepted(self, registry, queue):
        ok = registry.execute(make_context("alert"))
        assert ok.ok
        with pytest.raises(ValueError):
            queue.append(ok)

    def test_letters_round_trip_through_json(self, registry, queue):
        registry.register("explode", lambda ctx: 1 / 0)
        parked = queue.append(
            registry.execute(make_context("explode", instance="i-9"))
        )
        assert parked.letter_id > 0
        (letter,) = queue.entries()
        assert letter.letter_id == parked.letter_id
        assert letter.error_type == "ZeroDivisionError"
        assert "ZeroDivisionError" in letter.traceback
        assert letter.context.instance_id == "i-9"
        assert letter.context.document == {"instance_id": "i-9"}
        assert letter.first_failed_at == 100.0
        assert letter.deliveries == 1

    def test_query_filters(self, registry, queue):
        registry.register("explode", lambda ctx: 1 / 0)
        registry.register("fail2", lambda ctx: [][1])
        queue.append(registry.execute(make_context("explode", rule="r-a")))
        queue.append(registry.execute(make_context("fail2", rule="r-b")))
        assert len(queue.entries()) == 2
        assert [x.context.action for x in queue.entries(rule_uuid="r-a")] == [
            "explode"
        ]
        assert [x.error_type for x in queue.entries(action="fail2")] == [
            "IndexError"
        ]
        assert len(queue.entries(error_type="ZeroDivisionError")) == 1

    def test_bounded_queue_evicts_oldest(self, registry, dal):
        registry.register("explode", lambda ctx: 1 / 0)
        queue = DeadLetterQueue(dal.metadata, max_entries=2)
        for n in range(3):
            queue.append(registry.execute(make_context("explode", instance=f"i-{n}")))
        assert len(queue) == 2
        assert queue.evicted == 1
        assert [x.context.instance_id for x in queue.entries()] == ["i-1", "i-2"]


class TestRedrive:
    def test_redrive_succeeds_after_transient_fault_clears(self, registry, queue):
        flaky = FlakyAction()
        registry.register("deploy", flaky, replace=True)
        failure = registry.execute(make_context("deploy"))
        assert not failure.ok
        queue.append(failure)
        flaky.healthy = True  # the outage ends
        results = queue.redrive(registry)
        assert [r.ok for r in results] == [True]
        assert results[0].result == "deployed:i-1"
        assert len(queue) == 0
        assert queue.redriven_ok == 1

    def test_refailed_letters_stay_with_bumped_delivery_count(self, registry, queue):
        flaky = FlakyAction()
        registry.register("deploy", flaky, replace=True)
        queue.append(registry.execute(make_context("deploy")))
        results = queue.redrive(registry)  # still down
        assert [r.ok for r in results] == [False]
        assert len(queue) == 1
        assert queue.entries()[0].deliveries == 2

    def test_redrive_subset_by_letter_id(self, registry, queue):
        flaky = FlakyAction()
        registry.register("deploy", flaky, replace=True)
        first = queue.append(registry.execute(make_context("deploy", instance="i-1")))
        queue.append(registry.execute(make_context("deploy", instance="i-2")))
        flaky.healthy = True
        queue.redrive(registry, letter_ids={first.letter_id})
        assert [x.context.instance_id for x in queue.entries()] == ["i-2"]

    def test_purge(self, registry, queue):
        registry.register("explode", lambda ctx: 1 / 0)
        a = queue.append(registry.execute(make_context("explode")))
        queue.append(registry.execute(make_context("explode")))
        assert queue.purge({a.letter_id}) == 1
        assert queue.purge() == 1
        assert len(queue) == 0
        assert not queue


class TestDurability:
    def test_letters_survive_a_full_restart(self, registry, tmp_path):
        registry.register("explode", lambda ctx: 1 / 0)
        dal = build_dal(tmp_path)
        queue = DeadLetterQueue(dal.metadata)
        parked = queue.append(registry.execute(make_context("explode")))
        dal.metadata.close()

        # "restart": a brand-new store + DAL + queue over the same file
        revived = DeadLetterQueue(build_dal(tmp_path).metadata)
        (letter,) = revived.entries()
        assert letter.letter_id == parked.letter_id
        assert letter.error_type == "ZeroDivisionError"

    def test_every_queue_over_one_store_sees_the_same_letters(
        self, registry, dal
    ):
        registry.register("explode", lambda ctx: 1 / 0)
        replica_a = DeadLetterQueue(dal.metadata)
        replica_b = DeadLetterQueue(dal.metadata)
        replica_a.append(registry.execute(make_context("explode")))
        assert len(replica_b) == 1
        replica_b.purge()
        assert len(replica_a) == 0


class TestEngineAutoSelection:
    def test_engine_over_durable_gallery_gets_a_durable_queue(self, tmp_path):
        dal = build_dal(tmp_path)
        gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(5))
        engine = RuleEngine(gallery)
        assert isinstance(engine.dead_letters, DeadLetterQueue)
        engine.dead_letters.append(
            engine.actions.execute(make_context("missing-action"))
        )
        # the letter is a row in the gallery's store, not process memory
        assert dal.metadata.dead_letters_count() == 1

    def test_explicit_queue_wins(self, tmp_path):
        dal = build_dal(tmp_path)
        gallery = Gallery(dal, clock=ManualClock(), id_factory=SeededIdFactory(5))
        mine = DeadLetterQueue(SQLiteMetadataStore(":memory:"))
        engine = RuleEngine(gallery, dead_letters=mine)
        assert engine.dead_letters is mine

    def test_engine_without_a_dal_parks_in_a_private_store(self, registry):
        flaky = FlakyAction()
        registry.register("deploy", flaky, replace=True)
        docs = [CandidateDocument("i-1", {"instance_id": "i-1"})]
        engine = RuleEngine(
            build_static_source(docs), actions=registry, clock=ManualClock()
        )
        engine.register(
            action_rule(
                uuid="r-dl",
                team="forecasting",
                given="true",
                when="true",
                actions=["deploy"],
            )
        )
        engine.trigger("r-dl")
        assert [r.ok for r in engine.drain()] == [False]
        (letter,) = engine.dead_letter_entries()
        assert letter.letter_id > 0
        assert letter.context.instance_id == "i-1"

        flaky.healthy = True
        assert [r.ok for r in engine.redrive_dead_letters()] == [True]
        assert engine.dead_letter_entries() == []
        assert len(engine.dead_letters) == 0
