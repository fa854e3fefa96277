"""Tests for the durable control-plane state in the metadata store:
the ``dedup_entries`` claim table and the ``dead_letters`` table.

Two properties matter and both are exercised across *separate store
instances over the same SQLite file*, because that is exactly the
multi-replica deployment: every serving replica opens its own store, and
correctness of the claim protocol rests on SQLite's cross-connection
write serialization, not on any in-process lock.
"""

import time

import pytest

from repro.errors import MetadataStoreError
from repro.store.blob import FilesystemBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "gallery.db")


@pytest.fixture
def store(db_path):
    store = SQLiteMetadataStore(db_path)
    yield store
    store.close()


class TestDedupClaims:
    def test_first_claim_owns(self, store):
        assert store.dedup_claim("c1", 1) == ("owner", None)

    def test_claim_while_in_flight_is_pending(self, store):
        store.dedup_claim("c1", 1)
        assert store.dedup_claim("c1", 1) == ("pending", None)

    def test_completed_claim_replays_the_response(self, store):
        store.dedup_claim("c1", 1)
        store.dedup_complete("c1", 1, b"stored-response")
        status, response = store.dedup_claim("c1", 1)
        assert status == "done"
        assert response == b"stored-response"

    def test_release_reopens_the_slot(self, store):
        store.dedup_claim("c1", 1)
        store.dedup_release("c1", 1)
        assert store.dedup_claim("c1", 1) == ("owner", None)

    def test_distinct_clients_and_requests_do_not_collide(self, store):
        assert store.dedup_claim("c1", 1) == ("owner", None)
        assert store.dedup_claim("c2", 1) == ("owner", None)
        assert store.dedup_claim("c1", 2) == ("owner", None)

    def test_stale_pending_claim_is_taken_over(self, store):
        store.dedup_claim("c1", 1)
        # the owning worker died; with a zero takeover window the retry
        # adopts the orphaned claim instead of waiting forever
        assert store.dedup_claim("c1", 1, takeover_after=0.0) == ("owner", None)

    def test_fresh_pending_claim_is_not_taken_over(self, store):
        store.dedup_claim("c1", 1)
        assert store.dedup_claim("c1", 1, takeover_after=300.0) == (
            "pending", None,
        )

    def test_claims_are_shared_across_store_instances(self, db_path, store):
        store.dedup_claim("c1", 7)
        store.dedup_complete("c1", 7, b"replica-1-response")
        other = SQLiteMetadataStore(db_path)
        try:
            # a different replica over the same file replays, not re-executes
            assert other.dedup_claim("c1", 7) == ("done", b"replica-1-response")
            assert other.dedup_claim("c1", 8) == ("owner", None)
            assert store.dedup_claim("c1", 8) == ("pending", None)
        finally:
            other.close()

    def test_claims_survive_reopen(self, db_path):
        first = SQLiteMetadataStore(db_path)
        first.dedup_claim("c1", 1)
        first.dedup_complete("c1", 1, b"answer")
        first.close()
        reopened = SQLiteMetadataStore(db_path)
        try:
            assert reopened.dedup_claim("c1", 1) == ("done", b"answer")
        finally:
            reopened.close()

    def test_trim_drops_oldest_done_entries(self, store):
        for request_id in range(1, 6):
            store.dedup_claim("c1", request_id)
            store.dedup_complete("c1", request_id, b"r%d" % request_id)
            time.sleep(0.002)  # strictly increasing `updated` timestamps
        assert store.dedup_count() == 5
        assert store.dedup_trim(2) == 3
        assert store.dedup_count() == 2
        # the newest entries survived; the trimmed ones claim as fresh
        assert store.dedup_claim("c1", 5) == ("done", b"r5")
        assert store.dedup_claim("c1", 1) == ("owner", None)

    def test_trim_never_drops_pending_claims(self, store):
        store.dedup_claim("c1", 1)  # in flight
        store.dedup_claim("c1", 2)
        store.dedup_complete("c1", 2, b"done")
        assert store.dedup_trim(0) == 1
        assert store.dedup_claim("c1", 1) == ("pending", None)

    def test_completion_trims_in_claim_order_but_spares_itself(self, store):
        store.dedup_claim("c1", 1)  # stays in flight past the window
        for request_id in range(2, 6):
            store.dedup_claim("c1", request_id)
            store.dedup_complete("c1", request_id, b"r%d" % request_id, capacity=2)
        # claims 2 and 3 fell more than two claims behind the newest (5)
        assert store.dedup_count() == 2
        store.dedup_complete("c1", 1, b"late", capacity=2)
        # the late completion is older than the window, yet a retry of it
        # must still replay rather than execute twice
        assert store.dedup_claim("c1", 1) == ("done", b"late")
        assert store.dedup_trim(2) == 1  # the next trim takes it

    def test_closed_store_raises_typed_error(self, db_path):
        store = SQLiteMetadataStore(db_path)
        store.close()
        with pytest.raises(MetadataStoreError):
            store.dedup_claim("c1", 1)


class TestDeadLetterTable:
    def test_append_assigns_monotone_ids(self, store):
        first = store.dead_letter_append("r1", "deploy", "OSError", "{}")
        second = store.dead_letter_append("r1", "alert", "ValueError", "{}")
        assert second > first

    def test_list_filters(self, store):
        store.dead_letter_append("r1", "deploy", "OSError", '{"n": 1}')
        store.dead_letter_append("r2", "alert", "ValueError", '{"n": 2}')
        store.dead_letter_append("r1", "alert", "OSError", '{"n": 3}')
        assert len(store.dead_letters_list()) == 3
        assert [r for _, r in store.dead_letters_list(rule_uuid="r2")] == [
            '{"n": 2}'
        ]
        assert len(store.dead_letters_list(action="alert")) == 2
        assert len(store.dead_letters_list(error_type="OSError")) == 2
        assert store.dead_letters_list(rule_uuid="r1", action="deploy") == [
            (1, '{"n": 1}')
        ]

    def test_update_rewrites_record_and_error_type(self, store):
        letter_id = store.dead_letter_append("r1", "deploy", "OSError", "{}")
        store.dead_letter_update(letter_id, "TimeoutError", '{"retried": true}')
        rows = store.dead_letters_list(error_type="TimeoutError")
        assert rows == [(letter_id, '{"retried": true}')]
        assert store.dead_letters_list(error_type="OSError") == []

    def test_delete_by_id(self, store):
        ids = [
            store.dead_letter_append("r1", "deploy", "OSError", "{}")
            for _ in range(3)
        ]
        assert store.dead_letters_delete(ids[:2]) == 2
        assert store.dead_letters_delete([]) == 0
        assert store.dead_letters_count() == 1
        assert [i for i, _ in store.dead_letters_list()] == [ids[2]]

    def test_trim_evicts_oldest(self, store):
        for n in range(4):
            store.dead_letter_append("r1", "deploy", "OSError", '{"n": %d}' % n)
        assert store.dead_letters_trim(2) == 2
        assert [r for _, r in store.dead_letters_list()] == [
            '{"n": 2}', '{"n": 3}',
        ]
        assert store.dead_letters_trim(2) == 0

    def test_letters_survive_reopen_with_stable_ids(self, db_path):
        first = SQLiteMetadataStore(db_path)
        letter_id = first.dead_letter_append("r1", "deploy", "OSError", '{"x": 1}')
        first.close()
        reopened = SQLiteMetadataStore(db_path)
        try:
            assert reopened.dead_letters_list() == [(letter_id, '{"x": 1}')]
            # AUTOINCREMENT: ids never recycle even after deletes + reopen
            reopened.dead_letters_delete([letter_id])
            fresh = reopened.dead_letter_append("r1", "deploy", "OSError", "{}")
            assert fresh > letter_id
        finally:
            reopened.close()


class TestDalPassthrough:
    def test_dedup_and_dead_letters_via_dal(self, store, tmp_path):
        dal = DataAccessLayer(
            store, FilesystemBlobStore(tmp_path / "blobs"), LRUBlobCache(4)
        )
        assert dal.dedup_claim("c1", 1) == ("owner", None)
        dal.dedup_complete("c1", 1, b"resp")
        assert dal.dedup_claim("c1", 1) == ("done", b"resp")
        assert dal.dedup_claim("c1", 2) == ("owner", None)
        dal.dedup_release("c1", 2)  # release only drops pending claims
        assert dal.dedup_count() == 1
        assert dal.dedup_claim("c1", 2) == ("owner", None)
        letter_id = dal.dead_letter_append("r1", "deploy", "OSError", "{}")
        assert dal.dead_letters_count() == 1
        assert dal.dead_letters_list() == [(letter_id, "{}")]
        dal.dead_letter_update(letter_id, "ValueError", '{"u": 1}')
        assert dal.dead_letters_trim(5) == 0
        assert dal.dead_letters_delete([letter_id]) == 1


class TestAgeBasedRetention:
    def test_dedup_age_trim_drops_only_old_done_rows(self, store):
        now = time.time()
        store.dedup_claim("c1", 1, now=now - 100)
        store.dedup_complete("c1", 1, b"old")  # updated stamped ~now
        # Backdate via a second claim-complete pair driven through the
        # public API: re-stamp by claiming with an explicit old `now`.
        store.dedup_claim("c2", 2, now=now)
        store.dedup_complete("c2", 2, b"new")
        # Nothing is old enough yet.
        assert store.dedup_trim_age(3600, now=now) == 0
        # Everything completed is older than a zero-second horizon viewed
        # from the future.
        assert store.dedup_trim_age(60, now=now + 3600) == 2
        assert store.dedup_count() == 0

    def test_dedup_age_trim_never_touches_pending(self, store):
        store.dedup_claim("c1", 1)  # pending, in flight
        store.dedup_claim("c1", 2)
        store.dedup_complete("c1", 2, b"done")
        assert store.dedup_trim_age(0, now=time.time() + 10) == 1
        assert store.dedup_claim("c1", 1) == ("pending", None)

    def test_dead_letter_age_trim(self, store):
        store.dead_letter_append("r1", "deploy", "OSError", '{"n": 0}')
        store.dead_letter_append("r1", "deploy", "OSError", '{"n": 1}')
        now = time.time()
        assert store.dead_letters_trim_age(3600, now=now) == 0
        assert store.dead_letters_trim_age(60, now=now + 3600) == 2
        assert store.dead_letters_count() == 0

    def test_pre_migration_letters_are_never_age_trimmed(self, db_path):
        import sqlite3

        # Build a database with the PR-4 era schema: no created_at column.
        conn = sqlite3.connect(db_path)
        conn.executescript(
            """
            CREATE TABLE dead_letters (
                letter_id  INTEGER PRIMARY KEY AUTOINCREMENT,
                rule_uuid  TEXT NOT NULL,
                action     TEXT NOT NULL,
                error_type TEXT NOT NULL,
                record     TEXT NOT NULL
            );
            INSERT INTO dead_letters (rule_uuid, action, error_type, record)
            VALUES ('r1', 'deploy', 'OSError', '{}');
            """
        )
        conn.commit()
        conn.close()
        store = SQLiteMetadataStore(db_path)
        try:
            # The migration added the column with a 0 default...
            assert store.dead_letters_count() == 1
            # ...and rows of unknown age survive any age horizon.
            assert store.dead_letters_trim_age(0, now=time.time() + 1e9) == 0
            assert store.dead_letters_count() == 1
            # New letters are stamped and do expire.
            store.dead_letter_append("r1", "alert", "ValueError", "{}")
            assert (
                store.dead_letters_trim_age(60, now=time.time() + 3600) == 1
            )
            assert store.dead_letters_count() == 1
        finally:
            store.close()

    def test_age_trims_via_dal(self, store, tmp_path):
        dal = DataAccessLayer(
            store, FilesystemBlobStore(tmp_path / "blobs"), LRUBlobCache(4)
        )
        dal.dedup_claim("c1", 1)
        dal.dedup_complete("c1", 1, b"resp")
        dal.dead_letter_append("r1", "deploy", "OSError", "{}")
        later = time.time() + 3600
        assert dal.dedup_trim_age(60, now=later) == 1
        assert dal.dead_letters_trim_age(60, now=later) == 1
