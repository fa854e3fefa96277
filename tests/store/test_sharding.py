"""Unit tests for the sharded metadata store and the offline rebalance
tooling (PR 6 tentpole)."""

import threading

import pytest

from repro.core.records import MetricRecord, Model, ModelInstance
from repro.errors import DuplicateError, MetadataStoreError, NotFoundError
from repro.service.server import DurableRequestDedupCache
from repro.store.blob import InMemoryBlobStore
from repro.store.dal import DataAccessLayer
from repro.store.sharding import (
    SHARD_MAP_FILENAME,
    SHARD_STRIDE,
    ShardMap,
    init_sharded_layout,
    open_sharded_store,
    split_shard,
    verify_layout,
)

SHARDS = 4


def model(i):
    return Model(
        model_id=f"m{i}",
        project="p",
        base_version_id=f"base-{i}",
        created_time=float(i),
    )


def instance(i, k, **meta):
    return ModelInstance(
        instance_id=f"i{i}-{k}",
        model_id=f"m{i}",
        base_version_id=f"base-{i}",
        created_time=float(i * 100 + k),
        metadata={"city": "sf", **meta},
        blob_location=f"mem://{i}/{k}",
    )


@pytest.fixture
def store(tmp_path):
    s = open_sharded_store(str(tmp_path / "shards"), SHARDS)
    yield s
    s.close()


def populate(store, models=8, per_model=3):
    for i in range(models):
        store.insert_model(model(i))
    store.insert_instances(
        [instance(i, k) for i in range(models) for k in range(per_model)]
    )


class TestRoutingAndSurface:
    def test_round_trips_across_shards(self, store):
        populate(store)
        assert store.counts() == {"models": 8, "instances": 24, "metrics": 0}
        # data actually spread over more than one shard file
        occupied = [c for c in store.shard_counts() if c["instances"]]
        assert len(occupied) > 1
        assert store.get_model("m3").base_version_id == "base-3"
        assert store.get_instance("i3-1").model_id == "m3"
        assert len(store.get_models([f"m{i}" for i in range(8)])) == 8
        assert [
            inst.instance_id for inst in store.instances_of_base_version("base-2")
        ] == ["i2-0", "i2-1", "i2-2"]
        assert len(store.instances_of_model("m5")) == 3
        grouped = store.instances_for_models(["m1", "m6", "ghost"])
        assert len(grouped["m1"]) == 3 and grouped["ghost"] == []
        assert len(store.find_instances_by_field("city", "sf")) == 24
        assert len(list(store.iter_models())) == 8
        assert len(list(store.iter_instances())) == 24

    def test_missing_records_raise(self, store):
        populate(store, models=2)
        with pytest.raises(NotFoundError):
            store.get_model("ghost")
        with pytest.raises(NotFoundError):
            store.get_instance("ghost")

    def test_duplicate_inserts_raise(self, store):
        populate(store, models=2)
        with pytest.raises(DuplicateError):
            store.insert_model(model(1))
        with pytest.raises(DuplicateError):
            store.insert_instance(instance(1, 0))

    def test_metrics_route_by_instance_id(self, store):
        populate(store, models=4)
        metrics = [
            MetricRecord(
                metric_id=f"metric-{i}-{k}",
                instance_id=f"i{i}-0",
                name="bias",
                value=i + k / 10,
                created_time=float(k),
            )
            for i in range(4)
            for k in range(2)
        ]
        store.insert_metrics(metrics)
        assert store.counts()["metrics"] == 8
        assert len(store.metrics_of_instance("i2-0")) == 2
        fetched = store.metrics_for_instances(
            [f"i{i}-0" for i in range(4)], name="bias"
        )
        assert all(len(rows) == 2 for rows in fetched.values())
        assert len(list(store.iter_metrics())) == 8

    def test_replace_routes_without_cache(self, tmp_path):
        # A *fresh* store (cold caches, e.g. after restart) must still
        # route replace_* correctly: the record carries its coordinate.
        first = open_sharded_store(str(tmp_path / "shards"), SHARDS)
        populate(first, models=3)
        first.close()
        second = open_sharded_store(str(tmp_path / "shards"))
        try:
            deprecated = ModelInstance.from_dict(
                {**second.get_instance("i1-1").to_dict(), "deprecated": True}
            )
            second.replace_instance(deprecated)
            assert second.get_instance("i1-1").deprecated
        finally:
            second.close()

    def test_reopen_respects_persisted_map(self, tmp_path):
        open_sharded_store(str(tmp_path / "shards"), SHARDS).close()
        with pytest.raises(MetadataStoreError):
            open_sharded_store(str(tmp_path / "shards"), SHARDS + 1)
        reopened = open_sharded_store(str(tmp_path / "shards"))
        assert reopened.num_shards == SHARDS
        reopened.close()

    def test_open_only_mode_never_creates_a_layout(self, tmp_path):
        # create=False is the contract for read-only tooling: a missing
        # layout is an error and nothing may be written to disk.
        target = tmp_path / "shards"
        with pytest.raises(MetadataStoreError):
            open_sharded_store(str(target), create=False)
        assert not target.exists()
        open_sharded_store(str(target), SHARDS).close()
        reopened = open_sharded_store(str(target), create=False)
        assert reopened.num_shards == SHARDS
        reopened.close()

    def test_closed_store_refuses_scatter(self, tmp_path):
        store = open_sharded_store(str(tmp_path / "shards"), SHARDS)
        store.close()
        # A scatter after close() must not silently resurrect the worker
        # pool (which would leak threads nobody ever shuts down).
        with pytest.raises(MetadataStoreError):
            store.shard_counts()
        assert store._executor is None  # noqa: SLF001


def scatter_threads():
    return {
        t for t in threading.enumerate() if t.name.startswith("shard-scatter")
    }


class TestReadsStayOnTheCallingThread:
    def test_only_a_multi_shard_commit_starts_the_pool(self, store):
        leaked = scatter_threads()  # other stores in this process, if any
        for i in range(8):
            store.insert_model(model(i))
            store.insert_instance(instance(i, 0))  # one shard per call
            store.insert_metric(
                MetricRecord(
                    metric_id=f"metric-{i}", instance_id=f"i{i}-0",
                    name="bias", value=0.1,
                )
            )
            store.assign_serving(f"scope-{i}", f"i{i}-0")
        store.dead_letter_append("rule-1", "act", "Err", "{}")
        store._model_shard.clear()  # noqa: SLF001 - cold routing caches:
        store._instance_shard.clear()  # noqa: SLF001 - every read fans out
        ids = [f"i{i}-0" for i in range(8)]
        reads = [
            lambda: store.get_model("m3"),
            lambda: store.get_instance("i5-0"),
            lambda: store.get_models([f"m{i}" for i in range(8)]),
            lambda: list(store.iter_models()),
            lambda: list(store.iter_instances()),
            lambda: list(store.iter_metrics()),
            lambda: store.instances_of_model("ghost"),
            lambda: store.instances_for_models(["m1", "m6"]),
            lambda: store.find_instances_by_field("city", "sf"),
            lambda: store.metrics_for_instances(ids, name="bias"),
            lambda: store.models_in_family(""),
            lambda: store.instances_in_family(""),
            lambda: store.serving_assignments(),
            lambda: store.serving_assignment_count(),
            lambda: store.counts(),
            lambda: store.shard_topology(),
            lambda: store.dedup_count(),
            lambda: store.dead_letters_list(),
            lambda: store.dead_letters_count(),
        ]
        for read in reads:
            assert read() is not None
            assert store._executor is None  # noqa: SLF001
            assert scatter_threads() == leaked
        store.insert_instances([instance(i, 1) for i in range(8)])
        assert store._executor is not None  # noqa: SLF001
        assert scatter_threads() - leaked


class TestDurableState:
    def test_completing_a_request_trims_only_its_own_shard(
        self, store, monkeypatch
    ):
        touched = []

        def spy(index, fn):
            def wrapper(*args, **kwargs):
                touched.append(index)
                return fn(*args, **kwargs)

            return wrapper

        for index, shard in enumerate(store._shards):  # noqa: SLF001
            for name in ("dedup_complete", "dedup_trim"):
                monkeypatch.setattr(shard, name, spy(index, getattr(shard, name)))
        cache = DurableRequestDedupCache(
            DataAccessLayer(store, InMemoryBlobStore()), capacity=SHARDS
        )
        owner = store.shard_map.shard_for("client-a")
        for request_id in range(1, 4):
            assert cache.claim(("client-a", request_id)) == ("owner", None)
            cache.complete(("client-a", request_id), b"resp")
        assert touched == [owner, owner] * 3  # complete + trim, one shard
        assert store._executor is None  # noqa: SLF001 - and no pool hop
        # capacity 4 over 4 shards: the owning shard keeps its slice of one
        assert len(cache) == 1

    def test_dedup_claims_stay_on_one_shard(self, store):
        assert store.supports_durable_state
        assert store.dedup_claim("client-a", 1) == ("owner", None)
        store.dedup_complete("client-a", 1, b"resp")
        assert store.dedup_claim("client-a", 1) == ("done", b"resp")
        assert store.dedup_count() == 1
        # the claim lives on exactly one shard file
        shard = store.shard_map.shard_for("client-a")
        assert store._shards[shard].dedup_count() == 1  # noqa: SLF001
        assert store.dedup_trim_age(0.0) == 1
        assert store.dedup_count() == 0

    def test_dead_letter_global_ids(self, store):
        ids = [
            store.dead_letter_append(f"rule-{i}", "act", "Err", "{}")
            for i in range(6)
        ]
        assert len(set(ids)) == 6
        # the shard is recoverable from the id itself
        for i, letter_id in enumerate(ids):
            assert letter_id % SHARD_STRIDE == store.shard_map.shard_for(
                f"rule-{i}"
            )
        assert store.dead_letters_count() == 6
        listed = store.dead_letters_list()
        assert sorted(lid for lid, _ in listed) == sorted(ids)
        only = store.dead_letters_list(rule_uuid="rule-2")
        assert [lid for lid, _ in only] == [ids[2]]
        store.dead_letter_update(ids[0], "Err2", '{"x": 1}')
        assert store.dead_letters_delete(ids[:3]) == 3
        assert store.dead_letters_count() == 3
        assert store.dead_letters_trim_age(0.0) == 3

    def test_capacity_trims_enforce_a_global_ceiling(self, store):
        # The budget is divided across shards, so the configured cap bounds
        # the *total* resident count — not num_shards * capacity.
        for i in range(20):
            store.dedup_claim(f"client-{i}", 1)
            store.dedup_complete(f"client-{i}", 1, b"r")
        for i in range(20):
            store.dead_letter_append(f"rule-{i}", "act", "Err", "{}")
        store.dedup_trim(6)
        assert store.dedup_count() <= 6
        store.dead_letters_trim(6)
        assert store.dead_letters_count() <= 6


class TestRebalanceTools:
    def test_split_moves_only_the_upper_half(self, tmp_path):
        shards_dir = str(tmp_path / "shards")
        first = open_sharded_store(shards_dir, 2)
        populate(first, models=16, per_model=2)
        before = {
            m.model_id: first.shard_map.shard_for(m.base_version_id)
            for m in first.iter_models()
        }
        first.close()

        report = split_shard(shards_dir, 0)
        assert report["new_shard"] == 2
        assert report["epoch"] == 1
        assert verify_layout(shards_dir)["ok"]

        after = open_sharded_store(shards_dir)
        try:
            assert after.num_shards == 3
            assert after.counts() == {
                "models": 16,
                "instances": 32,
                "metrics": 0,
            }
            for i in range(16):
                assert after.get_model(f"m{i}").model_id == f"m{i}"
                assert len(after.instances_of_base_version(f"base-{i}")) == 2
                owner = after.shard_map.shard_for(f"base-{i}")
                if before[f"m{i}"] == 1:
                    assert owner == 1  # untouched shard: nothing moved
                else:
                    assert owner in (0, 2)
        finally:
            after.close()

    def test_split_refuses_unknown_shard(self, tmp_path):
        shards_dir = str(tmp_path / "shards")
        open_sharded_store(shards_dir, 2).close()
        with pytest.raises(MetadataStoreError):
            split_shard(shards_dir, 7)

    def test_verify_repairs_misplaced_rows(self, tmp_path):
        shards_dir = str(tmp_path / "shards")
        store = open_sharded_store(shards_dir, 2)
        populate(store, models=4)
        # Simulate the crash window between a split's copy and its source
        # sweep: plant a row on the wrong shard directly.
        wrong = 1 - store.shard_map.shard_for("base-0")
        store._shards[wrong].insert_instance(  # noqa: SLF001
            instance(0, 99)
        )
        store.close()
        report = verify_layout(shards_dir)
        assert not report["ok"]
        assert report["misplaced"][wrong]["instances"] == 1
        repaired = verify_layout(shards_dir, repair=True)
        assert repaired["repaired"]
        assert verify_layout(shards_dir)["ok"]

    def test_init_adopts_legacy_single_file(self, tmp_path):
        from repro.store.metadata_store import SQLiteMetadataStore

        legacy = str(tmp_path / "gallery.sqlite")
        single = SQLiteMetadataStore(legacy)
        for i in range(6):
            single.insert_model(model(i))
            single.insert_instance(instance(i, 0))
        single.close()

        shards_dir = str(tmp_path / "shards")
        report = init_sharded_layout(shards_dir, 4, legacy_db=legacy)
        assert report["adopted"]["models"] == 6
        assert report["adopted"]["instances"] == 6
        assert verify_layout(shards_dir)["ok"]
        adopted = open_sharded_store(shards_dir)
        try:
            assert adopted.counts()["models"] == 6
            assert adopted.get_instance("i4-0").base_version_id == "base-4"
        finally:
            adopted.close()
        with pytest.raises(MetadataStoreError):
            init_sharded_layout(shards_dir, 4)

    def test_shard_map_file_is_authoritative(self, tmp_path):
        shards_dir = str(tmp_path / "shards")
        open_sharded_store(shards_dir, 3).close()
        assert (tmp_path / "shards" / SHARD_MAP_FILENAME).exists()
        loaded = ShardMap.load(
            str(tmp_path / "shards" / SHARD_MAP_FILENAME)
        )
        assert loaded.num_shards == 3
