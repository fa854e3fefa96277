"""Upgrade path: a database written before PR9 must open and serve.

Builds a pre-PR9 SQLite layout by hand — instances table without the
``family`` column, no ``serving_assignments`` table, record JSON without
``family``/``enabled`` keys — then opens it with the current code and
checks that the guarded migration brings the schema forward while every
legacy row keeps serving.

The models table later gained promoted ``project``/``base_version_id``
columns behind ``models_at``.  A file written before them — opened
directly, adopted into shards, or split offline — must answer
``models_at`` for every model it holds, NaN-bearing metadata included.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro import build_gallery
from repro.core.records import Model
from repro.errors import NotFoundError
from repro.store.blob import FilesystemBlobStore
from repro.store.metadata_store import SQLiteMetadataStore
from repro.store.sharding import (
    SHARD_MAP_FILENAME,
    ShardMap,
    init_sharded_layout,
    open_sharded_store,
    shard_file,
    split_shard,
)

#: The metadata schema exactly as PR8 shipped it: no ``family`` column on
#: instances, no ``idx_instances_family``, no ``serving_assignments``.
LEGACY_SCHEMA = """
CREATE TABLE models (
    model_id TEXT PRIMARY KEY,
    record   TEXT NOT NULL
);
CREATE TABLE instances (
    instance_id     TEXT PRIMARY KEY,
    model_id        TEXT NOT NULL,
    base_version_id TEXT NOT NULL,
    model_name      TEXT,
    model_type      TEXT,
    model_domain    TEXT,
    city            TEXT,
    team            TEXT,
    serving_environment TEXT,
    created_time    REAL NOT NULL,
    record          TEXT NOT NULL
);
CREATE INDEX idx_instances_model ON instances(model_id);
CREATE INDEX idx_instances_base ON instances(base_version_id);
CREATE TABLE metrics (
    metric_id   TEXT PRIMARY KEY,
    instance_id TEXT NOT NULL,
    name        TEXT NOT NULL,
    value       REAL NOT NULL,
    record      TEXT NOT NULL
);
CREATE TABLE dedup_entries (
    client_id  TEXT    NOT NULL,
    request_id INTEGER NOT NULL,
    status     TEXT    NOT NULL,
    response   BLOB,
    updated    REAL    NOT NULL,
    PRIMARY KEY (client_id, request_id)
);
CREATE TABLE dead_letters (
    letter_id  INTEGER PRIMARY KEY AUTOINCREMENT,
    rule_uuid  TEXT NOT NULL,
    action     TEXT NOT NULL,
    error_type TEXT NOT NULL,
    record     TEXT NOT NULL,
    created_at REAL NOT NULL DEFAULT 0
);
"""

LEGACY_BLOB = b"legacy-model-parameters"


def build_legacy_layout(data_dir) -> str:
    """Write a pre-PR9 data_dir (gallery.sqlite + blobs/); returns blob loc."""
    blobs = FilesystemBlobStore(data_dir / "blobs")
    location = blobs.put(LEGACY_BLOB, hint="i-legacy")
    model_record = {
        # Pre-PR9 Model.to_dict: no "family", no "enabled".
        "model_id": "m-legacy",
        "project": "p",
        "base_version_id": "demand",
        "owner": "chong",
        "description": "",
        "created_time": 1.0,
        "previous_model_id": None,
        "next_model_id": None,
        "upstream_model_ids": [],
        "downstream_model_ids": [],
        "metadata": {},
        "deprecated": False,
    }
    instance_record = {
        "instance_id": "i-legacy",
        "model_id": "m-legacy",
        "base_version_id": "demand",
        "blob_location": location,
        "instance_version": "1.0",
        "parent_instance_id": None,
        "created_time": 2.0,
        "metadata": {"model_name": "rf", "city": "sf", "model_domain": "demand"},
        "deprecated": False,
    }
    metric_record = {
        "metric_id": "mt-legacy",
        "instance_id": "i-legacy",
        "name": "mape",
        "value": 0.2,
        "scope": "Validation",
        "created_time": 3.0,
        "metadata": {},
    }
    conn = sqlite3.connect(data_dir / "gallery.sqlite")
    try:
        conn.executescript(LEGACY_SCHEMA)
        conn.execute(
            "INSERT INTO models VALUES (?, ?)",
            ("m-legacy", json.dumps(model_record)),
        )
        conn.execute(
            "INSERT INTO instances VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                "i-legacy",
                "m-legacy",
                "demand",
                "rf",
                None,
                "demand",
                "sf",
                None,
                None,
                2.0,
                json.dumps(instance_record),
            ),
        )
        conn.execute(
            "INSERT INTO metrics VALUES (?, ?, ?, ?, ?)",
            ("mt-legacy", "i-legacy", "mape", 0.2, json.dumps(metric_record)),
        )
        conn.commit()
    finally:
        conn.close()
    return location


class TestLegacyUpgrade:
    def test_schema_migration_adds_family_and_serving_table(self, tmp_path):
        build_legacy_layout(tmp_path)
        store = SQLiteMetadataStore(str(tmp_path / "gallery.sqlite"))
        try:
            conn = sqlite3.connect(tmp_path / "gallery.sqlite")
            columns = {row[1] for row in conn.execute("PRAGMA table_info(instances)")}
            tables = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
            indexes = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='index'"
                )
            }
            conn.close()
            assert "family" in columns
            assert "serving_assignments" in tables
            assert "idx_instances_family" in indexes
            # The legacy row keeps the column default, matching its JSON.
            assert store.get_instance("i-legacy").family == ""
        finally:
            store.close()

    def test_legacy_rows_load_servable(self, tmp_path):
        build_legacy_layout(tmp_path)
        gallery = build_gallery("sqlite", "fs", data_dir=tmp_path)
        try:
            instance = gallery.get_instance("i-legacy")
            assert instance.enabled is True
            assert instance.family == ""
            assert not instance.deprecated
            assert gallery.load_instance_blob("i-legacy") == LEGACY_BLOB
            assert gallery.latest_metric("i-legacy", "mape") == 0.2
        finally:
            gallery.dal.metadata.close()

    def test_upgraded_db_serves_assignments_and_families(self, tmp_path):
        build_legacy_layout(tmp_path)
        gallery = build_gallery("sqlite", "fs", data_dir=tmp_path)
        try:
            # Legacy instance can be pointed at a scope immediately.
            gallery.assign_serving("sf", "i-legacy", reason="upgrade cutover")
            assert gallery.serving_for("sf").instance_id == "i-legacy"

            # New-era uploads join families and switch_family re-points the
            # scope — all against the upgraded legacy file.
            fresh = gallery.upload_model(
                "p",
                "demand",
                blob=b"new-era-parameters",
                metadata={"model_name": "rf", "city": "sf"},
                family="sf:rf",
            )
            members = gallery.instances_in_family("sf:rf")
            assert [i.instance_id for i in members] == [fresh.instance_id]
            assignment = gallery.switch_family("sf", "sf:rf")
            assert assignment.instance_id == fresh.instance_id
            assert assignment.previous_instance_id == "i-legacy"
            assert assignment.switch_count == 2
        finally:
            gallery.dal.metadata.close()

    def test_reopen_after_upgrade_is_idempotent(self, tmp_path):
        build_legacy_layout(tmp_path)
        for _ in range(2):  # migration must be a no-op the second time
            store = SQLiteMetadataStore(str(tmp_path / "gallery.sqlite"))
            store.assign_serving("sf", "i-legacy", now=1.0)
            store.close()
        store = SQLiteMetadataStore(str(tmp_path / "gallery.sqlite"))
        try:
            assignment = store.serving_assignment("sf")
            assert assignment.instance_id == "i-legacy"
            assert assignment.switch_count == 1, "re-assign same instance is a no-op"
            with pytest.raises(NotFoundError):
                store.serving_assignment("nyc")
        finally:
            store.close()


def write_pre_coordinate_file(path, models) -> None:
    """A models table as it was before the coordinate columns: id + JSON.

    ``json.dumps`` is what the store itself used, so NaN metadata lands in
    the record as the bare ``NaN`` token.
    """
    conn = sqlite3.connect(path)
    try:
        conn.execute(
            "CREATE TABLE models (model_id TEXT PRIMARY KEY, record TEXT NOT NULL)"
        )
        conn.executemany(
            "INSERT INTO models VALUES (?, ?)",
            [(m.model_id, json.dumps(m.to_dict())) for m in models],
        )
        conn.commit()
    finally:
        conn.close()


def legacy_models(count: int) -> list[Model]:
    return [
        Model(
            model_id=f"m{index}",
            project="p",
            base_version_id=f"base-{index}",
            created_time=float(index),
        )
        for index in range(count)
    ]


def null_coordinates(path) -> int:
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT COUNT(*) FROM models"
            " WHERE project IS NULL OR base_version_id IS NULL"
        ).fetchone()[0]
    finally:
        conn.close()


def model_ids_at(store, models) -> list[list[str]]:
    return [
        [m.model_id for m in store.models_at(model.project, model.base_version_id)]
        for model in models
    ]


class TestVersionColumns:
    def test_legacy_models_take_their_newest_instance_version(self, tmp_path):
        build_legacy_layout(tmp_path)
        later = {
            "instance_id": "i-later",
            "model_id": "m-legacy",
            "base_version_id": "demand",
            "instance_version": "1.4",
            "created_time": 3.0,
        }
        conn = sqlite3.connect(tmp_path / "gallery.sqlite")
        try:
            conn.execute(
                "INSERT INTO instances (instance_id, model_id, base_version_id,"
                " created_time, record) VALUES (?, ?, ?, ?, ?)",
                ("i-later", "m-legacy", "demand", 3.0, json.dumps(later)),
            )
            conn.commit()
        finally:
            conn.close()
        for _ in range(2):  # the backfill is a no-op the second time
            store = SQLiteMetadataStore(str(tmp_path / "gallery.sqlite"))
            try:
                assert str(store.latest_version("m-legacy")) == "1.4"
            finally:
                store.close()
        gallery = build_gallery("sqlite", "fs", data_dir=tmp_path)
        try:
            fresh = gallery.upload_model("p", "demand", blob=b"new-era")
            assert fresh.instance_version == "1.5"
        finally:
            gallery.dal.metadata.close()

    def test_legacy_models_without_instances_start_at_one(self, tmp_path):
        path = tmp_path / "gallery.sqlite"
        models = legacy_models(3)
        write_pre_coordinate_file(path, models)
        store = SQLiteMetadataStore(str(path))
        try:
            assert [str(store.latest_version(m.model_id)) for m in models] == [
                "1.0"
            ] * 3
        finally:
            store.close()
        conn = sqlite3.connect(path)
        try:
            bare = conn.execute(
                "SELECT COUNT(*) FROM models WHERE version_major IS NULL"
                " OR version_minor IS NULL"
            ).fetchone()[0]
        finally:
            conn.close()
        assert bare == 0


class TestCoordinateColumns:
    def test_pre_change_file_answers_models_at(self, tmp_path):
        path = tmp_path / "gallery.sqlite"
        models = legacy_models(5)
        write_pre_coordinate_file(path, models)
        store = SQLiteMetadataStore(str(path))
        try:
            assert model_ids_at(store, models) == [[m.model_id] for m in models]
            assert store.models_at("p", "base-missing") == []
            assert store.models_at("other", "base-0") == []
        finally:
            store.close()
        assert null_coordinates(path) == 0
        conn = sqlite3.connect(path)
        indexes = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='index'"
            )
        }
        conn.close()
        assert "idx_models_coordinate" in indexes

    def test_pre_family_layout_upgrades_and_serves_by_coordinate(self, tmp_path):
        build_legacy_layout(tmp_path)
        for _ in range(2):  # the backfill is a no-op the second time
            store = SQLiteMetadataStore(str(tmp_path / "gallery.sqlite"))
            try:
                assert [m.model_id for m in store.models_at("p", "demand")] == [
                    "m-legacy"
                ]
            finally:
                store.close()

    def test_nan_metadata_is_backfilled(self, tmp_path):
        path = tmp_path / "gallery.sqlite"
        model = Model(
            model_id="m-nan",
            project="p",
            base_version_id="demand",
            metadata={"threshold": float("nan")},
        )
        write_pre_coordinate_file(path, [model])
        store = SQLiteMetadataStore(str(path))
        try:
            (found,) = store.models_at("p", "demand")
            assert found.model_id == "m-nan"
            assert found.metadata["threshold"] != found.metadata["threshold"]
        finally:
            store.close()

    def test_adopted_legacy_file_answers_models_at(self, tmp_path):
        build_legacy_layout(tmp_path)
        directory = tmp_path / "shards"
        report = init_sharded_layout(
            str(directory), 4, legacy_db=str(tmp_path / "gallery.sqlite")
        )
        assert report["adopted"]["models"] == 1
        for index in range(4):
            assert null_coordinates(shard_file(str(directory), index)) == 0
        store = open_sharded_store(str(directory))
        try:
            assert [m.model_id for m in store.models_at("p", "demand")] == [
                "m-legacy"
            ]
        finally:
            store.close()

    def test_split_of_a_pre_change_shard_answers_models_at(self, tmp_path):
        directory = str(tmp_path / "shards")
        tmp_path.joinpath("shards").mkdir()
        ShardMap.uniform(1).save(str(tmp_path / "shards" / SHARD_MAP_FILENAME))
        models = legacy_models(12)
        write_pre_coordinate_file(shard_file(directory, 0), models)
        report = split_shard(directory, 0)
        assert 0 < report["moved"]["models"] < len(models)
        for index in range(2):
            assert null_coordinates(shard_file(directory, index)) == 0
        store = open_sharded_store(directory)
        try:
            assert model_ids_at(store, models) == [[m.model_id] for m in models]
        finally:
            store.close()


#: Indexes a file written before they were dropped still carries: two on
#: metrics that no statement reads, one on dedup status.
UNUSED_INDEXES = {
    "idx_metrics_instance": "metrics(instance_id)",
    "idx_metrics_name": "metrics(name)",
    "idx_dedup_updated": "dedup_entries(status, updated)",
}


class TestUnusedIndexes:
    def test_opening_an_older_file_drops_the_unused_indexes(self, tmp_path):
        path = tmp_path / "gallery.sqlite"
        SQLiteMetadataStore(str(path)).close()
        conn = sqlite3.connect(path)
        try:
            for name, target in UNUSED_INDEXES.items():
                conn.execute(f"CREATE INDEX {name} ON {target}")
            conn.commit()
        finally:
            conn.close()
        SQLiteMetadataStore(str(path)).close()
        conn = sqlite3.connect(path)
        try:
            indexes = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='index'"
                )
            }
        finally:
            conn.close()
        assert indexes.isdisjoint(UNUSED_INDEXES)
        assert "idx_metrics_instance_name" in indexes
