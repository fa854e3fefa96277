"""Relational metadata storage (Section 3.5).

The paper stores model metadata and metrics in MySQL "to guarantee high
availability and [support] flexible queries".  This module provides the same
query surface behind a backend-neutral interface:

* :class:`InMemoryMetadataStore` — dict-backed; the default for tests.
* :class:`SQLiteMetadataStore` — a real relational backend (stdlib
  ``sqlite3``) with indexed columns for the standard search fields, standing
  in for the Uber-managed MySQL service.

Both enforce **insert-only** semantics for models, instances, and metrics —
records are immutable (Section 3.1).  The only sanctioned in-place change is
:meth:`MetadataStore.replace_model` / :meth:`replace_instance`, which the
registry uses exclusively for bookkeeping fields that the paper itself
mutates: evolution pointers, dependency pointers, and the deprecation flag.

Concurrency model (see ``docs/PERFORMANCE.md``):

* File-backed SQLite runs in WAL mode with **one connection per thread**, so
  readers proceed in parallel and never block behind each other or behind
  the single serialized writer.
* ``:memory:`` databases are private to one connection in SQLite, so that
  configuration keeps the original shared-connection + lock arrangement.
* Writers — including the read-modify-write ``replace_*`` immutability
  checks — always serialize on one store-wide lock, which both preserves
  the insert-only invariants and avoids SQLITE_BUSY storms.

Batch surfaces (``get_models`` / ``instances_for_models`` /
``metrics_for_instances`` / ``insert_metrics``) let the registry resolve a
whole candidate set in O(1) queries instead of one query per record.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.metadata import INDEXED_FIELDS
from repro.core.records import MetricRecord, Model, ModelInstance, ServingAssignment
from repro.errors import DuplicateError, MetadataStoreError, NotFoundError

#: Fields allowed to change via replace_* (everything else must match).
#: ``enabled`` is the PR9 review gate: flipping it is sanctioned bookkeeping
#: (like deprecation), while ``family`` stays immutable — a record's grouping
#: is part of its identity.
_MUTABLE_MODEL_FIELDS = {
    "next_model_id",
    "upstream_model_ids",
    "downstream_model_ids",
    "deprecated",
    "enabled",
}
_MUTABLE_INSTANCE_FIELDS = {"deprecated", "enabled"}

#: Max ids per SQL ``IN (...)`` clause; SQLite's default host-parameter
#: limit is 999, so batched lookups chunk below it.
_IN_CLAUSE_CHUNK = 500


def _chunked(ids: Sequence[Any], size: int = _IN_CLAUSE_CHUNK) -> Iterator[Sequence[Any]]:
    for start in range(0, len(ids), size):
        yield ids[start : start + size]


def _unique(ids: Iterable[str]) -> list[str]:
    """Preserve order, drop duplicates (dict insertion-order trick)."""
    return list(dict.fromkeys(ids))


def _assert_only_mutable_changed(
    old: dict[str, Any], new: dict[str, Any], mutable: set[str], kind: str
) -> None:
    for key, old_value in old.items():
        if key in mutable:
            continue
        if new.get(key) != old_value:
            raise MetadataStoreError(
                f"{kind} field {key!r} is immutable "
                f"(attempted {old_value!r} -> {new.get(key)!r})"
            )


class MetadataStore(ABC):
    """Abstract relational store for models, instances, and metrics."""

    #: Whether this backend can persist serving-plane control state (request
    #: dedup entries, dead letters) across a full process restart.  Only
    #: file-backed SQLite sets this; everything else keeps the in-memory forms.
    supports_durable_state: bool = False

    # -- models -------------------------------------------------------------

    @abstractmethod
    def insert_model(self, model: Model) -> None: ...

    @abstractmethod
    def get_model(self, model_id: str) -> Model: ...

    @abstractmethod
    def get_models(self, model_ids: Iterable[str]) -> dict[str, Model]:
        """Batch lookup; missing ids are simply absent from the result."""

    @abstractmethod
    def replace_model(self, model: Model) -> None:
        """Replace a model record; only bookkeeping fields may differ."""

    @abstractmethod
    def iter_models(self) -> Iterator[Model]: ...

    # -- instances ----------------------------------------------------------

    @abstractmethod
    def insert_instance(self, instance: ModelInstance) -> None: ...

    def insert_instances(self, instances: Sequence[ModelInstance]) -> None:
        """Insert a batch of instances in one transaction where the backend
        supports it; the default simply loops.  Bulk-load surface for the
        scale benchmarks and the sharded store's parallel loader."""
        for instance in instances:
            self.insert_instance(instance)

    @abstractmethod
    def get_instance(self, instance_id: str) -> ModelInstance: ...

    @abstractmethod
    def replace_instance(self, instance: ModelInstance) -> None: ...

    @abstractmethod
    def iter_instances(self) -> Iterator[ModelInstance]: ...

    @abstractmethod
    def instances_of_model(self, model_id: str) -> list[ModelInstance]: ...

    @abstractmethod
    def instances_for_models(
        self, model_ids: Iterable[str]
    ) -> dict[str, list[ModelInstance]]:
        """Batch variant of :meth:`instances_of_model`; every requested id
        maps to a (possibly empty) list ordered by creation time."""

    @abstractmethod
    def instances_of_base_version(self, base_version_id: str) -> list[ModelInstance]: ...

    @abstractmethod
    def find_instances_by_field(self, field: str, value: Any) -> list[ModelInstance]:
        """Equality lookup on an indexed standard-metadata field."""

    # -- metrics -------------------------------------------------------------

    @abstractmethod
    def insert_metric(self, metric: MetricRecord) -> None: ...

    @abstractmethod
    def insert_metrics(self, metrics: Sequence[MetricRecord]) -> None:
        """Insert a batch of metrics atomically: all rows or none."""

    @abstractmethod
    def metrics_of_instance(self, instance_id: str) -> list[MetricRecord]: ...

    @abstractmethod
    def metrics_for_instances(
        self, instance_ids: Iterable[str], name: str | None = None
    ) -> dict[str, list[MetricRecord]]:
        """Batch variant of :meth:`metrics_of_instance`; every requested id
        maps to a (possibly empty) list.

        When *name* is given, only metrics with that name are returned — a
        pushdown that lets equality constraints on ``metricName`` skip
        fetching (and parsing) every other metric row.
        """

    @abstractmethod
    def iter_metrics(self) -> Iterator[MetricRecord]: ...

    # -- families -------------------------------------------------------------

    def models_in_family(self, family: str) -> list[Model]:
        """Models grouped under *family*, ordered by creation time.

        The default scans :meth:`iter_models` — model corpora are small
        next to instances; backends with an indexed column override.
        """
        hits = [m for m in self.iter_models() if m.family == family]
        hits.sort(key=lambda m: m.created_time)
        return hits

    def instances_in_family(self, family: str) -> list[ModelInstance]:
        """Instances grouped under *family*, ordered by creation time."""
        hits = [i for i in self.iter_instances() if i.family == family]
        hits.sort(key=lambda i: i.created_time)
        return hits

    # -- serving assignments ---------------------------------------------------
    #
    # "What is serving right now" is registry state, not process state: the
    # rows are durable so every replica over a shared store observes a switch
    # without restart (the PR9 fleet-scale switching requirement).

    @abstractmethod
    def serving_assignment(self, scope: str) -> ServingAssignment:
        """The current assignment for *scope*; raises NotFoundError."""

    @abstractmethod
    def serving_assignments(self) -> list[ServingAssignment]:
        """Every scope's current assignment, ordered by scope."""

    @abstractmethod
    def assign_serving(
        self,
        scope: str,
        instance_id: str,
        *,
        family: str = "",
        now: float = 0.0,
        reason: str = "",
    ) -> ServingAssignment:
        """Atomically (re-)point *scope* at *instance_id*.

        Re-assigning the already-serving instance is a no-op that returns
        the existing row unchanged (no switch-count bump), mirroring the
        old in-memory switchboard semantics.
        """

    @abstractmethod
    def serving_assignment_count(self) -> int:
        """Number of scopes with an assignment (kept out of :meth:`counts`
        so existing exact-shape assertions stay valid)."""

    # -- misc ---------------------------------------------------------------

    @abstractmethod
    def counts(self) -> dict[str, int]:
        """Row counts per table, for scale experiments."""


class InMemoryMetadataStore(MetadataStore):
    """Dictionary-backed metadata store with hand-maintained indexes.

    Lookup results are ordered by ``(created_time, insertion order)`` to
    match the SQLite backend's ``ORDER BY created_time``, so the two
    backends return identical candidate sequences (the ABL-BACKEND parity
    requirement).
    """

    def __init__(self) -> None:
        self._models: dict[str, Model] = {}
        self._instances: dict[str, ModelInstance] = {}
        self._metrics: dict[str, MetricRecord] = {}
        self._instances_by_model: dict[str, list[str]] = {}
        self._instances_by_base: dict[str, list[str]] = {}
        self._metrics_by_instance: dict[str, list[str]] = {}
        self._field_index: dict[tuple[str, Any], list[str]] = {}
        self._serving: dict[str, ServingAssignment] = {}
        self._serving_lock = threading.Lock()

    def _ordered(self, instance_ids: list[str]) -> list[ModelInstance]:
        instances = [self._instances[i] for i in instance_ids]
        instances.sort(key=lambda inst: inst.created_time)  # stable: ties keep insert order
        return instances

    # -- models -------------------------------------------------------------

    def insert_model(self, model: Model) -> None:
        if model.model_id in self._models:
            raise DuplicateError(f"model {model.model_id!r} already exists")
        self._models[model.model_id] = model

    def get_model(self, model_id: str) -> Model:
        try:
            return self._models[model_id]
        except KeyError:
            raise NotFoundError(f"no model {model_id!r}") from None

    def get_models(self, model_ids: Iterable[str]) -> dict[str, Model]:
        return {
            model_id: self._models[model_id]
            for model_id in _unique(model_ids)
            if model_id in self._models
        }

    def replace_model(self, model: Model) -> None:
        old = self.get_model(model.model_id)
        _assert_only_mutable_changed(
            old.to_dict(), model.to_dict(), _MUTABLE_MODEL_FIELDS, "model"
        )
        self._models[model.model_id] = model

    def iter_models(self) -> Iterator[Model]:
        return iter(list(self._models.values()))

    # -- instances ----------------------------------------------------------

    def insert_instance(self, instance: ModelInstance) -> None:
        if instance.instance_id in self._instances:
            raise DuplicateError(
                f"model instance {instance.instance_id!r} already exists"
            )
        self._instances[instance.instance_id] = instance
        self._instances_by_model.setdefault(instance.model_id, []).append(
            instance.instance_id
        )
        self._instances_by_base.setdefault(instance.base_version_id, []).append(
            instance.instance_id
        )
        for field_name in INDEXED_FIELDS:
            value = instance.metadata.get(field_name)
            if value is not None:
                self._field_index.setdefault((field_name, value), []).append(
                    instance.instance_id
                )

    def insert_instances(self, instances: Sequence[ModelInstance]) -> None:
        # Validate first so a duplicate anywhere leaves the store untouched
        # (matches the SQLite backend's transactional rollback).
        seen: set[str] = set()
        for instance in instances:
            if instance.instance_id in self._instances or instance.instance_id in seen:
                raise DuplicateError(
                    f"model instance {instance.instance_id!r} already exists"
                )
            seen.add(instance.instance_id)
        for instance in instances:
            self.insert_instance(instance)

    def get_instance(self, instance_id: str) -> ModelInstance:
        try:
            return self._instances[instance_id]
        except KeyError:
            raise NotFoundError(f"no model instance {instance_id!r}") from None

    def replace_instance(self, instance: ModelInstance) -> None:
        old = self.get_instance(instance.instance_id)
        _assert_only_mutable_changed(
            old.to_dict(), instance.to_dict(), _MUTABLE_INSTANCE_FIELDS, "instance"
        )
        self._instances[instance.instance_id] = instance

    def iter_instances(self) -> Iterator[ModelInstance]:
        return iter(list(self._instances.values()))

    def instances_of_model(self, model_id: str) -> list[ModelInstance]:
        return self._ordered(self._instances_by_model.get(model_id, []))

    def instances_for_models(
        self, model_ids: Iterable[str]
    ) -> dict[str, list[ModelInstance]]:
        return {
            model_id: self.instances_of_model(model_id)
            for model_id in _unique(model_ids)
        }

    def instances_of_base_version(self, base_version_id: str) -> list[ModelInstance]:
        return self._ordered(self._instances_by_base.get(base_version_id, []))

    def find_instances_by_field(self, field: str, value: Any) -> list[ModelInstance]:
        if field in INDEXED_FIELDS:
            return self._ordered(self._field_index.get((field, value), []))
        hits = [
            inst.instance_id
            for inst in self._instances.values()
            if inst.metadata.get(field) == value
        ]
        return self._ordered(hits)

    # -- metrics --------------------------------------------------------------

    def insert_metric(self, metric: MetricRecord) -> None:
        if metric.metric_id in self._metrics:
            raise DuplicateError(f"metric {metric.metric_id!r} already exists")
        self._metrics[metric.metric_id] = metric
        self._metrics_by_instance.setdefault(metric.instance_id, []).append(
            metric.metric_id
        )

    def insert_metrics(self, metrics: Sequence[MetricRecord]) -> None:
        # Validate the whole batch before touching any index so a duplicate
        # anywhere leaves the store untouched (matches SQLite's rollback).
        seen: set[str] = set()
        for metric in metrics:
            if metric.metric_id in self._metrics or metric.metric_id in seen:
                raise DuplicateError(f"metric {metric.metric_id!r} already exists")
            seen.add(metric.metric_id)
        for metric in metrics:
            self.insert_metric(metric)

    def metrics_of_instance(self, instance_id: str) -> list[MetricRecord]:
        ids = self._metrics_by_instance.get(instance_id, [])
        return [self._metrics[i] for i in ids]

    def metrics_for_instances(
        self, instance_ids: Iterable[str], name: str | None = None
    ) -> dict[str, list[MetricRecord]]:
        out: dict[str, list[MetricRecord]] = {}
        for instance_id in _unique(instance_ids):
            records = self.metrics_of_instance(instance_id)
            if name is not None:
                records = [m for m in records if m.name == name]
            out[instance_id] = records
        return out

    def iter_metrics(self) -> Iterator[MetricRecord]:
        return iter(list(self._metrics.values()))

    # -- serving assignments ---------------------------------------------------

    def serving_assignment(self, scope: str) -> ServingAssignment:
        try:
            return self._serving[scope]
        except KeyError:
            raise NotFoundError(f"no serving assignment for scope {scope!r}") from None

    def serving_assignments(self) -> list[ServingAssignment]:
        return sorted(self._serving.values(), key=lambda a: a.scope)

    def assign_serving(
        self,
        scope: str,
        instance_id: str,
        *,
        family: str = "",
        now: float = 0.0,
        reason: str = "",
    ) -> ServingAssignment:
        with self._serving_lock:
            current = self._serving.get(scope)
            if current is not None and current.instance_id == instance_id:
                return current
            assignment = ServingAssignment(
                scope=scope,
                instance_id=instance_id,
                family=family,
                assigned_time=now,
                previous_instance_id=current.instance_id if current else None,
                reason=reason,
                switch_count=(current.switch_count + 1) if current else 1,
            )
            self._serving[scope] = assignment
            return assignment

    def serving_assignment_count(self) -> int:
        return len(self._serving)

    def counts(self) -> dict[str, int]:
        return {
            "models": len(self._models),
            "instances": len(self._instances),
            "metrics": len(self._metrics),
        }


_SCHEMA = """
CREATE TABLE IF NOT EXISTS models (
    model_id TEXT PRIMARY KEY,
    record   TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS instances (
    instance_id     TEXT PRIMARY KEY,
    model_id        TEXT NOT NULL,
    base_version_id TEXT NOT NULL,
    model_name      TEXT,
    model_type      TEXT,
    model_domain    TEXT,
    city            TEXT,
    team            TEXT,
    serving_environment TEXT,
    family          TEXT NOT NULL DEFAULT '',
    created_time    REAL NOT NULL,
    record          TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_instances_model ON instances(model_id);
CREATE INDEX IF NOT EXISTS idx_instances_base ON instances(base_version_id);
CREATE INDEX IF NOT EXISTS idx_instances_name ON instances(model_name);
CREATE INDEX IF NOT EXISTS idx_instances_city ON instances(city);
CREATE INDEX IF NOT EXISTS idx_instances_domain ON instances(model_domain);
CREATE TABLE IF NOT EXISTS metrics (
    metric_id   TEXT PRIMARY KEY,
    instance_id TEXT NOT NULL,
    name        TEXT NOT NULL,
    value       REAL NOT NULL,
    record      TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_metrics_instance ON metrics(instance_id);
CREATE INDEX IF NOT EXISTS idx_metrics_name ON metrics(name);
CREATE INDEX IF NOT EXISTS idx_metrics_instance_name ON metrics(instance_id, name);
CREATE TABLE IF NOT EXISTS dedup_entries (
    client_id  TEXT    NOT NULL,
    request_id INTEGER NOT NULL,
    status     TEXT    NOT NULL,
    response   BLOB,
    updated    REAL    NOT NULL,
    PRIMARY KEY (client_id, request_id)
);
CREATE INDEX IF NOT EXISTS idx_dedup_updated ON dedup_entries(status, updated);
CREATE TABLE IF NOT EXISTS dead_letters (
    letter_id  INTEGER PRIMARY KEY AUTOINCREMENT,
    rule_uuid  TEXT NOT NULL,
    action     TEXT NOT NULL,
    error_type TEXT NOT NULL,
    record     TEXT NOT NULL,
    created_at REAL NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS serving_assignments (
    scope         TEXT PRIMARY KEY,
    instance_id   TEXT NOT NULL,
    family        TEXT NOT NULL DEFAULT '',
    assigned_time REAL NOT NULL DEFAULT 0,
    record        TEXT NOT NULL
);
"""


class SQLiteMetadataStore(MetadataStore):
    """SQLite-backed metadata store — the MySQL stand-in.

    Records are persisted as JSON documents alongside promoted, indexed
    columns for the standard search fields, mirroring how a production
    deployment keeps a flexible document column plus hot query columns.

    File-backed databases open **one connection per thread** (WAL journal,
    ``synchronous=NORMAL``), so the threaded TCP server's readers run in
    parallel; writes always serialize on the store-wide lock.  ``:memory:``
    databases are private to a single SQLite connection, so that
    configuration — and any store built with ``serialized=True`` — keeps
    the original shared-connection + global-lock behaviour.
    """

    def __init__(self, path: str = ":memory:", serialized: bool | None = None) -> None:
        self._path = path
        is_memory = path == ":memory:" or "mode=memory" in path
        self._is_memory = is_memory
        self._serialized = is_memory if serialized is None else (serialized or is_memory)
        self._write_lock = threading.RLock()
        self._local = threading.local()
        self._all_connections: list[sqlite3.Connection] = []
        self._connections_guard = threading.Lock()
        self._closed = False
        if self._serialized:
            self._shared = self._open_connection(apply_wal=False)
        else:
            self._shared = None
        with self._write_lock:
            conn = self._connection()
            conn.executescript(_SCHEMA)
            self._migrate(conn)
            conn.commit()

    @staticmethod
    def _migrate(conn: sqlite3.Connection) -> None:
        """Bring a pre-existing database file up to the current schema.

        ``CREATE TABLE IF NOT EXISTS`` leaves old tables untouched, so
        columns added after a table first shipped need a guarded ALTER.
        Rows predating a migration keep the column default (``created_at
        = 0``), which age-based trims deliberately skip — unknown age is
        never grounds for deletion.
        """
        columns = {
            row[1]
            for row in conn.execute("PRAGMA table_info(dead_letters)")
        }
        if "created_at" not in columns:
            conn.execute(
                "ALTER TABLE dead_letters"
                " ADD COLUMN created_at REAL NOT NULL DEFAULT 0"
            )
        # PR9 families: instance tables created before the promoted ``family``
        # column gain it with the '' default — correct for every pre-family
        # row, whose record JSON also lacks the key and loads as ''.  The
        # serving_assignments table itself is covered by the IF NOT EXISTS
        # CREATE above; new assignments only ever land via this codebase.
        instance_columns = {
            row[1]
            for row in conn.execute("PRAGMA table_info(instances)")
        }
        if "family" not in instance_columns:
            conn.execute(
                "ALTER TABLE instances"
                " ADD COLUMN family TEXT NOT NULL DEFAULT ''"
            )
        # The family index lives here, not in _SCHEMA: on a legacy file the
        # schema script runs before the guarded ALTER above, so indexing the
        # column from _SCHEMA would crash the upgrade.
        conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_instances_family"
            " ON instances(family)"
        )

    # -- connection management ----------------------------------------------

    def _open_connection(self, apply_wal: bool) -> sqlite3.Connection:
        # check_same_thread=False so close() can reap connections owned by
        # exited worker threads; each connection is still used by one thread
        # (or under the global lock in serialized mode).
        conn = sqlite3.connect(self._path, check_same_thread=False, timeout=30.0)
        if apply_wal:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
        with self._connections_guard:
            self._all_connections.append(conn)
        return conn

    def _connection(self) -> sqlite3.Connection:
        if self._closed:
            raise MetadataStoreError("metadata store is closed")
        if self._serialized:
            return self._shared  # type: ignore[return-value]
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._open_connection(apply_wal=True)
            self._local.conn = conn
        return conn

    def connection_info(self) -> dict[str, Any]:
        """Operational introspection for tests and the perf harness."""
        conn = self._connection()
        journal_mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        with self._connections_guard:
            open_connections = len(self._all_connections)
        return {
            "path": self._path,
            "serialized": self._serialized,
            "journal_mode": str(journal_mode),
            "open_connections": open_connections,
        }

    def close(self) -> None:
        with self._write_lock:
            self._closed = True
            with self._connections_guard:
                connections, self._all_connections = self._all_connections, []
            for conn in connections:
                try:
                    conn.close()
                except sqlite3.Error:  # pragma: no cover - best-effort reap
                    pass

    # -- statement helpers ----------------------------------------------------

    def _read(self, sql: str, params: tuple[Any, ...] = ()) -> list[tuple]:
        """Run a SELECT; lock-free on per-thread WAL connections."""
        if self._serialized:
            with self._write_lock:
                return self._read_unlocked(sql, params)
        return self._read_unlocked(sql, params)

    def _read_unlocked(self, sql: str, params: tuple[Any, ...]) -> list[tuple]:
        try:
            return self._connection().execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            raise MetadataStoreError(str(exc)) from exc

    def _write(self, sql: str, params: tuple[Any, ...] = ()) -> None:
        with self._write_lock:
            conn = self._connection()
            try:
                conn.execute(sql, params)
                conn.commit()
            except sqlite3.IntegrityError as exc:
                conn.rollback()
                raise DuplicateError(str(exc)) from exc
            except sqlite3.Error as exc:
                conn.rollback()
                raise MetadataStoreError(str(exc)) from exc

    def _write_many(self, sql: str, rows: Sequence[tuple[Any, ...]]) -> None:
        """Execute one statement for many rows in a single transaction."""
        if not rows:
            return
        with self._write_lock:
            conn = self._connection()
            try:
                conn.executemany(sql, rows)
                conn.commit()
            except sqlite3.IntegrityError as exc:
                conn.rollback()
                raise DuplicateError(str(exc)) from exc
            except sqlite3.Error as exc:
                conn.rollback()
                raise MetadataStoreError(str(exc)) from exc

    # -- models -------------------------------------------------------------

    def insert_model(self, model: Model) -> None:
        self._write(
            "INSERT INTO models (model_id, record) VALUES (?, ?)",
            (model.model_id, json.dumps(model.to_dict())),
        )

    def get_model(self, model_id: str) -> Model:
        rows = self._read(
            "SELECT record FROM models WHERE model_id = ?", (model_id,)
        )
        if not rows:
            raise NotFoundError(f"no model {model_id!r}")
        return Model.from_dict(json.loads(rows[0][0]))

    def get_models(self, model_ids: Iterable[str]) -> dict[str, Model]:
        out: dict[str, Model] = {}
        for chunk in _chunked(_unique(model_ids)):
            placeholders = ",".join("?" * len(chunk))
            rows = self._read(
                f"SELECT record FROM models WHERE model_id IN ({placeholders})",  # noqa: S608
                tuple(chunk),
            )
            for (record,) in rows:
                model = Model.from_dict(json.loads(record))
                out[model.model_id] = model
        return out

    def replace_model(self, model: Model) -> None:
        # Hold the write lock across read-check-update so the immutability
        # check and the UPDATE are one atomic step under concurrency.
        with self._write_lock:
            old = self.get_model(model.model_id)
            _assert_only_mutable_changed(
                old.to_dict(), model.to_dict(), _MUTABLE_MODEL_FIELDS, "model"
            )
            self._write(
                "UPDATE models SET record = ? WHERE model_id = ?",
                (json.dumps(model.to_dict()), model.model_id),
            )

    def iter_models(self) -> Iterator[Model]:
        rows = self._read("SELECT record FROM models")
        return (Model.from_dict(json.loads(r[0])) for r in rows)

    # -- instances ------------------------------------------------------------

    _INSERT_INSTANCE_SQL = (
        "INSERT INTO instances (instance_id, model_id, base_version_id,"
        " model_name, model_type, model_domain, city, team,"
        " serving_environment, family, created_time, record)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
    )

    @staticmethod
    def _instance_row(instance: ModelInstance) -> tuple[Any, ...]:
        meta = instance.metadata
        return (
            instance.instance_id,
            instance.model_id,
            instance.base_version_id,
            meta.get("model_name"),
            meta.get("model_type"),
            meta.get("model_domain"),
            meta.get("city"),
            meta.get("team"),
            meta.get("serving_environment"),
            instance.family,
            instance.created_time,
            json.dumps(instance.to_dict()),
        )

    def insert_instance(self, instance: ModelInstance) -> None:
        self._write(self._INSERT_INSTANCE_SQL, self._instance_row(instance))

    def insert_instances(self, instances: Sequence[ModelInstance]) -> None:
        """Bulk insert in one transaction: all rows land or none do."""
        self._write_many(
            self._INSERT_INSTANCE_SQL,
            [self._instance_row(instance) for instance in instances],
        )

    def get_instance(self, instance_id: str) -> ModelInstance:
        rows = self._read(
            "SELECT record FROM instances WHERE instance_id = ?", (instance_id,)
        )
        if not rows:
            raise NotFoundError(f"no model instance {instance_id!r}")
        return ModelInstance.from_dict(json.loads(rows[0][0]))

    def replace_instance(self, instance: ModelInstance) -> None:
        with self._write_lock:
            old = self.get_instance(instance.instance_id)
            _assert_only_mutable_changed(
                old.to_dict(), instance.to_dict(), _MUTABLE_INSTANCE_FIELDS, "instance"
            )
            self._write(
                "UPDATE instances SET record = ? WHERE instance_id = ?",
                (json.dumps(instance.to_dict()), instance.instance_id),
            )

    def iter_instances(self) -> Iterator[ModelInstance]:
        rows = self._read("SELECT record FROM instances")
        return (ModelInstance.from_dict(json.loads(r[0])) for r in rows)

    def instances_of_model(self, model_id: str) -> list[ModelInstance]:
        rows = self._read(
            "SELECT record FROM instances WHERE model_id = ? ORDER BY created_time",
            (model_id,),
        )
        return [ModelInstance.from_dict(json.loads(r[0])) for r in rows]

    def instances_for_models(
        self, model_ids: Iterable[str]
    ) -> dict[str, list[ModelInstance]]:
        requested = _unique(model_ids)
        out: dict[str, list[ModelInstance]] = {model_id: [] for model_id in requested}
        for chunk in _chunked(requested):
            placeholders = ",".join("?" * len(chunk))
            rows = self._read(
                "SELECT record FROM instances WHERE model_id IN"  # noqa: S608
                f" ({placeholders}) ORDER BY created_time",
                tuple(chunk),
            )
            for (record,) in rows:
                instance = ModelInstance.from_dict(json.loads(record))
                out[instance.model_id].append(instance)
        return out

    def instances_of_base_version(self, base_version_id: str) -> list[ModelInstance]:
        rows = self._read(
            "SELECT record FROM instances WHERE base_version_id = ?"
            " ORDER BY created_time",
            (base_version_id,),
        )
        return [ModelInstance.from_dict(json.loads(r[0])) for r in rows]

    def find_instances_by_field(self, field: str, value: Any) -> list[ModelInstance]:
        if field in INDEXED_FIELDS:
            rows = self._read(
                f"SELECT record FROM instances WHERE {field} = ?"  # noqa: S608
                " ORDER BY created_time",
                (value,),
            )
            return [ModelInstance.from_dict(json.loads(r[0])) for r in rows]
        hits = [
            inst for inst in self.iter_instances() if inst.metadata.get(field) == value
        ]
        hits.sort(key=lambda inst: inst.created_time)
        return hits

    # -- metrics ----------------------------------------------------------------

    @staticmethod
    def _metric_row(metric: MetricRecord) -> tuple[Any, ...]:
        return (
            metric.metric_id,
            metric.instance_id,
            metric.name,
            metric.value,
            json.dumps(metric.to_dict()),
        )

    def insert_metric(self, metric: MetricRecord) -> None:
        self._write(
            "INSERT INTO metrics (metric_id, instance_id, name, value, record)"
            " VALUES (?, ?, ?, ?, ?)",
            self._metric_row(metric),
        )

    def insert_metrics(self, metrics: Sequence[MetricRecord]) -> None:
        self._write_many(
            "INSERT INTO metrics (metric_id, instance_id, name, value, record)"
            " VALUES (?, ?, ?, ?, ?)",
            [self._metric_row(metric) for metric in metrics],
        )

    def metrics_of_instance(self, instance_id: str) -> list[MetricRecord]:
        rows = self._read(
            "SELECT record FROM metrics WHERE instance_id = ?", (instance_id,)
        )
        return [MetricRecord.from_dict(json.loads(r[0])) for r in rows]

    def metrics_for_instances(
        self, instance_ids: Iterable[str], name: str | None = None
    ) -> dict[str, list[MetricRecord]]:
        requested = _unique(instance_ids)
        out: dict[str, list[MetricRecord]] = {
            instance_id: [] for instance_id in requested
        }
        for chunk in _chunked(requested):
            placeholders = ",".join("?" * len(chunk))
            sql = (
                "SELECT record FROM metrics WHERE instance_id IN"  # noqa: S608
                f" ({placeholders})"
            )
            params: tuple[Any, ...] = tuple(chunk)
            if name is not None:
                sql += " AND name = ?"
                params += (name,)
            for (record,) in self._read(sql, params):
                metric = MetricRecord.from_dict(json.loads(record))
                out[metric.instance_id].append(metric)
        return out

    def iter_metrics(self) -> Iterator[MetricRecord]:
        rows = self._read("SELECT record FROM metrics")
        return (MetricRecord.from_dict(json.loads(r[0])) for r in rows)

    # -- families --------------------------------------------------------------

    def instances_in_family(self, family: str) -> list[ModelInstance]:
        rows = self._read(
            "SELECT record FROM instances WHERE family = ? ORDER BY created_time",
            (family,),
        )
        return [ModelInstance.from_dict(json.loads(r[0])) for r in rows]

    # -- serving assignments ---------------------------------------------------

    def serving_assignment(self, scope: str) -> ServingAssignment:
        rows = self._read(
            "SELECT record FROM serving_assignments WHERE scope = ?", (scope,)
        )
        if not rows:
            raise NotFoundError(f"no serving assignment for scope {scope!r}")
        return ServingAssignment.from_dict(json.loads(rows[0][0]))

    def serving_assignments(self) -> list[ServingAssignment]:
        rows = self._read(
            "SELECT record FROM serving_assignments ORDER BY scope"
        )
        return [ServingAssignment.from_dict(json.loads(r[0])) for r in rows]

    def assign_serving(
        self,
        scope: str,
        instance_id: str,
        *,
        family: str = "",
        now: float = 0.0,
        reason: str = "",
    ) -> ServingAssignment:
        # BEGIN IMMEDIATE takes the database write lock before the read, so
        # the read-modify-write is atomic across *replicas* sharing this
        # file, not just across this process's threads.
        with self._write_lock:
            conn = self._connection()
            try:
                conn.execute("BEGIN IMMEDIATE")
                rows = conn.execute(
                    "SELECT record FROM serving_assignments WHERE scope = ?",
                    (scope,),
                ).fetchall()
                current = (
                    ServingAssignment.from_dict(json.loads(rows[0][0]))
                    if rows
                    else None
                )
                if current is not None and current.instance_id == instance_id:
                    conn.commit()
                    return current
                assignment = ServingAssignment(
                    scope=scope,
                    instance_id=instance_id,
                    family=family,
                    assigned_time=now,
                    previous_instance_id=current.instance_id if current else None,
                    reason=reason,
                    switch_count=(current.switch_count + 1) if current else 1,
                )
                conn.execute(
                    "INSERT INTO serving_assignments"
                    " (scope, instance_id, family, assigned_time, record)"
                    " VALUES (?, ?, ?, ?, ?)"
                    " ON CONFLICT(scope) DO UPDATE SET"
                    " instance_id = excluded.instance_id,"
                    " family = excluded.family,"
                    " assigned_time = excluded.assigned_time,"
                    " record = excluded.record",
                    (
                        scope,
                        instance_id,
                        family,
                        now,
                        json.dumps(assignment.to_dict()),
                    ),
                )
                conn.commit()
                return assignment
            except sqlite3.Error as exc:
                conn.rollback()
                raise MetadataStoreError(str(exc)) from exc

    def serving_assignment_count(self) -> int:
        rows = self._read("SELECT COUNT(*) FROM serving_assignments")
        return int(rows[0][0])

    def counts(self) -> dict[str, int]:
        out = {}
        for table in ("models", "instances", "metrics"):
            rows = self._read(f"SELECT COUNT(*) FROM {table}")  # noqa: S608
            out[table] = int(rows[0][0])
        return out

    # -- durable control state (request dedup + dead letters) -----------------
    #
    # Several server replicas share one file-backed database, so the
    # exactly-once bookkeeping lives here rather than in per-process memory.
    # Claims are made atomic across replicas by the PRIMARY KEY insert (first
    # writer wins) and by conditional UPDATEs checked via ``rowcount`` — the
    # per-instance ``_write_lock`` only serializes threads of one process;
    # SQLite's database write lock serializes the replicas themselves.

    @property
    def supports_durable_state(self) -> bool:  # type: ignore[override]
        return not self._is_memory

    def dedup_claim(
        self,
        client_id: str,
        request_id: int,
        *,
        takeover_after: float = 5.0,
        now: float | None = None,
    ) -> tuple[str, bytes | None]:
        """Claim the right to execute ``(client_id, request_id)``.

        Returns one of:

        * ``("owner", None)`` — caller must execute the request and then
          call :meth:`dedup_complete` (success) or :meth:`dedup_release`.
        * ``("done", response)`` — a replica already finished; replay the
          recorded response bytes verbatim.
        * ``("pending", None)`` — another replica is still executing it;
          the caller should answer with a transient error so the client
          retries after a backoff.

        A ``pending`` row older than *takeover_after* seconds is presumed
        abandoned (its replica died mid-request) and is taken over.
        """
        now = time.time() if now is None else now
        with self._write_lock:
            conn = self._connection()
            try:
                conn.execute(
                    "INSERT INTO dedup_entries"
                    " (client_id, request_id, status, response, updated)"
                    " VALUES (?, ?, 'pending', NULL, ?)",
                    (client_id, request_id, now),
                )
                conn.commit()
                return "owner", None
            except sqlite3.IntegrityError:
                conn.rollback()
            except sqlite3.Error as exc:
                conn.rollback()
                raise MetadataStoreError(str(exc)) from exc
            try:
                rows = conn.execute(
                    "SELECT status, response FROM dedup_entries"
                    " WHERE client_id = ? AND request_id = ?",
                    (client_id, request_id),
                ).fetchall()
                if not rows:
                    # Row vanished between INSERT conflict and SELECT (a
                    # concurrent release); let the client retry cleanly.
                    return "pending", None
                status, response = rows[0]
                if status == "done":
                    conn.execute(
                        "UPDATE dedup_entries SET updated = ?"
                        " WHERE client_id = ? AND request_id = ?",
                        (now, client_id, request_id),
                    )
                    conn.commit()
                    return "done", bytes(response)
                cursor = conn.execute(
                    "UPDATE dedup_entries SET updated = ?"
                    " WHERE client_id = ? AND request_id = ?"
                    " AND status = 'pending' AND updated <= ?",
                    (now, client_id, request_id, now - takeover_after),
                )
                conn.commit()
                if cursor.rowcount == 1:
                    return "owner", None
                return "pending", None
            except sqlite3.Error as exc:
                conn.rollback()
                raise MetadataStoreError(str(exc)) from exc

    def dedup_complete(
        self, client_id: str, request_id: int, response: bytes
    ) -> None:
        """Record the successful response for a claimed request."""
        self._write(
            "UPDATE dedup_entries SET status = 'done', response = ?, updated = ?"
            " WHERE client_id = ? AND request_id = ?",
            (response, time.time(), client_id, request_id),
        )

    def dedup_release(self, client_id: str, request_id: int) -> None:
        """Drop a pending claim (the request failed; a retry may re-execute)."""
        self._write(
            "DELETE FROM dedup_entries WHERE client_id = ? AND request_id = ?"
            " AND status = 'pending'",
            (client_id, request_id),
        )

    def dedup_trim(self, capacity: int, client_id: str | None = None) -> int:
        """Evict the oldest completed entries beyond *capacity*; return count.

        *client_id* names the client whose entry was just completed; one
        file owns every client, so it selects nothing here (the sharded
        store trims only that client's shard)."""
        with self._write_lock:
            conn = self._connection()
            try:
                (total,) = conn.execute(
                    "SELECT COUNT(*) FROM dedup_entries WHERE status = 'done'"
                ).fetchone()
                excess = int(total) - capacity
                if excess <= 0:
                    return 0
                cursor = conn.execute(
                    "DELETE FROM dedup_entries WHERE rowid IN ("
                    " SELECT rowid FROM dedup_entries WHERE status = 'done'"
                    " ORDER BY updated ASC LIMIT ?)",
                    (excess,),
                )
                conn.commit()
                return cursor.rowcount
            except sqlite3.Error as exc:
                conn.rollback()
                raise MetadataStoreError(str(exc)) from exc

    def dedup_trim_age(self, max_age: float, now: float | None = None) -> int:
        """Evict completed entries older than *max_age* seconds.

        Only ``done`` rows are eligible: a pending claim is owned by a
        live (or about-to-be-taken-over) request and must not vanish.
        """
        now = time.time() if now is None else now
        with self._write_lock:
            conn = self._connection()
            try:
                cursor = conn.execute(
                    "DELETE FROM dedup_entries WHERE status = 'done'"
                    " AND updated <= ?",
                    (now - max_age,),
                )
                conn.commit()
                return cursor.rowcount
            except sqlite3.Error as exc:
                conn.rollback()
                raise MetadataStoreError(str(exc)) from exc

    def dedup_count(self) -> int:
        rows = self._read(
            "SELECT COUNT(*) FROM dedup_entries WHERE status = 'done'"
        )
        return int(rows[0][0])

    def dead_letter_append(
        self, rule_uuid: str, action: str, error_type: str, record: str
    ) -> int:
        """Insert a serialized dead letter; return its assigned id."""
        with self._write_lock:
            conn = self._connection()
            try:
                cursor = conn.execute(
                    "INSERT INTO dead_letters (rule_uuid, action, error_type,"
                    " record, created_at) VALUES (?, ?, ?, ?, ?)",
                    (rule_uuid, action, error_type, record, time.time()),
                )
                conn.commit()
                return int(cursor.lastrowid)
            except sqlite3.Error as exc:
                conn.rollback()
                raise MetadataStoreError(str(exc)) from exc

    def dead_letters_list(
        self,
        *,
        rule_uuid: str | None = None,
        action: str | None = None,
        error_type: str | None = None,
    ) -> list[tuple[int, str]]:
        """Return ``(letter_id, record)`` pairs, oldest first."""
        sql = "SELECT letter_id, record FROM dead_letters"
        clauses: list[str] = []
        params: tuple[Any, ...] = ()
        for column, value in (
            ("rule_uuid", rule_uuid),
            ("action", action),
            ("error_type", error_type),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params += (value,)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY letter_id"
        return [(int(row[0]), row[1]) for row in self._read(sql, params)]

    def dead_letter_update(
        self, letter_id: int, error_type: str, record: str
    ) -> None:
        """Refresh a letter after a failed redrive attempt."""
        self._write(
            "UPDATE dead_letters SET error_type = ?, record = ?"
            " WHERE letter_id = ?",
            (error_type, record, letter_id),
        )

    def dead_letters_delete(self, letter_ids: Iterable[int]) -> int:
        """Delete letters by id; return how many rows were removed."""
        ids = list(letter_ids)
        if not ids:
            return 0
        removed = 0
        with self._write_lock:
            conn = self._connection()
            try:
                for chunk in _chunked(ids):
                    placeholders = ",".join("?" * len(chunk))
                    cursor = conn.execute(
                        "DELETE FROM dead_letters WHERE letter_id IN"  # noqa: S608
                        f" ({placeholders})",
                        tuple(chunk),
                    )
                    removed += cursor.rowcount
                conn.commit()
                return removed
            except sqlite3.Error as exc:
                conn.rollback()
                raise MetadataStoreError(str(exc)) from exc

    def dead_letters_trim(self, max_entries: int) -> int:
        """Evict the oldest letters beyond *max_entries*; return count."""
        with self._write_lock:
            conn = self._connection()
            try:
                (total,) = conn.execute(
                    "SELECT COUNT(*) FROM dead_letters"
                ).fetchone()
                excess = int(total) - max_entries
                if excess <= 0:
                    return 0
                cursor = conn.execute(
                    "DELETE FROM dead_letters WHERE letter_id IN ("
                    " SELECT letter_id FROM dead_letters"
                    " ORDER BY letter_id ASC LIMIT ?)",
                    (excess,),
                )
                conn.commit()
                return cursor.rowcount
            except sqlite3.Error as exc:
                conn.rollback()
                raise MetadataStoreError(str(exc)) from exc

    def dead_letters_trim_age(
        self, max_age: float, now: float | None = None
    ) -> int:
        """Evict letters older than *max_age* seconds; return count.

        Letters written before the ``created_at`` column existed carry the
        migration default of 0 and are never age-trimmed — an unknown age
        is not an old age.
        """
        now = time.time() if now is None else now
        with self._write_lock:
            conn = self._connection()
            try:
                cursor = conn.execute(
                    "DELETE FROM dead_letters WHERE created_at > 0"
                    " AND created_at <= ?",
                    (now - max_age,),
                )
                conn.commit()
                return cursor.rowcount
            except sqlite3.Error as exc:
                conn.rollback()
                raise MetadataStoreError(str(exc)) from exc

    def dead_letters_count(self) -> int:
        rows = self._read("SELECT COUNT(*) FROM dead_letters")
        return int(rows[0][0])


StoreFactory = Callable[[], MetadataStore]
