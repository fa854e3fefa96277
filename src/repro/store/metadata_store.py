"""Relational metadata storage (Section 3.5).

The paper stores model metadata and metrics in MySQL "to guarantee high
availability and [support] flexible queries".  This module provides the same
query surface:

* :class:`MetadataStore` — the interface the DAL and the sharded store
  (:mod:`repro.store.sharding`) program against.
* :class:`SQLiteMetadataStore` — the one engine behind it (stdlib
  ``sqlite3``), with indexed columns for the standard search fields,
  standing in for the Uber-managed MySQL service.  A database file is what
  servers and the CLI run; ``:memory:`` is what ``build_gallery()`` builds
  by default, so tests execute the same statements production does.

Records are **insert-only** for models, instances, and metrics —
they are immutable (Section 3.1).  The only sanctioned in-place change is
:meth:`MetadataStore.replace_model` / :meth:`replace_instance`, which the
registry uses exclusively for bookkeeping fields that the paper itself
mutates: evolution pointers, dependency pointers, and the deprecation flag.

The store is also the only home of the registry's derived state, so every
replica over one store gives the same answers: a model's latest
``major.minor`` version lives in promoted ``models`` columns (kept out of
the record JSON) and moves inside the write that changes it, and lifecycle
transitions are rows of their own (Figure 1's audit trail).

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
``metrics_for_instances`` / ``metric_values_for_instances`` /
``insert_metrics``) let the registry resolve a whole candidate set in O(1)
queries instead of one query per record.  A search's metric constraints read
``metric_values_for_instances``: ``(name, value, scope)`` as column values,
with no metric record decoded.

A constraint search reads its candidates with one statement,
:meth:`MetadataStore.find_instances_by_field`: the strict equality the
search picked for an index or a routing key, plus every other equality
constraint it could push, all in one ``WHERE``.  The pushed equalities are
necessary conditions on the instance's own metadata (a row without the key
is kept, since its parent model may supply the value), so the rows that come
back are the instances that can still match, not the whole index range.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import replace
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence, TypeVar

from repro.core.lifecycle import LifecycleStage, StageChange
from repro.core.metadata import INDEXED_FIELDS
from repro.core.records import (
    MetricRecord,
    MetricScope,
    Model,
    ModelInstance,
    ServingAssignment,
)
from repro.core.versioning import InstanceVersion
from repro.errors import (
    DuplicateError,
    MetadataStoreError,
    NotFoundError,
    ValidationError,
)

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

#: Instance columns a narrowing read may test with ``=``: the promoted
#: standard fields, the two routing identifiers and the family.  Only these
#: names are ever formatted into SQL text.
_KEY_COLUMNS = frozenset(INDEXED_FIELDS) | {"base_version_id", "model_id", "family"}

_R = TypeVar("_R")

#: Max ids per SQL ``IN (...)`` clause; SQLite's default host-parameter
#: limit is 999, so batched lookups chunk below it.
_IN_CLAUSE_CHUNK = 500


def _chunked(ids: Sequence[Any], size: int = _IN_CLAUSE_CHUNK) -> Iterator[Sequence[Any]]:
    for start in range(0, len(ids), size):
        yield ids[start : start + size]


def _unique(ids: Iterable[str]) -> list[str]:
    """Preserve order, drop duplicates (dict insertion-order trick)."""
    return list(dict.fromkeys(ids))


def _records(cls: type[_R], rows: Iterable[tuple]) -> Iterator[_R]:
    """Decode rows whose first column is a record's JSON document, lazily
    and in row order: the one place a stored document becomes a record."""
    return map(cls.from_dict, map(json.loads, map(itemgetter(0), rows)))


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
    """Abstract relational store for models, instances, and metrics.

    It also owns the serving plane's control state: request-dedup entries
    and the rule engine's dead letters, so every service and engine over
    one store shares them (and a file-backed store keeps them across
    restarts).
    """

    # -- models -------------------------------------------------------------

    @abstractmethod
    def insert_model(self, model: Model) -> None:
        """Insert a model at version ``1.0``, or, for the successor of an
        evolution (``previous_model_id`` set), at its predecessor's stored
        latest version with the major bumped (Figure 7's rule)."""

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

    @abstractmethod
    def models_at(self, project: str, base_version_id: str) -> list[Model]:
        """Every model registered at one coordinate, ordered by creation
        time: one record, or an evolution chain sharing it."""

    @abstractmethod
    def latest_version(self, model_id: str) -> InstanceVersion:
        """A model's latest ``major.minor`` version; raises NotFoundError."""

    @abstractmethod
    def bump_versions(self, models: Sequence[Model]) -> dict[str, InstanceVersion]:
        """Give each model a minor bump (Figure 6's propagated update);
        returns the new versions of the models found.  Atomic per database
        file: the sharded store commits each shard's group on its own."""

    # -- instances ----------------------------------------------------------

    @abstractmethod
    def insert_instance(self, instance: ModelInstance) -> ModelInstance:
        """Insert an instance and return the stored record.

        In the same transaction the owning model takes a minor bump, and
        the instance's ``instance_version`` is the bumped version.  An
        instance whose model row is absent keeps the version it carries.
        """

    @abstractmethod
    def insert_instances(self, instances: Sequence[ModelInstance]) -> None:
        """Bulk insert, atomic per database file: a file's rows all land or
        none do (the sharded store's per-shard groups commit independently).
        A loader path: rows keep the versions they carry and no model's
        version moves."""

    @abstractmethod
    def get_instance(self, instance_id: str) -> ModelInstance: ...

    @abstractmethod
    def replace_instance(self, instance: ModelInstance) -> None: ...

    @abstractmethod
    def iter_instances(self) -> Iterator[ModelInstance]: ...

    @abstractmethod
    def instances_for_models(
        self, model_ids: Iterable[str]
    ) -> dict[str, list[ModelInstance]]:
        """Every requested model id maps to its (possibly empty) list of
        instances, ordered by creation time."""

    @abstractmethod
    def find_instances_by_field(
        self,
        field: str | None,
        value: Any = None,
        also: Sequence[tuple[str, Any]] = (),
    ) -> list[ModelInstance]:
        """Instances whose *field* column equals *value*, narrowed by *also*.

        *field* is an indexed standard-metadata column, ``base_version_id``,
        ``model_id`` or ``family``, or None for no strict condition.  Each
        ``(key, expected)`` in *also* keeps only rows whose own metadata
        either lacks *key* or holds *expected* there: a necessary condition
        for a search document to match, never a sufficient one.  Rows come
        back ordered by creation time.
        """

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
        self, instance_ids: Iterable[str]
    ) -> dict[str, list[MetricRecord]]:
        """Batch variant of :meth:`metrics_of_instance`; every requested id
        maps to a (possibly empty) list of full records.  A search's metric
        constraints read :meth:`metric_values_for_instances` instead."""

    @abstractmethod
    def metric_values_for_instances(
        self, instance_ids: Iterable[str], name: str | None = None
    ) -> dict[str, list[tuple[str, float, str]]]:
        """What a metric constraint reads: ``(name, value, scope)`` per metric.

        Every requested id maps to a (possibly empty) list.  *scope* is the
        canonical :class:`MetricScope` value, so a row whose stored scope
        :class:`MetricRecord` would refuse raises the same ValidationError.
        When *name* is given, only metrics with that name are returned — a
        pushdown for an equality constraint on ``metricName``.
        """

    @abstractmethod
    def iter_metrics(self) -> Iterator[MetricRecord]: ...

    # -- lifecycle -------------------------------------------------------------

    @abstractmethod
    def append_stage_change(self, instance_id: str, change: StageChange) -> None:
        """Record one lifecycle transition after the instance's others."""

    @abstractmethod
    def stage_changes_for_instances(
        self, instance_ids: Iterable[str]
    ) -> dict[str, list[StageChange]]:
        """Every requested id maps to its recorded transitions, oldest
        first (possibly none: a default upload records nothing)."""

    # -- families -------------------------------------------------------------

    @abstractmethod
    def models_in_family(self, family: str) -> list[Model]:
        """Models grouped under *family*, ordered by creation time."""

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
    ) -> tuple[ServingAssignment, bool]:
        """Atomically (re-)point *scope* at *instance_id*.

        Returns the row and whether this call switched it.  Re-assigning
        the already-serving instance is a no-op that returns the existing
        row unchanged (no switch-count bump) and ``False``.  Both are
        decided inside the write transaction, so a switch another replica
        commits first is seen, not raced.
        """

    @abstractmethod
    def serving_assignment_count(self) -> int:
        """Number of scopes with an assignment (kept out of :meth:`counts`
        so existing exact-shape assertions stay valid)."""

    # -- misc ---------------------------------------------------------------

    @abstractmethod
    def counts(self) -> dict[str, int]:
        """Row counts per table, for scale experiments."""


_SCHEMA = """
CREATE TABLE IF NOT EXISTS models (
    model_id        TEXT PRIMARY KEY,
    record          TEXT NOT NULL,
    project         TEXT,
    base_version_id TEXT,
    version_major   INTEGER,
    version_minor   INTEGER
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
CREATE INDEX IF NOT EXISTS idx_metrics_instance_name ON metrics(instance_id, name);
CREATE TABLE IF NOT EXISTS dedup_entries (
    client_id  TEXT    NOT NULL,
    request_id INTEGER NOT NULL,
    status     TEXT    NOT NULL,
    response   BLOB,
    updated    REAL    NOT NULL,
    PRIMARY KEY (client_id, request_id)
);
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
CREATE TABLE IF NOT EXISTS lifecycle_transitions (
    instance_id TEXT    NOT NULL,
    seq         INTEGER NOT NULL,
    timestamp   REAL    NOT NULL,
    from_stage  TEXT,
    to_stage    TEXT    NOT NULL,
    reason      TEXT    NOT NULL DEFAULT '',
    PRIMARY KEY (instance_id, seq)
);
"""

#: A minor bump of a model's latest version, in SQL: writers serialize on
#: the database write lock, so no two of them ever read the same version.
_BUMP_SQL = (
    "UPDATE models SET version_major = COALESCE(version_major, 1),"
    " version_minor = COALESCE(version_minor, 0) + 1"
)
_RETURNING_VERSION = " RETURNING model_id, version_major, version_minor"


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
        # Model coordinates were promoted to columns after the models table
        # shipped; same guarded ALTER, and the index after it for the same
        # reason.  Rows without them (a pre-promotion file, or a row another
        # writer inserted bare) are backfilled from their JSON: json.loads
        # reads the NaN that json.dumps may have written into a record,
        # which SQLite's JSON functions reject.
        model_columns = {
            row[1] for row in conn.execute("PRAGMA table_info(models)")
        }
        for column in ("project", "base_version_id"):
            if column not in model_columns:
                conn.execute(f"ALTER TABLE models ADD COLUMN {column} TEXT")
        conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_models_coordinate"
            " ON models(project, base_version_id)"
        )
        bare = conn.execute(
            "SELECT model_id, record FROM models WHERE project IS NULL"
        ).fetchall()
        backfill = []
        for model_id, record in bare:
            fields = json.loads(record)
            backfill.append(
                (fields.get("project"), fields.get("base_version_id"), model_id)
            )
        conn.executemany(
            "UPDATE models SET project = ?, base_version_id = ?"
            " WHERE model_id = ?",
            backfill,
        )
        # Latest versions were promoted the same way.  A model without them
        # takes the newest version its instances carry, at least 1.0.
        for column in ("version_major", "version_minor"):
            if column not in model_columns:
                conn.execute(f"ALTER TABLE models ADD COLUMN {column} INTEGER")
        latest = {
            row[0]: InstanceVersion(1, 0)
            for row in conn.execute(
                "SELECT model_id FROM models WHERE version_major IS NULL"
            )
        }
        for chunk in _chunked(list(latest)):
            placeholders = ",".join("?" * len(chunk))
            for model_id, record in conn.execute(
                "SELECT model_id, record FROM instances"  # noqa: S608
                f" WHERE model_id IN ({placeholders})",
                tuple(chunk),
            ):
                try:
                    version = InstanceVersion.parse(
                        json.loads(record).get("instance_version") or ""
                    )
                except ValidationError:
                    continue
                latest[model_id] = max(latest[model_id], version)
        conn.executemany(
            "UPDATE models SET version_major = ?, version_minor = ?"
            " WHERE model_id = ?",
            [(v.major, v.minor, model_id) for model_id, v in latest.items()],
        )
        # Indexes no statement reads any more, each one more page to write
        # per insert: every metric read filters on instance_id (the
        # (instance_id, name) index serves both shapes), and an index on
        # dedup status would steer the claim-order trim off its rowid range.
        for index in ("idx_metrics_instance", "idx_metrics_name", "idx_dedup_updated"):
            conn.execute(f"DROP INDEX IF EXISTS {index}")

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

    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """Hold the write lock around one transaction; commit on success.

        *Any* exception rolls back, so no path leaves an open transaction
        (and, on a shared file, SQLite's database write lock) behind.  A
        constraint violation surfaces as DuplicateError, any other sqlite3
        error as MetadataStoreError.
        """
        with self._write_lock:
            conn = self._connection()
            try:
                yield conn
                conn.commit()
            except BaseException as exc:
                conn.rollback()
                if isinstance(exc, sqlite3.IntegrityError):
                    raise DuplicateError(str(exc)) from exc
                if isinstance(exc, sqlite3.Error):
                    raise MetadataStoreError(str(exc)) from exc
                raise

    def _write(self, sql: str, params: tuple[Any, ...] = ()) -> None:
        with self._transaction() as conn:
            conn.execute(sql, params)

    def _write_many(self, sql: str, rows: Sequence[tuple[Any, ...]]) -> None:
        """Execute one statement for many rows in a single transaction."""
        if rows:
            with self._transaction() as conn:
                conn.executemany(sql, rows)

    # -- models -------------------------------------------------------------

    def insert_model(self, model: Model) -> None:
        self._write(
            "INSERT INTO models (model_id, record, project, base_version_id,"
            " version_major, version_minor) VALUES (?, ?, ?, ?, COALESCE("
            "(SELECT version_major + 1 FROM models WHERE model_id = ?), 1), 0)",
            (
                model.model_id,
                json.dumps(model.to_dict()),
                model.project,
                model.base_version_id,
                model.previous_model_id,
            ),
        )

    def get_model(self, model_id: str) -> Model:
        rows = self._read(
            "SELECT record FROM models WHERE model_id = ?", (model_id,)
        )
        if not rows:
            raise NotFoundError(f"no model {model_id!r}")
        return next(_records(Model, rows))

    def get_models(self, model_ids: Iterable[str]) -> dict[str, Model]:
        out: dict[str, Model] = {}
        for chunk in _chunked(_unique(model_ids)):
            placeholders = ",".join("?" * len(chunk))
            rows = self._read(
                f"SELECT record FROM models WHERE model_id IN ({placeholders})",  # noqa: S608
                tuple(chunk),
            )
            for model in _records(Model, rows):
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
        return _records(Model, self._read("SELECT record FROM models"))

    def models_at(self, project: str, base_version_id: str) -> list[Model]:
        rows = self._read(
            "SELECT record FROM models WHERE project = ? AND base_version_id = ?",
            (project, base_version_id),
        )
        models = list(_records(Model, rows))
        models.sort(key=lambda m: (m.created_time, m.model_id))
        return models

    def latest_version(self, model_id: str) -> InstanceVersion:
        rows = self._read(
            "SELECT COALESCE(version_major, 1), COALESCE(version_minor, 0)"
            " FROM models WHERE model_id = ?",
            (model_id,),
        )
        if not rows:
            raise NotFoundError(f"no model {model_id!r}")
        return InstanceVersion(*rows[0])

    def bump_versions(self, models: Sequence[Model]) -> dict[str, InstanceVersion]:
        bumped: dict[str, InstanceVersion] = {}
        with self._transaction() as conn:
            for chunk in _chunked(_unique(model.model_id for model in models)):
                placeholders = ",".join("?" * len(chunk))
                rows = conn.execute(
                    f"{_BUMP_SQL} WHERE model_id IN ({placeholders})"  # noqa: S608
                    + _RETURNING_VERSION,
                    tuple(chunk),
                ).fetchall()
                for model_id, major, minor in rows:
                    bumped[model_id] = InstanceVersion(major, minor)
        return bumped

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

    def insert_instance(self, instance: ModelInstance) -> ModelInstance:
        with self._transaction() as conn:
            # fetchall: a RETURNING statement left unfinished blocks commit
            bumped = conn.execute(
                f"{_BUMP_SQL} WHERE model_id = ?{_RETURNING_VERSION}",
                (instance.model_id,),
            ).fetchall()
            if bumped:
                _, major, minor = bumped[0]
                instance = replace(instance, instance_version=f"{major}.{minor}")
            conn.execute(self._INSERT_INSTANCE_SQL, self._instance_row(instance))
        return instance

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
        return next(_records(ModelInstance, rows))

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
        return _records(ModelInstance, self._read("SELECT record FROM instances"))

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
            for instance in _records(ModelInstance, rows):
                out[instance.model_id].append(instance)
        return out

    def _select_instances(self, terms: list[str], params: list[Any]) -> list[tuple]:
        where = f" WHERE {' AND '.join(terms)}" if terms else ""
        return self._read(
            f"SELECT record FROM instances{where} ORDER BY created_time",  # noqa: S608
            tuple(params),
        )

    def find_instances_by_field(
        self,
        field: str | None,
        value: Any = None,
        also: Sequence[tuple[str, Any]] = (),
    ) -> list[ModelInstance]:
        if field is not None and field not in _KEY_COLUMNS:
            raise ValueError(f"cannot narrow on {field!r}: not an instance column")
        terms, params = ([], []) if field is None else ([f"{field} = ?"], [value])
        json_terms: list[str] = []
        json_params: list[Any] = []
        for key, expected in also:
            # NULL when the key is absent (or JSON null): keep the row.
            json_terms.append("IFNULL(json_extract(record, ?) = ?, 1)")
            json_params += [f"$.metadata.{key}", expected]
        try:
            rows = self._select_instances(terms + json_terms, params + json_params)
        except MetadataStoreError as exc:
            # json.dumps writes a non-finite float as a bare NaN / Infinity,
            # which SQLite's JSON functions reject as malformed JSON.  The
            # JSON terms are only necessary conditions: read without them
            # and let the caller's matcher decide.
            if not json_terms or "malformed JSON" not in str(exc):
                raise
            rows = self._select_instances(terms, params)
        return list(_records(ModelInstance, rows))

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
        return list(_records(MetricRecord, rows))

    def metrics_for_instances(
        self, instance_ids: Iterable[str]
    ) -> dict[str, list[MetricRecord]]:
        requested = _unique(instance_ids)
        out: dict[str, list[MetricRecord]] = {
            instance_id: [] for instance_id in requested
        }
        for chunk in _chunked(requested):
            placeholders = ",".join("?" * len(chunk))
            rows = self._read(
                "SELECT record FROM metrics WHERE instance_id IN"  # noqa: S608
                f" ({placeholders})",
                tuple(chunk),
            )
            for metric in _records(MetricRecord, rows):
                out[metric.instance_id].append(metric)
        return out

    def metric_values_for_instances(
        self, instance_ids: Iterable[str], name: str | None = None
    ) -> dict[str, list[tuple[str, float, str]]]:
        requested = _unique(instance_ids)
        out: dict[str, list[tuple[str, float, str]]] = {
            instance_id: [] for instance_id in requested
        }
        parse = MetricScope.parse
        for chunk in _chunked(requested):
            placeholders = ",".join("?" * len(chunk))
            where = f" FROM metrics WHERE instance_id IN ({placeholders})"
            params: tuple[Any, ...] = tuple(chunk)
            if name is not None:
                where += " AND name = ?"
                params += (name,)
            # The value column always equals the record's value (NaN is
            # refused on insert), so only the scope comes out of the JSON.
            try:
                rows = self._read(
                    "SELECT instance_id, name, value,"  # noqa: S608
                    " json_extract(record, '$.scope')" + where,
                    params,
                )
            except MetadataStoreError as exc:
                # json.dumps writes ±inf (a legal value) and a NaN inside
                # metric metadata as bare Infinity / NaN, which SQLite's
                # JSON functions reject as malformed JSON.
                if "malformed JSON" not in str(exc):
                    raise
                rows = None
            if rows is None or any(row[3] is None for row in rows):
                # A scope key that is absent or null means what
                # MetricRecord makes of it: decode this chunk in full.
                rows = [
                    (m.instance_id, m.name, m.value, m.scope)
                    for m in _records(
                        MetricRecord,
                        self._read("SELECT record" + where, params),  # noqa: S608
                    )
                ]
            for instance_id, metric_name, value, scope in rows:
                out[instance_id].append((metric_name, value, parse(scope).value))
        return out

    def iter_metrics(self) -> Iterator[MetricRecord]:
        return _records(MetricRecord, self._read("SELECT record FROM metrics"))

    # -- lifecycle --------------------------------------------------------------

    def append_stage_change(self, instance_id: str, change: StageChange) -> None:
        from_stage = change.from_stage.value if change.from_stage else None
        self._write(
            "INSERT INTO lifecycle_transitions (instance_id, seq, timestamp,"
            " from_stage, to_stage, reason) SELECT ?, COALESCE(MAX(seq), 0) + 1,"
            " ?, ?, ?, ? FROM lifecycle_transitions WHERE instance_id = ?",
            (
                instance_id,
                change.timestamp,
                from_stage,
                change.to_stage.value,
                change.reason,
                instance_id,
            ),
        )

    def stage_changes_for_instances(
        self, instance_ids: Iterable[str]
    ) -> dict[str, list[StageChange]]:
        requested = _unique(instance_ids)
        out: dict[str, list[StageChange]] = {iid: [] for iid in requested}
        for chunk in _chunked(requested):
            placeholders = ",".join("?" * len(chunk))
            rows = self._read(
                "SELECT instance_id, timestamp, from_stage, to_stage, reason"  # noqa: S608
                f" FROM lifecycle_transitions WHERE instance_id IN ({placeholders})"
                " ORDER BY instance_id, seq",
                tuple(chunk),
            )
            for instance_id, timestamp, from_stage, to_stage, reason in rows:
                out[instance_id].append(
                    StageChange(
                        timestamp=timestamp,
                        from_stage=LifecycleStage(from_stage) if from_stage else None,
                        to_stage=LifecycleStage(to_stage),
                        reason=reason,
                    )
                )
        return out

    # -- families --------------------------------------------------------------

    def models_in_family(self, family: str) -> list[Model]:
        # The models table has no ``family`` column: model corpora are small
        # next to instances, so this scans the JSON documents instead.
        hits = [m for m in self.iter_models() if m.family == family]
        hits.sort(key=lambda m: m.created_time)
        return hits

    # -- serving assignments ---------------------------------------------------

    def serving_assignment(self, scope: str) -> ServingAssignment:
        rows = self._read(
            "SELECT record FROM serving_assignments WHERE scope = ?", (scope,)
        )
        if not rows:
            raise NotFoundError(f"no serving assignment for scope {scope!r}")
        return next(_records(ServingAssignment, rows))

    def serving_assignments(self) -> list[ServingAssignment]:
        rows = self._read(
            "SELECT record FROM serving_assignments ORDER BY scope"
        )
        return list(_records(ServingAssignment, rows))

    def assign_serving(
        self,
        scope: str,
        instance_id: str,
        *,
        family: str = "",
        now: float = 0.0,
        reason: str = "",
    ) -> tuple[ServingAssignment, bool]:
        # BEGIN IMMEDIATE takes the database write lock before the read, so
        # the read-modify-write is atomic across *replicas* sharing this
        # file, not just across this process's threads.  ServingAssignment
        # validates after it (an empty scope raises ValidationError), which
        # _transaction rolls back like any other error.
        with self._transaction() as conn:
            conn.execute("BEGIN IMMEDIATE")
            rows = conn.execute(
                "SELECT record FROM serving_assignments WHERE scope = ?",
                (scope,),
            ).fetchall()
            current = next(_records(ServingAssignment, rows), None)
            if current is not None and current.instance_id == instance_id:
                return current, False
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
                (scope, instance_id, family, now, json.dumps(assignment.to_dict())),
            )
            return assignment, True

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
            try:
                with self._transaction() as conn:
                    conn.execute(
                        "INSERT INTO dedup_entries"
                        " (client_id, request_id, status, response, updated)"
                        " VALUES (?, ?, 'pending', NULL, ?)",
                        (client_id, request_id, now),
                    )
                return "owner", None
            except DuplicateError:
                pass  # someone claimed it first; read what they left
            with self._transaction() as conn:
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
                    return "done", bytes(response)
                cursor = conn.execute(
                    "UPDATE dedup_entries SET updated = ?"
                    " WHERE client_id = ? AND request_id = ?"
                    " AND status = 'pending' AND updated <= ?",
                    (now, client_id, request_id, now - takeover_after),
                )
                return ("owner" if cursor.rowcount == 1 else "pending"), None

    def dedup_complete(
        self,
        client_id: str,
        request_id: int,
        response: bytes,
        capacity: int | None = None,
    ) -> None:
        """Record the successful response for a claimed request.

        With *capacity*, the :meth:`dedup_trim` eviction runs in the same
        transaction, so completing a request is one commit.
        """
        with self._transaction() as conn:
            conn.execute(
                "UPDATE dedup_entries SET status = 'done', response = ?,"
                " updated = ? WHERE client_id = ? AND request_id = ?",
                (response, time.time(), client_id, request_id),
            )
            if capacity is not None:
                self._evict_done(conn, capacity, (client_id, request_id))

    def dedup_release(self, client_id: str, request_id: int) -> None:
        """Drop a pending claim (the request failed; a retry may re-execute)."""
        self._write(
            "DELETE FROM dedup_entries WHERE client_id = ? AND request_id = ?"
            " AND status = 'pending'",
            (client_id, request_id),
        )

    def dedup_trim(self, capacity: int) -> int:
        """Evict completed entries more than *capacity* claims behind the
        newest claim; return the count.

        Eviction follows claim order (the row's insertion order), not the
        last replay: it is a rowid range, so it costs the rows it deletes,
        not a count of every entry.  Pending claims hold their place in the
        window but are never evicted, so at most *capacity* completed
        entries survive.
        """
        with self._transaction() as conn:
            return self._evict_done(conn, capacity)

    @staticmethod
    def _evict_done(
        conn: sqlite3.Connection,
        capacity: int,
        completed: tuple[str | None, int | None] = (None, None),
    ) -> int:
        """Delete done rows more than *capacity* claims behind the newest.

        The *completed* ``(client_id, request_id)`` is spared: a claim that
        stayed pending while *capacity* newer ones landed must still replay
        its response to a retry.  ``IS`` against ``(None, None)`` spares
        nothing.
        """
        return conn.execute(
            "DELETE FROM dedup_entries WHERE status = 'done' AND rowid <="
            " (SELECT MAX(rowid) FROM dedup_entries) - ?"
            " AND NOT (client_id IS ? AND request_id IS ?)",
            (capacity, *completed),
        ).rowcount

    def dedup_trim_age(self, max_age: float, now: float | None = None) -> int:
        """Evict completed entries older than *max_age* seconds.

        Only ``done`` rows are eligible: a pending claim is owned by a
        live (or about-to-be-taken-over) request and must not vanish.
        """
        now = time.time() if now is None else now
        with self._transaction() as conn:
            return conn.execute(
                "DELETE FROM dedup_entries WHERE status = 'done'"
                " AND updated <= ?",
                (now - max_age,),
            ).rowcount

    def dedup_count(self) -> int:
        rows = self._read(
            "SELECT COUNT(*) FROM dedup_entries WHERE status = 'done'"
        )
        return int(rows[0][0])

    def dead_letter_append(
        self, rule_uuid: str, action: str, error_type: str, record: str
    ) -> int:
        """Insert a serialized dead letter; return its assigned id."""
        with self._transaction() as conn:
            return int(
                conn.execute(
                    "INSERT INTO dead_letters (rule_uuid, action, error_type,"
                    " record, created_at) VALUES (?, ?, ?, ?, ?)",
                    (rule_uuid, action, error_type, record, time.time()),
                ).lastrowid
            )

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
        with self._transaction() as conn:
            for chunk in _chunked(ids):
                placeholders = ",".join("?" * len(chunk))
                removed += conn.execute(
                    "DELETE FROM dead_letters WHERE letter_id IN"  # noqa: S608
                    f" ({placeholders})",
                    tuple(chunk),
                ).rowcount
        return removed

    def dead_letters_trim(self, max_entries: int) -> int:
        """Evict the oldest letters beyond *max_entries*; return count."""
        with self._transaction() as conn:
            (total,) = conn.execute("SELECT COUNT(*) FROM dead_letters").fetchone()
            excess = int(total) - max_entries
            if excess <= 0:
                return 0
            return conn.execute(
                "DELETE FROM dead_letters WHERE letter_id IN ("
                " SELECT letter_id FROM dead_letters"
                " ORDER BY letter_id ASC LIMIT ?)",
                (excess,),
            ).rowcount

    def dead_letters_trim_age(
        self, max_age: float, now: float | None = None
    ) -> int:
        """Evict letters older than *max_age* seconds; return count.

        Letters written before the ``created_at`` column existed carry the
        migration default of 0 and are never age-trimmed — an unknown age
        is not an old age.
        """
        now = time.time() if now is None else now
        with self._transaction() as conn:
            return conn.execute(
                "DELETE FROM dead_letters WHERE created_at > 0"
                " AND created_at <= ?",
                (now - max_age,),
            ).rowcount

    def dead_letters_count(self) -> int:
        rows = self._read("SELECT COUNT(*) FROM dead_letters")
        return int(rows[0][0])
