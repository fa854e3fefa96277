"""Sharded metadata plane: hash-partitioned SQLite shards.

The paper sizes Gallery against Michelangelo-scale inventories — ">1M model
instances" — and a single SQLite file is the throughput and capacity ceiling
of every replica.  This module partitions the metadata plane by **model
coordinate** while keeping the rest of the stack oblivious:

* :class:`ShardMap` — a stable, hash-ranged partitioning of the 32-bit key
  space.  Every shard owns exactly one contiguous range; the map carries an
  **epoch** that is bumped by every topology change and is reported by
  ``auditStorage`` and ``gallery shard status``.  Keys are hashed with
  BLAKE2b (seedless), so placement is identical across processes and
  restarts — Python's builtin ``hash`` is per-process salted and would
  scatter a key differently on every boot.
* :class:`ShardedMetadataStore` — implements the full :class:`MetadataStore`
  surface over N inner stores (one WAL-mode SQLite file per shard, reusing
  the per-thread-connection machinery of :class:`SQLiteMetadataStore`).
  ``DataAccessLayer``, ``Gallery`` and ``GalleryService`` run unchanged.
* :func:`open_sharded_store` / :func:`init_sharded_layout` — open (or adopt
  a legacy single-file database into) an on-disk sharded layout.
* :func:`split_shard` — the offline rebalance tool behind
  ``gallery shard split <n>``: halves one shard's hash range, migrates the
  upper half into a new shard file, verifies, then installs the new map.

Routing discipline (every row type has a *natural key* whose hash picks the
owning shard — no lookup table, and one shard per transaction except a
serving re-point's):

===============  =====================  =========================================
table            routing key            why
===============  =====================  =========================================
models           ``base_version_id``    co-locates a coordinate's evolution chain
instances        ``base_version_id``    co-locates with the owning model, makes
                                        a base-version search single-shard
metrics          ``instance_id``        deterministic without consulting metadata
dedup_entries    ``client_id``          a client's exactly-once claims stay on one
                                        file, so the claim race between replicas
                                        is still decided by one SQLite database
                                        lock
dead_letters     ``rule_uuid``          a rule's failure history reads one shard
serving_         ``scope``              a scope's "what is serving" row (and its
assignments                             atomic re-point) lives on one file, so
                                        replicas racing a switch are serialized
                                        by one SQLite database lock; the
                                        re-point also holds the instance's
                                        shard, whose row is the review gate
lifecycle_       ``instance_id``        like metrics: a history read needs no
transitions                             lookup of the instance first
===============  =====================  =========================================

An upload's version bump commits with the instance row, since a model and
its instances share a shard, and an evolution's successor claims its
predecessor's next pointer in its own insert, since an evolution chain
shares its coordinate.  A propagated bump (Figure 6) touches each
downstream model on its own shard, one commit per shard.

Single-coordinate operations route to exactly one shard, and so does a
search's candidate read when it narrows on ``base_version_id`` or a routed
``model_id``.  Reads that lack a routing key (``get_model``,
``get_instance``, ``iter_*``, ``find_instances_by_field`` on an indexed
column) visit every shard **on the calling thread**, one after another, and
merge ordered results: the caller already owns a per-thread WAL connection
to each shard, a per-shard statement is tens of microseconds, and row
parsing holds the GIL, so a thread hand-off costs several times the
statement it would parallelise (docs/PERFORMANCE.md).  Hot
identifier→shard hits are memoised in bounded routing caches so the blob
read path (``get_instance`` per ``load_blob``) usually costs one shard
query.  Fan-outs that *commit* on more than one shard (bulk
``insert_instances``, the age/capacity trims) also run shard by shard on
the calling thread: nothing on the serving path makes them, so the store
starts no thread of its own.

Dead-letter ids are globalised as ``local_id * SHARD_STRIDE + shard`` so
``dead_letter_update`` / ``dead_letters_delete`` can decode the owning
shard from the id alone.  Capacity trims (``dedup_trim`` /
``dead_letters_trim``) **divide** their budget across shards (remainder
to the lowest indices), so the configured cap stays a global ceiling —
a skewed shard may be trimmed below its fair share — while age trims
behave globally by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
from bisect import bisect_right
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.lifecycle import StageChange
from repro.core.records import (
    MetricRecord,
    Model,
    ModelInstance,
    ServingAssignment,
)
from repro.core.versioning import InstanceVersion
from repro.errors import MetadataStoreError, NotFoundError
from repro.store.metadata_store import (
    MetadataStore,
    SQLiteMetadataStore,
    _M,
    _unique,
)

#: Size of the hash key space partitioned by a :class:`ShardMap`.
HASH_SPACE = 1 << 32

#: Dead-letter ids are ``local_id * SHARD_STRIDE + shard_index`` so the
#: owning shard is recoverable from the global id; caps the shard count.
SHARD_STRIDE = 1 << 10

#: File name of the persisted shard map inside a sharded data directory.
SHARD_MAP_FILENAME = "shard_map.json"

#: Routing caches are cleared (not evicted) past this size; misses simply
#: fall back to a scatter, so correctness never depends on the cache.
_ROUTE_CACHE_CAP = 1 << 18


def coordinate_hash(key: str) -> int:
    """Stable 32-bit hash of a routing key.

    BLAKE2b is seedless and version-stable, so a coordinate lands on the
    same shard in every process, forever — the property the hypothesis
    suite pins with golden values.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True, slots=True)
class ShardRange:
    """Half-open hash range ``[lo, hi)`` owned by ``shard``."""

    lo: int
    hi: int
    shard: int

    def __contains__(self, value: int) -> bool:
        return self.lo <= value < self.hi


class ShardMap:
    """Immutable hash-ranged partitioning of ``[0, HASH_SPACE)``.

    Every shard owns exactly one contiguous range; the ranges are sorted,
    disjoint, and cover the whole space.  ``epoch`` increases with every
    topology change so replicas and operators can detect staleness.
    """

    def __init__(self, ranges: Sequence[ShardRange], epoch: int = 0) -> None:
        ordered = sorted(ranges, key=lambda r: r.lo)
        if not ordered:
            raise MetadataStoreError("shard map needs at least one range")
        if len(ordered) > SHARD_STRIDE:
            raise MetadataStoreError(
                f"shard map exceeds {SHARD_STRIDE} shards"
            )
        if ordered[0].lo != 0 or ordered[-1].hi != HASH_SPACE:
            raise MetadataStoreError("shard ranges must cover the hash space")
        for prev, cur in zip(ordered, ordered[1:]):
            if prev.hi != cur.lo:
                raise MetadataStoreError(
                    f"shard ranges must be contiguous (gap at {prev.hi:#x})"
                )
        shards = sorted(r.shard for r in ordered)
        if shards != list(range(len(ordered))):
            raise MetadataStoreError(
                "every shard index 0..N-1 must own exactly one range"
            )
        self._ranges = tuple(ordered)
        self._los = [r.lo for r in ordered]
        self._by_shard = {r.shard: r for r in ordered}
        self.epoch = int(epoch)

    # -- construction ---------------------------------------------------------

    @classmethod
    def uniform(cls, num_shards: int) -> "ShardMap":
        """Split the hash space into *num_shards* equal ranges."""
        if num_shards < 1:
            raise MetadataStoreError("need at least one shard")
        bounds = [
            (i * HASH_SPACE) // num_shards for i in range(num_shards)
        ] + [HASH_SPACE]
        return cls(
            [
                ShardRange(bounds[i], bounds[i + 1], i)
                for i in range(num_shards)
            ],
            epoch=0,
        )

    def split(self, shard: int) -> "ShardMap":
        """Halve *shard*'s range; the upper half goes to a new shard.

        The new shard's index is ``num_shards`` (appended, never reused), so
        existing shard files keep their names and untouched ranges keep
        their placement — the property the hypothesis suite checks.
        """
        source = self.range_of(shard)
        width = source.hi - source.lo
        if width < 2:
            raise MetadataStoreError(
                f"shard {shard} range is too narrow to split"
            )
        mid = source.lo + width // 2
        ranges = [r for r in self._ranges if r.shard != shard]
        ranges.append(ShardRange(source.lo, mid, shard))
        ranges.append(ShardRange(mid, source.hi, self.num_shards))
        return ShardMap(ranges, epoch=self.epoch + 1)

    # -- routing --------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._ranges)

    @property
    def ranges(self) -> tuple[ShardRange, ...]:
        return self._ranges

    def range_of(self, shard: int) -> ShardRange:
        try:
            return self._by_shard[shard]
        except KeyError:
            raise MetadataStoreError(f"no shard {shard}") from None

    def shard_for_hash(self, value: int) -> int:
        return self._ranges[bisect_right(self._los, value) - 1].shard

    def shard_for(self, key: str) -> int:
        return self.shard_for_hash(coordinate_hash(key))

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "epoch": self.epoch,
            "num_shards": self.num_shards,
            "ranges": [[r.lo, r.hi, r.shard] for r in self._ranges],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ShardMap":
        try:
            ranges = [
                ShardRange(int(lo), int(hi), int(shard))
                for lo, hi, shard in payload["ranges"]
            ]
            epoch = int(payload.get("epoch", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise MetadataStoreError(f"malformed shard map: {exc}") from exc
        return cls(ranges, epoch=epoch)

    def save(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
        os.replace(tmp, path)  # atomic install: readers see old or new map

    @classmethod
    def load(cls, path: str) -> "ShardMap":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise MetadataStoreError(
                f"cannot load shard map {path!r}: {exc}"
            ) from exc
        return cls.from_dict(payload)


class ShardedMetadataStore(MetadataStore):
    """N metadata stores behind the single-store interface.

    Single-coordinate operations route to the owning shard; keyless reads
    visit the shards in order on the calling thread; multi-shard commits
    fan out on a lazy worker pool.  See the module docstring for the
    routing table and the budget-division semantics of capacity trims.
    """

    def __init__(
        self,
        shards: Sequence[SQLiteMetadataStore],
        shard_map: ShardMap,
        *,
        directory: str | None = None,
    ) -> None:
        if len(shards) != shard_map.num_shards:
            raise MetadataStoreError(
                f"shard map wants {shard_map.num_shards} shards,"
                f" got {len(shards)}"
            )
        self._shards = list(shards)
        self._map = shard_map
        self._directory = directory
        self._cache_lock = threading.Lock()
        self._model_shard: dict[str, int] = {}
        self._instance_shard: dict[str, int] = {}

    # -- topology -------------------------------------------------------------

    @property
    def shard_map(self) -> ShardMap:
        return self._map

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def directory(self) -> str | None:
        return self._directory

    def shard_counts(self) -> list[dict[str, int]]:
        """Per-shard row counts, in shard order."""
        return [dict(shard.counts()) for shard in self._shards]

    def shard_topology(self) -> dict[str, Any]:
        """The shard map plus per-shard row counts (``summary.shards``)."""
        topology = self._map.to_dict()
        topology["shard_counts"] = self.shard_counts()
        return topology

    def _split_budget(self, budget: int) -> list[int]:
        """Divide a global row budget across shards, remainder first.

        Capacity trims use this so the configured cap stays a *global*
        ceiling (each shard keeps at most its slice); a skewed shard may
        be trimmed below its fair share, which is what a hard cap means.
        """
        base, extra = divmod(max(int(budget), 0), len(self._shards))
        return [
            base + (1 if index < extra else 0)
            for index in range(len(self._shards))
        ]

    def _shard_for_key(self, key: str) -> SQLiteMetadataStore:
        return self._shards[self._map.shard_for(key)]

    def _cache_route(self, cache: dict[str, int], key: str, shard: int) -> None:
        with self._cache_lock:
            if len(cache) >= _ROUTE_CACHE_CAP:
                cache.clear()  # drop and refill; misses only cost a scatter
            cache[key] = shard

    def _cached_shard(
        self, cache: dict[str, int], key: str
    ) -> SQLiteMetadataStore | None:
        with self._cache_lock:
            index = cache.get(key)
        return None if index is None else self._shards[index]

    @staticmethod
    def _instance_sort_key(instance: ModelInstance) -> tuple[float, str]:
        return (instance.created_time, instance.instance_id)

    # -- models ---------------------------------------------------------------

    def insert_model(self, model: Model) -> None:
        shard = self._map.shard_for(model.base_version_id)
        self._shards[shard].insert_model(model)
        self._cache_route(self._model_shard, model.model_id, shard)

    def _on_model_shard(
        self, model_id: str, read: Callable[[MetadataStore], Any]
    ) -> Any:
        """*read* on the shard holding *model_id*: the cached route, else
        each shard in turn until one does not raise NotFoundError."""
        cached = self._cached_shard(self._model_shard, model_id)
        if cached is not None:
            return read(cached)
        for index, shard in enumerate(self._shards):
            try:
                result = read(shard)
            except NotFoundError:
                continue
            self._cache_route(self._model_shard, model_id, index)
            return result
        raise NotFoundError(f"no model {model_id!r}")

    def get_model(self, model_id: str) -> Model:
        return self._on_model_shard(model_id, lambda shard: shard.get_model(model_id))

    def get_models(self, model_ids: Iterable[str]) -> dict[str, Model]:
        requested = _unique(model_ids)
        if not requested:
            return {}
        found: dict[str, Model] = {}
        for index, shard in enumerate(self._shards):
            for model_id, model in shard.get_models(requested).items():
                found[model_id] = model
                self._cache_route(self._model_shard, model_id, index)
        return {mid: found[mid] for mid in requested if mid in found}

    def update_record(self, record: _M, change: Callable[[_M], _M]) -> tuple[_M, bool]:
        # The record carries its own coordinate, so an update routes
        # deterministically — no cache, no scatter.
        return self._shard_for_key(record.base_version_id).update_record(record, change)

    def iter_models(self) -> Iterator[Model]:
        for shard in self._shards:
            yield from shard.iter_models()

    def models_at(self, project: str, base_version_id: str) -> list[Model]:
        # Model rows live on their base version id's shard, like
        # insert_model put them there: one shard, one indexed statement.
        shard = self._map.shard_for(base_version_id)
        models = self._shards[shard].models_at(project, base_version_id)
        for model in models:
            self._cache_route(self._model_shard, model.model_id, shard)
        return models

    def latest_version(self, model_id: str) -> InstanceVersion:
        return self._on_model_shard(
            model_id, lambda shard: shard.latest_version(model_id)
        )

    def bump_versions(self, models: Sequence[Model]) -> dict[str, InstanceVersion]:
        groups: dict[int, list[Model]] = {}
        for model in models:
            shard = self._map.shard_for(model.base_version_id)
            groups.setdefault(shard, []).append(model)
        bumped: dict[str, InstanceVersion] = {}
        for shard, group in groups.items():
            bumped.update(self._shards[shard].bump_versions(group))
        return bumped

    # -- instances ------------------------------------------------------------

    def insert_instance(self, instance: ModelInstance) -> ModelInstance:
        shard = self._map.shard_for(instance.base_version_id)
        stored = self._shards[shard].insert_instance(instance)
        self._cache_route(self._instance_shard, instance.instance_id, shard)
        return stored

    def insert_instances(self, instances: Sequence[ModelInstance]) -> None:
        """Bulk insert, grouped by owning shard and loaded shard by shard.

        Each shard's group is one atomic transaction; a duplicate anywhere
        aborts that shard's whole group but not the other shards' (the
        cross-shard batch is *not* a distributed transaction).  The first
        shard's error is raised once every group has been tried.
        """
        groups: dict[int, list[ModelInstance]] = {}
        for instance in instances:
            shard = self._map.shard_for(instance.base_version_id)
            groups.setdefault(shard, []).append(instance)
        error: Exception | None = None
        for shard, group in groups.items():
            try:
                self._shards[shard].insert_instances(group)
            except Exception as exc:  # noqa: BLE001 - the other groups still load
                error = error or exc
        if error is not None:
            raise error

    def get_instance(self, instance_id: str) -> ModelInstance:
        return self._instance_home(instance_id)[1]

    def _instance_home(
        self, instance_id: str
    ) -> tuple[SQLiteMetadataStore, ModelInstance]:
        """The shard holding *instance_id*, and the record it holds."""
        cached = self._cached_shard(self._instance_shard, instance_id)
        if cached is not None:
            return cached, cached.get_instance(instance_id)
        for index, shard in enumerate(self._shards):
            try:
                instance = shard.get_instance(instance_id)
            except NotFoundError:
                continue
            self._cache_route(self._instance_shard, instance_id, index)
            return shard, instance
        raise NotFoundError(f"no model instance {instance_id!r}")

    def iter_instances(self) -> Iterator[ModelInstance]:
        for shard in self._shards:
            yield from shard.iter_instances()

    def instances_for_models(
        self, model_ids: Iterable[str]
    ) -> dict[str, list[ModelInstance]]:
        requested = _unique(model_ids)
        out: dict[str, list[ModelInstance]] = {mid: [] for mid in requested}
        if not requested:
            return out
        for shard in self._shards:
            for model_id, instances in shard.instances_for_models(
                requested
            ).items():
                if instances:
                    out[model_id].extend(instances)
        for instances in out.values():
            instances.sort(key=self._instance_sort_key)
        return out

    def find_instances_by_field(
        self,
        field: str | None,
        value: Any = None,
        also: Sequence[tuple[str, Any]] = (),
    ) -> list[ModelInstance]:
        """One shard for ``base_version_id`` (by hash) and for a routed
        ``model_id`` (a model's instances share its coordinate); every
        shard, merged in creation order, otherwise."""
        shard: MetadataStore | None = None
        if field == "base_version_id":
            shard = self._shard_for_key(value)
        elif field == "model_id":
            shard = self._cached_shard(self._model_shard, value)
        if shard is not None:
            return shard.find_instances_by_field(field, value, also)
        merged: list[ModelInstance] = []
        for shard in self._shards:
            merged.extend(shard.find_instances_by_field(field, value, also))
        merged.sort(key=self._instance_sort_key)
        return merged

    # -- metrics --------------------------------------------------------------

    def insert_metric(self, metric: MetricRecord) -> None:
        self._shard_for_key(metric.instance_id).insert_metric(metric)

    def insert_metrics(self, metrics: Sequence[MetricRecord]) -> None:
        """Batch insert; atomic per shard (the registry's metric batches
        target one instance, so the common case is one shard = one txn)."""
        groups: dict[int, list[MetricRecord]] = {}
        for metric in metrics:
            shard = self._map.shard_for(metric.instance_id)
            groups.setdefault(shard, []).append(metric)
        for shard, group in groups.items():
            self._shards[shard].insert_metrics(group)

    def metrics_of_instance(self, instance_id: str) -> list[MetricRecord]:
        return self._shard_for_key(instance_id).metrics_of_instance(instance_id)

    def _route_by_instance(
        self,
        instance_ids: Iterable[str],
        read: Callable[[MetadataStore, list[str]], dict[str, list[Any]]],
    ) -> dict[str, list[Any]]:
        """One *read* per shard holding any of *instance_ids*' metrics or
        lifecycle rows; every requested id maps to a (possibly empty) list."""
        requested = _unique(instance_ids)
        out: dict[str, list[Any]] = {iid: [] for iid in requested}
        groups: dict[int, list[str]] = {}
        for instance_id in requested:
            groups.setdefault(
                self._map.shard_for(instance_id), []
            ).append(instance_id)
        for shard, ids in groups.items():
            out.update(read(self._shards[shard], ids))
        return out

    def metrics_for_instances(
        self, instance_ids: Iterable[str]
    ) -> dict[str, list[MetricRecord]]:
        return self._route_by_instance(
            instance_ids, lambda shard, ids: shard.metrics_for_instances(ids)
        )

    def metric_values_for_instances(
        self, instance_ids: Iterable[str], name: str | None = None
    ) -> dict[str, list[tuple[str, float, str]]]:
        return self._route_by_instance(
            instance_ids,
            lambda shard, ids: shard.metric_values_for_instances(ids, name),
        )

    def iter_metrics(self) -> Iterator[MetricRecord]:
        for shard in self._shards:
            yield from shard.iter_metrics()

    # -- lifecycle --------------------------------------------------------------

    def append_stage_change(self, instance_id: str, change: StageChange) -> bool:
        return self._shard_for_key(instance_id).append_stage_change(instance_id, change)

    def stage_changes_for_instances(
        self, instance_ids: Iterable[str]
    ) -> dict[str, list[StageChange]]:
        return self._route_by_instance(
            instance_ids, lambda shard, ids: shard.stage_changes_for_instances(ids)
        )

    # -- families --------------------------------------------------------------

    def models_in_family(self, family: str) -> list[Model]:
        merged: list[Model] = []
        for shard in self._shards:
            merged.extend(shard.models_in_family(family))
        merged.sort(key=lambda m: (m.created_time, m.model_id))
        return merged

    # -- serving assignments ---------------------------------------------------
    #
    # Routed by ``scope``: the atomic read-modify-write inside the owning
    # shard's ``assign_serving`` is serialized by that one file's database
    # lock, so replicas racing a switch keep single-store semantics.

    def serving_assignment(self, scope: str) -> ServingAssignment:
        return self._shard_for_key(scope).serving_assignment(scope)

    def serving_assignments(self) -> list[ServingAssignment]:
        merged: list[ServingAssignment] = []
        for shard in self._shards:
            merged.extend(shard.serving_assignments())
        merged.sort(key=lambda a: a.scope)
        return merged

    def assign_serving(
        self,
        scope: str,
        instance_id: str,
        *,
        family: str = "",
        now: float = 0.0,
        reason: str = "",
    ) -> tuple[ServingAssignment, bool]:
        owner = self._shard_for_key(scope)
        try:
            home = self._instance_home(instance_id)[0]
        except NotFoundError:
            home = owner
        # The instance row (the review gate) and the scope row may live on
        # two files: both write transactions are held while the gate is
        # read and the scope re-pointed, taken in shard order so that no
        # two such calls can each hold the lock the other waits for.
        with ExitStack() as stack:
            conns = {
                shard: stack.enter_context(shard._transaction())
                for shard in sorted({owner, home}, key=self._shards.index)
            }
            return owner._repoint(
                conns[home], conns[owner], scope, instance_id, family, now, reason
            )

    def serving_assignment_count(self) -> int:
        return sum(
            shard.serving_assignment_count() for shard in self._shards
        )

    # -- misc -----------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for part in self.shard_counts():
            for table, count in part.items():
                total[table] = total.get(table, 0) + count
        return total

    def connection_info(self) -> dict[str, Any]:
        infos = [shard.connection_info() for shard in self._shards]
        return {
            "sharded": True,
            "num_shards": self.num_shards,
            "epoch": self._map.epoch,
            "open_connections": sum(
                info.get("open_connections", 0) for info in infos
            ),
            "shards": infos,
        }

    def close(self) -> None:
        for shard in self._shards:
            shard.close()

    # -- durable control state ------------------------------------------------
    #
    # Routed by natural key so a claim/letter lives on exactly one shard and
    # the cross-replica atomicity argument of the single-file store carries
    # over unchanged.  Capacity trims divide their budget across shards so
    # the configured cap stays a global ceiling.

    def dedup_claim(
        self,
        client_id: str,
        request_id: int,
        *,
        takeover_after: float = 5.0,
        now: float | None = None,
    ) -> tuple[str, bytes | None]:
        return self._shard_for_key(client_id).dedup_claim(
            client_id, request_id, takeover_after=takeover_after, now=now
        )

    def dedup_complete(
        self,
        client_id: str,
        request_id: int,
        response: bytes,
        capacity: int | None = None,
    ) -> None:
        """Only the owning shard can have outgrown its slice of *capacity*,
        so only it is trimmed, in the completing transaction."""
        shard = self._map.shard_for(client_id)
        budget = None if capacity is None else self._split_budget(capacity)[shard]
        self._shards[shard].dedup_complete(client_id, request_id, response, budget)

    def dedup_release(self, client_id: str, request_id: int) -> None:
        self._shard_for_key(client_id).dedup_release(client_id, request_id)

    def dedup_trim(self, capacity: int) -> int:
        """Trim toward a *global* capacity: the budget is divided across
        shards, so the total resident count is bounded by *capacity*."""
        budgets = self._split_budget(capacity)
        return sum(s.dedup_trim(b) for s, b in zip(self._shards, budgets))

    def dedup_trim_age(self, max_age: float, now: float | None = None) -> int:
        return sum(shard.dedup_trim_age(max_age, now) for shard in self._shards)

    def dedup_count(self) -> int:
        return sum(shard.dedup_count() for shard in self._shards)

    @staticmethod
    def _global_letter_id(local_id: int, shard: int) -> int:
        return local_id * SHARD_STRIDE + shard

    @staticmethod
    def _decode_letter_id(letter_id: int) -> tuple[int, int]:
        return letter_id // SHARD_STRIDE, letter_id % SHARD_STRIDE

    def dead_letter_append(
        self, rule_uuid: str, action: str, error_type: str, record: str
    ) -> int:
        shard = self._map.shard_for(rule_uuid)
        local_id = self._shards[shard].dead_letter_append(
            rule_uuid, action, error_type, record
        )
        return self._global_letter_id(local_id, shard)

    def dead_letters_list(
        self,
        *,
        rule_uuid: str | None = None,
        action: str | None = None,
        error_type: str | None = None,
    ) -> list[tuple[int, str]]:
        if rule_uuid is not None:
            shard = self._map.shard_for(rule_uuid)
            parts = {
                shard: self._shards[shard].dead_letters_list(
                    rule_uuid=rule_uuid, action=action, error_type=error_type
                )
            }
        else:
            parts = {
                shard: store.dead_letters_list(
                    action=action, error_type=error_type
                )
                for shard, store in enumerate(self._shards)
            }
        merged = [
            (self._global_letter_id(local_id, shard), record)
            for shard, rows in parts.items()
            for local_id, record in rows
        ]
        # Local ids are per-shard append counters, so ordering by
        # (local_id, shard) — i.e. the global id's decode order —
        # interleaves shards in approximate arrival order.
        merged.sort(key=lambda row: (row[0] // SHARD_STRIDE, row[0]))
        return merged

    def dead_letter_update(
        self, letter_id: int, error_type: str, record: str
    ) -> None:
        local_id, shard = self._decode_letter_id(letter_id)
        self._shards[shard].dead_letter_update(local_id, error_type, record)

    def dead_letters_delete(self, letter_ids: Iterable[int]) -> int:
        groups: dict[int, list[int]] = {}
        for letter_id in letter_ids:
            local_id, shard = self._decode_letter_id(letter_id)
            groups.setdefault(shard, []).append(local_id)
        return sum(
            self._shards[shard].dead_letters_delete(ids)
            for shard, ids in groups.items()
        )

    def dead_letters_trim(self, max_entries: int) -> int:
        """Trim toward a *global* cap: the budget is divided across
        shards, so the total resident count is bounded by *max_entries*."""
        budgets = self._split_budget(max_entries)
        return sum(s.dead_letters_trim(b) for s, b in zip(self._shards, budgets))

    def dead_letters_trim_age(
        self, max_age: float, now: float | None = None
    ) -> int:
        return sum(
            shard.dead_letters_trim_age(max_age, now) for shard in self._shards
        )

    def dead_letters_count(self) -> int:
        return sum(shard.dead_letters_count() for shard in self._shards)


# -- on-disk layout -----------------------------------------------------------


def shard_file(directory: str, shard: int) -> str:
    return os.path.join(directory, f"shard-{shard:04d}.sqlite")


def open_sharded_store(
    directory: str,
    shard_count: int | None = None,
    *,
    create: bool = True,
) -> ShardedMetadataStore:
    """Open (creating if needed) the sharded layout rooted at *directory*.

    A persisted ``shard_map.json`` is authoritative; *shard_count* only
    applies when creating a fresh layout, and conflicts with an existing
    map are an error rather than a silent re-partition.

    ``create=False`` makes this strictly open-only: a missing shard map is
    an error and nothing is written to disk.  Read-only tooling (e.g.
    ``gallery shard status``) must use it — planting an empty ``shards/``
    layout next to a legacy ``gallery.sqlite`` would shadow all existing
    data, because :func:`repro.build_gallery` auto-detects ``shards/``.
    """
    map_path = os.path.join(directory, SHARD_MAP_FILENAME)
    if os.path.exists(map_path):
        shard_map = ShardMap.load(map_path)
        if shard_count is not None and shard_count != shard_map.num_shards:
            raise MetadataStoreError(
                f"layout at {directory!r} has {shard_map.num_shards} shards;"
                f" refusing to open as {shard_count}"
                " (use 'gallery shard split' to rebalance)"
            )
    elif not create:
        raise MetadataStoreError(
            f"no sharded layout at {directory!r}"
            f" (missing {SHARD_MAP_FILENAME}; run 'gallery shard init' first)"
        )
    else:
        os.makedirs(directory, exist_ok=True)
        shard_map = ShardMap.uniform(shard_count or 1)
        shard_map.save(map_path)
    shards = [
        SQLiteMetadataStore(shard_file(directory, i))
        for i in range(shard_map.num_shards)
    ]
    return ShardedMetadataStore(shards, shard_map, directory=directory)


# -- offline rebalance tooling ------------------------------------------------
#
# The split/adopt tools below operate directly on closed SQLite files with
# raw connections (this module *is* repro.store, the one place the TID251
# ban permits sqlite3.connect).  Protocol for ``split_shard``:
#
#   1. copy the moving rows into the new shard file (INSERT OR REPLACE,
#      so a crashed attempt is safely re-runnable);
#   2. verify the copy row-for-row;
#   3. atomically install the new shard map (readers cut over here);
#   4. delete the moved rows from the source shard.
#
# A crash between 3 and 4 leaves stale copies on the source shard that
# routed reads never see; ``verify_layout`` detects them and
# ``split_shard``'s final sweep (or a re-run of ``gallery shard verify
# --repair``) removes them.

#: (table, primary-key columns, routing-key extractor over a column dict).
_TABLE_SPECS: tuple[
    tuple[str, tuple[str, ...], Callable[[dict[str, Any]], str]], ...
] = (
    (
        "models",
        ("model_id",),
        lambda row: str(json.loads(row["record"])["base_version_id"]),
    ),
    ("instances", ("instance_id",), lambda row: str(row["base_version_id"])),
    ("metrics", ("metric_id",), lambda row: str(row["instance_id"])),
    (
        "dedup_entries",
        ("client_id", "request_id"),
        lambda row: str(row["client_id"]),
    ),
    ("dead_letters", ("letter_id",), lambda row: str(row["rule_uuid"])),
    ("serving_assignments", ("scope",), lambda row: str(row["scope"])),
    (
        "lifecycle_transitions",
        ("instance_id", "seq"),
        lambda row: str(row["instance_id"]),
    ),
)


def _has_table(conn: sqlite3.Connection, table: str) -> bool:
    """Legacy databases may predate newer tables (e.g. serving_assignments);
    the offline tools treat a missing table as an empty one."""
    row = conn.execute(
        "SELECT COUNT(*) FROM sqlite_master WHERE type = 'table' AND name = ?",
        (table,),
    ).fetchone()
    return bool(row[0])


def _table_rows(
    conn: sqlite3.Connection, table: str
) -> tuple[list[str], Iterator[tuple]]:
    cursor = conn.execute(f"SELECT * FROM {table}")  # noqa: S608
    columns = [d[0] for d in cursor.description]

    def rows() -> Iterator[tuple]:
        while True:
            batch = cursor.fetchmany(2000)
            if not batch:
                return
            yield from batch

    return columns, rows()


def _migrate_rows(
    src: sqlite3.Connection,
    dst: sqlite3.Connection | None,
    predicate: Callable[[str], bool],
    *,
    delete: bool,
) -> dict[str, int]:
    """Copy (and optionally delete) every row whose routing key satisfies
    *predicate* from *src* into *dst*; returns per-table moved counts."""
    moved: dict[str, int] = {}
    for table, pk_cols, key_fn in _TABLE_SPECS:
        if not _has_table(src, table):
            moved[table] = 0
            continue
        columns, rows = _table_rows(src, table)
        placeholders = ",".join("?" * len(columns))
        insert_sql = (
            f"INSERT OR REPLACE INTO {table}"  # noqa: S608
            f" ({','.join(columns)}) VALUES ({placeholders})"
        )
        delete_sql = (
            f"DELETE FROM {table} WHERE "  # noqa: S608
            + " AND ".join(f"{c} = ?" for c in pk_cols)
        )
        pk_index = [columns.index(c) for c in pk_cols]
        moving: list[tuple] = []
        for row in rows:
            if predicate(key_fn(dict(zip(columns, row)))):
                moving.append(row)
        if dst is not None and moving:
            dst.executemany(insert_sql, moving)
            dst.commit()
        if delete and moving:
            src.executemany(
                delete_sql, [tuple(row[i] for i in pk_index) for row in moving]
            )
            src.commit()
        moved[table] = len(moving)
    return moved


def _upgrade_schema(path: str) -> None:
    """Run the store's schema migration on a closed file, keeping its
    journal mode (a serialized store never switches a file to WAL)."""
    SQLiteMetadataStore(path, serialized=True).close()


def _count_misplaced(
    conn: sqlite3.Connection, shard: int, shard_map: ShardMap
) -> dict[str, int]:
    misplaced: dict[str, int] = {}
    for table, _pk, key_fn in _TABLE_SPECS:
        if not _has_table(conn, table):
            continue
        columns, rows = _table_rows(conn, table)
        bad = 0
        for row in rows:
            key = key_fn(dict(zip(columns, row)))
            if shard_map.shard_for(key) != shard:
                bad += 1
        if bad:
            misplaced[table] = bad
    return misplaced


def split_shard(directory: str, shard: int) -> dict[str, Any]:
    """Offline rebalance: halve *shard*'s hash range into a new shard.

    Must run with no store open over *directory*.  Returns a report with
    per-table moved-row counts; raises if post-copy verification fails
    (in which case the old map stays installed and nothing is lost).
    """
    map_path = os.path.join(directory, SHARD_MAP_FILENAME)
    old_map = ShardMap.load(map_path)
    new_map = old_map.split(shard)
    new_shard = old_map.num_shards
    moving_range = new_map.range_of(new_shard)

    def moves(key: str) -> bool:
        return coordinate_hash(key) in moving_range

    # Ensure both files hold the current schema: rows are copied with
    # ``SELECT *``, so a source that predates a promoted column would land
    # its rows with that column NULL.
    _upgrade_schema(shard_file(directory, shard))
    SQLiteMetadataStore(shard_file(directory, new_shard)).close()

    src = sqlite3.connect(shard_file(directory, shard))
    dst = sqlite3.connect(shard_file(directory, new_shard))
    try:
        # Phase 1: copy (re-runnable thanks to INSERT OR REPLACE).
        moved = _migrate_rows(src, dst, moves, delete=False)
        # Phase 2: verify the destination holds every moving row.
        landed = {
            table: int(dst.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0])  # noqa: S608
            for table, _pk, _key in _TABLE_SPECS
        }
        for table, expected in moved.items():
            if landed[table] < expected:
                raise MetadataStoreError(
                    f"split verification failed for {table}:"
                    f" copied {expected}, found {landed[table]}"
                )
        # Phase 3: install the new map — the cut-over point.
        new_map.save(map_path)
        # Phase 4: drop the moved rows from the source shard.
        _migrate_rows(src, None, moves, delete=True)
    finally:
        src.close()
        dst.close()
    return {
        "shard": shard,
        "new_shard": new_shard,
        "epoch": new_map.epoch,
        "num_shards": new_map.num_shards,
        "moved": moved,
    }


def init_sharded_layout(
    directory: str, shard_count: int, legacy_db: str | None = None
) -> dict[str, Any]:
    """Create a sharded layout, optionally adopting a legacy single file.

    Rows from *legacy_db* are redistributed into the new shard files by
    routing key.  The legacy file keeps its rows (the caller renames or
    removes it once satisfied); only its schema is brought current first,
    so every copied model row carries its coordinate columns.
    """
    os.makedirs(directory, exist_ok=True)
    map_path = os.path.join(directory, SHARD_MAP_FILENAME)
    if os.path.exists(map_path):
        raise MetadataStoreError(
            f"{directory!r} already holds a sharded layout"
        )
    shard_map = ShardMap.uniform(shard_count)
    adopted: dict[str, int] = {}
    for index in range(shard_count):
        SQLiteMetadataStore(shard_file(directory, index)).close()
    if legacy_db is not None and os.path.exists(legacy_db):
        _upgrade_schema(legacy_db)
        src = sqlite3.connect(legacy_db)
        try:
            for index in range(shard_count):
                target = shard_map.range_of(index)
                dst = sqlite3.connect(shard_file(directory, index))
                try:
                    part = _migrate_rows(
                        src,
                        dst,
                        lambda key, rng=target: coordinate_hash(key) in rng,
                        delete=False,
                    )
                finally:
                    dst.close()
                for table, count in part.items():
                    adopted[table] = adopted.get(table, 0) + count
        finally:
            src.close()
    shard_map.save(map_path)
    return {
        "num_shards": shard_count,
        "epoch": shard_map.epoch,
        "adopted": adopted,
    }


def verify_layout(directory: str, *, repair: bool = False) -> dict[str, Any]:
    """Check every resident row routes to its shard under the current map.

    With ``repair=True``, misplaced rows (e.g. stale copies left by a crash
    between a split's map install and its source sweep) are deleted from
    the shard that should not hold them — the owning shard's copy is the
    authoritative one by protocol order.
    """
    shard_map = ShardMap.load(os.path.join(directory, SHARD_MAP_FILENAME))
    misplaced: dict[int, dict[str, int]] = {}
    for index in range(shard_map.num_shards):
        conn = sqlite3.connect(shard_file(directory, index))
        try:
            bad = _count_misplaced(conn, index, shard_map)
            if bad and repair:
                _migrate_rows(
                    conn,
                    None,
                    lambda key, i=index: shard_map.shard_for(key) != i,
                    delete=True,
                )
            if bad:
                misplaced[index] = bad
        finally:
            conn.close()
    return {
        "num_shards": shard_map.num_shards,
        "epoch": shard_map.epoch,
        "misplaced": misplaced,
        "ok": not misplaced,
        "repaired": bool(misplaced) and repair,
    }
