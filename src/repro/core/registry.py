"""The Gallery registry: the system facade (Sections 3 and 4.1).

:class:`Gallery` ties every subsystem together behind the API surface shown
in the paper's Listings 3–5:

* ``create_model`` / ``upload_model`` — register a model and upload trained
  instances (blob + metadata) under a base version id;
* ``insert_metric`` — record performance measurements;
* ``model_query`` — constraint search over metadata and metrics;
* ``load_instance_blob`` — fetch the serialized model for serving;
* dependency registration and automatic version propagation;
* deprecation flags (never deletion) and lifecycle-stage tracking;
* an event bus that the orchestration rule engine subscribes to.

The registry also implements the rule engine's ``CandidateSource`` protocol,
so a :class:`repro.rules.engine.RuleEngine` can be pointed directly at it.
"""

from __future__ import annotations

import threading

from dataclasses import replace
from typing import Any, Iterable, Mapping, Sequence

from repro.core.clock import Clock, SYSTEM_CLOCK
from repro.core.dependencies import DependencyGraph, PropagationEvent
from repro.core.health import DriftDetector, HealthReport, health_report
from repro.core.ids import IdFactory, random_uuid
from repro.core.lifecycle import LifecycleStage, StageChange, can_transition
from repro.core.records import (
    MetricRecord,
    MetricScope,
    Model,
    ModelInstance,
    ServingAssignment,
)
from repro.core.search import ConstraintSet, Constraint, flatten_instance_document
from repro.core.versioning import InstanceVersion
from repro.errors import (
    DeprecatedModelError,
    DuplicateError,
    LifecycleError,
    MetadataStoreError,
    NotFoundError,
    ValidationError,
)
from repro.rules.engine import CandidateDocument
from repro.rules.events import Event, EventBus, EventKind
from repro.store.cache import DocumentCache
from repro.store.dal import DataAccessLayer

#: Environment -> preferred metric scope when assembling rule contexts.
_ENVIRONMENT_SCOPE = {
    "production": MetricScope.PRODUCTION,
    "staging": MetricScope.VALIDATION,
    "validation": MetricScope.VALIDATION,
    "training": MetricScope.TRAINING,
}


def _with_pointer(pointers: str, model_id: str):
    """A store update adding *model_id* to a model's *pointers* once."""

    def change(model: Model) -> Model:
        present = getattr(model, pointers)
        if model_id in present:
            return model
        return replace(model, **{pointers: present + (model_id,)})

    return change


def _recency(record: MetricRecord) -> tuple[float, str]:
    """The one metric order: oldest first, ``metric_id`` breaking ties."""
    return (record.created_time, record.metric_id)


def _history(
    records: Iterable[MetricRecord], name: str, scope: MetricScope | None
) -> list[MetricRecord]:
    """The *name* metrics in *scope* (any when None), oldest first."""
    history = [
        r for r in records if r.name == name and (scope is None or r.scope is scope)
    ]
    history.sort(key=_recency)
    return history


def _latest_metrics(
    records: Iterable[MetricRecord], preferred_scope: MetricScope | None
) -> dict[str, float]:
    """Each metric name's latest value, in :func:`_history`'s order.

    A name measured in *preferred_scope* takes its latest value there;
    any other name falls back to its latest value in any scope.
    """
    ordered = sorted(records, key=_recency)
    latest = {record.name: record.value for record in ordered}
    if preferred_scope is not None:
        latest.update(
            {r.name: r.value for r in ordered if r.scope is preferred_scope}
        )
    return latest


class Gallery:
    """The model lifecycle management system."""

    def __init__(
        self,
        dal: DataAccessLayer,
        clock: Clock | None = None,
        id_factory: IdFactory | None = None,
        bus: EventBus | None = None,
    ) -> None:
        self._dal = dal
        self._clock = clock or SYSTEM_CLOCK
        self._new_id = id_factory or random_uuid
        #: The store answers every read and decides every write, so replicas
        #: need no state and no lock but this one: an edge spans two shards,
        #: so no store transaction can decide whether it closes a cycle.
        self._edge_lock = threading.Lock()
        #: read-through cache of flattened model+instance search documents;
        #: invalidated whenever a store update reports that it changed a
        #: model or instance record.
        self._documents = DocumentCache()
        #: queries answered from stale cache snapshots during store outages
        self._stale_query_count = 0
        self.bus = bus or EventBus()

    @property
    def dal(self) -> DataAccessLayer:
        return self._dal

    def _publish(self, kind: EventKind, at: float | None = None, **fields: Any) -> None:
        """Announce a change the store committed, at *at* (default: now)."""
        at = self._clock.now() if at is None else at
        self.bus.publish(Event(kind=kind, timestamp=at, **fields))

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------

    def create_model(
        self,
        project: str,
        base_version_id: str,
        owner: str = "",
        description: str = "",
        metadata: Mapping[str, Any] | None = None,
        upstream_model_ids: Sequence[str] = (),
        model_id: str | None = None,
        family: str = "",
    ) -> Model:
        """Register a new model under a base version id (Listing 3).

        Dependencies named in *upstream_model_ids* are wired at registration
        time without version bumps (Section 3.4.2 / Figure 5).  *family*
        groups interchangeable models (e.g. ``"{feature_set}_{loss}"``) so
        serving assignments can be re-pointed within the group; instances
        inherit it unless they override it at upload time.
        """
        upstream_model_ids = tuple(upstream_model_ids)
        found = self._dal.metadata.get_models(upstream_model_ids) if upstream_model_ids else {}
        if len(found) != len(set(upstream_model_ids)):
            raise NotFoundError(f"not every upstream in {upstream_model_ids!r} is registered")
        if len(found) != len(upstream_model_ids):
            raise DuplicateError(f"repeated upstream model in {upstream_model_ids!r}")
        model = Model(
            model_id=model_id or self._new_id(),
            project=project,
            base_version_id=base_version_id,
            owner=owner,
            description=description,
            created_time=self._clock.now(),
            upstream_model_ids=upstream_model_ids,
            family=family,
            metadata=dict(metadata) if metadata else {},
        )
        self._dal.metadata.insert_model(model)  # refuses a taken coordinate
        for upstream in found.values():
            self._mirror_dependency_pointers(model, upstream)
        self._publish(EventKind.MODEL_CREATED, model_id=model.model_id)
        return model

    def get_model(self, model_id: str) -> Model:
        return self._dal.metadata.get_model(model_id)

    def find_model(self, project: str, base_version_id: str) -> Model:
        """Resolve a model by its human-meaningful coordinates.

        Evolution chains share coordinates; the head of the chain (the
        record without a next pointer, the newest if a crash left two)
        owns the lookup.
        """
        chain = self._dal.metadata.models_at(project, base_version_id)
        if not chain:
            raise NotFoundError(
                f"no model for project {project!r}, base {base_version_id!r}"
            )
        return next((m for m in reversed(chain) if m.next_model_id is None), chain[0])

    def models(self, include_deprecated: bool = False) -> list[Model]:
        return [
            m
            for m in self._dal.metadata.iter_models()
            if include_deprecated or not m.deprecated
        ]

    def evolve_model(
        self,
        old_model_id: str,
        description: str = "",
        metadata: Mapping[str, Any] | None = None,
        model_id: str | None = None,
    ) -> Model:
        """Register the successor of a redesigned model (Section 3.3.1).

        The successor shares the project and the base version id; the
        evolution is tracked via previous/next pointers, and the store gives
        the successor its predecessor's latest version with the major bumped
        (a model-level change).  It inherits the upstream dependencies and
        starts with no downstream models.
        """
        old = self.get_model(old_model_id)
        new_id = model_id or self._new_id()
        successor = old.evolved(
            new_id,
            description=description or old.description,
            created_time=self._clock.now(),
            metadata=dict(metadata) if metadata else dict(old.metadata),
            deprecated=False,
            downstream_model_ids=(),
        )
        # claims old's next pointer, refused if another successor has it
        self._dal.metadata.insert_model(successor)
        self._documents.invalidate_model(old_model_id)
        upstreams = self._dal.metadata.get_models(successor.upstream_model_ids)
        for upstream in upstreams.values():
            self._mirror_dependency_pointers(successor, upstream)
        self._publish(EventKind.MODEL_CREATED, model_id=new_id)
        return successor

    def deprecate_model(self, model_id: str) -> Model:
        """Flag a model (and none of its data) as deprecated (Section 3.7)."""
        model, changed = self._dal.metadata.update_record(
            self.get_model(model_id), Model.deprecate
        )
        if changed:
            self._documents.invalidate_model(model_id)
        return model

    # ------------------------------------------------------------------
    # Dependencies (Section 3.4.2)
    # ------------------------------------------------------------------

    def add_dependency(
        self, downstream_id: str, upstream_id: str
    ) -> list[PropagationEvent]:
        """Add a dependency to a live model; propagates version bumps.

        Adding a dependency is itself a model change (Figure 7): the
        downstream model and everything below it take a minor bump.
        """
        with self._edge_lock:
            found = self._dal.metadata.get_models([downstream_id, upstream_id])
            wave, members = self._wave(found.get(downstream_id), found.values())
            # unknown model, self-dependency, duplicate and cycle all raise here
            events = wave.add_dependency(downstream_id, upstream_id)
            self._mirror_dependency_pointers(found[downstream_id], found[upstream_id])
        return self._persist(events, members)

    def _closure(self, model: Model, pointers: str) -> dict[str, Model]:
        """Every model reachable from *model* along its persisted *pointers*
        (``upstream_model_ids`` or ``downstream_model_ids``), one batched
        read per level; pointers to missing models are skipped."""
        closure: dict[str, Model] = {}
        frontier = set(getattr(model, pointers))
        while frontier:
            found = self._dal.metadata.get_models(sorted(frontier))
            closure.update(found)
            frontier = {mid for m in found.values() for mid in getattr(m, pointers)}
            frontier -= closure.keys() | {model.model_id}
        return closure

    def _wave(
        self, root: Model | None, extra: Iterable[Model] = ()
    ) -> tuple[DependencyGraph, dict[str, Model]]:
        """A transient graph over *root*, its downstream closure and *extra*,
        wired from their persisted pointers: what one propagation touches."""
        members = {model.model_id: model for model in extra}
        if root is not None:
            members[root.model_id] = root
            members.update(self._closure(root, "downstream_model_ids"))
        wave = DependencyGraph()
        for model_id in members:
            wave.add_model(model_id)
        for model in members.values():
            for downstream_id in model.downstream_model_ids:
                if downstream_id in members:
                    wave.add_dependency(downstream_id, model.model_id, bump=False)
        return wave, members

    def _persist(
        self, events: Sequence[PropagationEvent], members: Mapping[str, Model]
    ) -> list[PropagationEvent]:
        """Apply a wave's bumps in the store; the returned events, still in
        topological order, carry the versions the store assigned."""
        bumped = self._dal.metadata.bump_versions([members[e.model_id] for e in events])
        return [
            replace(event, old_version=InstanceVersion(v.major, v.minor - 1), new_version=v)
            for event in events
            if (v := bumped.get(event.model_id)) is not None
        ]

    def latest_version(self, model_id: str) -> InstanceVersion:
        """A model's latest ``major.minor`` version (Figures 5–7)."""
        return self._dal.metadata.latest_version(model_id)

    def upstream(self, model_id: str, transitive: bool = False) -> set[str]:
        """Models that *model_id* depends on."""
        return self._neighbours(model_id, "upstream_model_ids", transitive)

    def downstream(self, model_id: str, transitive: bool = False) -> set[str]:
        """Models that depend on *model_id*."""
        return self._neighbours(model_id, "downstream_model_ids", transitive)

    def _neighbours(self, model_id: str, pointers: str, transitive: bool) -> set[str]:
        model = self.get_model(model_id)
        return set(self._closure(model, pointers) if transitive else getattr(model, pointers))

    def _mirror_dependency_pointers(self, down: Model, up: Model) -> None:
        """Persist an edge on both model records: two idempotent appends,
        each decided in its own store transaction."""
        for model, pointers, other in (
            (down, "upstream_model_ids", up.model_id),
            (up, "downstream_model_ids", down.model_id),
        ):
            _, changed = self._dal.metadata.update_record(
                model, _with_pointer(pointers, other)
            )
            if changed:
                self._documents.invalidate_model(model.model_id)

    # ------------------------------------------------------------------
    # Model instances (Listing 3)
    # ------------------------------------------------------------------

    def upload_model(
        self,
        project: str,
        base_version_id: str,
        blob: bytes,
        metadata: Mapping[str, Any] | None = None,
        parent_instance_id: str | None = None,
        instance_id: str | None = None,
        initial_stage: LifecycleStage | str = LifecycleStage.EVALUATION,
        family: str | None = None,
        enabled: bool = True,
    ) -> ModelInstance:
        """Upload a trained model instance (the paper's ``uploadModel``).

        The blob is written first; only after it is durably stored is the
        instance metadata inserted (Section 3.5), in the same transaction as
        the owning model's minor bump that versions it.  Every model
        downstream then takes a propagated minor bump, and an
        INSTANCE_CREATED event fires for the rule engine.

        The instance inherits the owning model's *family* unless overridden.
        Auto-registration pipelines pass ``enabled=False`` so a human or rule
        must flip the review gate before the instance can win a serving
        assignment (Section 4.2's training workflow).
        """
        stage = LifecycleStage.parse(initial_stage)
        model = self.find_model(project, base_version_id)
        # before the blob goes out; the insert refuses a deprecation or an
        # evolution that lands after this read
        if model.deprecated:
            raise DeprecatedModelError(
                f"model {model.model_id!r} is deprecated; register a new model"
            )
        if parent_instance_id is not None:
            self.get_instance(parent_instance_id)  # must exist
        created = self._clock.now()
        instance = ModelInstance(
            instance_id=instance_id or self._new_id(),
            model_id=model.model_id,
            base_version_id=base_version_id,
            parent_instance_id=parent_instance_id,
            created_time=created,
            metadata=dict(metadata) if metadata else {},
            family=model.family if family is None else family,
            enabled=enabled,
        )
        stored = self._dal.save_instance(instance, blob)
        if model.downstream_model_ids:
            wave, members = self._wave(model)
            # the model's own (first) bump already committed with the insert
            self._persist(wave.record_instance_update(model.model_id)[1:], members)
        if stage is not LifecycleStage.EVALUATION:
            self._dal.metadata.append_stage_change(
                stored.instance_id, StageChange(created, None, stage, "registered")
            )
        self._publish(
            EventKind.INSTANCE_CREATED,
            created,
            model_id=model.model_id,
            instance_id=stored.instance_id,
        )
        return stored

    def get_instance(self, instance_id: str) -> ModelInstance:
        return self._dal.metadata.get_instance(instance_id)

    def load_instance_blob(self, instance_id: str) -> bytes:
        """Fetch the serialized model for serving (cache-assisted)."""
        return self._dal.load_blob(instance_id)

    def load_instance_blob_payload(self, instance_id: str):
        """Serving-path blob fetch: bytes, or a zero-copy file region.

        Used by the network service so file-backed blobs can leave via
        ``os.sendfile``; see :meth:`DataAccessLayer.load_blob_payload`.
        """
        return self._dal.load_blob_payload(instance_id)

    def load_instance_blob_range(self, instance_id: str, offset: int, length: int):
        """Digest-carrying sub-range read of an instance's blob."""
        return self._dal.load_blob_range(instance_id, offset, length)

    def instances_of(
        self, base_version_id: str, include_deprecated: bool = False
    ) -> list[ModelInstance]:
        """All instances of a base version id, oldest first (Figure 4).

        With *include_deprecated* this is the base version's lineage.
        """
        instances = self._dal.metadata.find_instances_by_field(
            "base_version_id", base_version_id
        )
        instances.sort(key=lambda i: (i.created_time, i.instance_id))
        if include_deprecated:
            return instances
        return [i for i in instances if not i.deprecated]

    def latest_instance(self, base_version_id: str) -> ModelInstance:
        instances = self.instances_of(base_version_id)
        if not instances:
            raise NotFoundError(
                f"no live instances for base version {base_version_id!r}"
            )
        return instances[-1]

    def ancestors(self, instance_id: str) -> list[str]:
        """Walk parent pointers from *instance_id* back to its lineage root.

        A parent in another base version's lineage (model evolution across
        redesigns) is the last one listed; a parent no longer stored ends
        the walk, and so does a stored cycle.
        """
        instance = self.get_instance(instance_id)
        out: list[str] = []
        parent_id = instance.parent_instance_id
        while parent_id is not None and parent_id not in out:
            try:
                parent = self.get_instance(parent_id)
            except NotFoundError:
                break
            out.append(parent_id)
            if parent.base_version_id != instance.base_version_id:
                break
            parent_id = parent.parent_instance_id
        return out

    def stage_history(self, instance_id: str) -> list[StageChange]:
        """An instance's lifecycle transitions, oldest first (Figure 1).

        A default upload records nothing: an instance without a recorded
        registration entered at EVALUATION, or, with no transitions at all,
        at DEPRECATED if its record is (data older than the table).
        """
        instance = self.get_instance(instance_id)
        stored = self._dal.metadata.stage_changes_for_instances([instance_id])
        history = stored[instance_id]
        if not history or history[0].from_stage is not None:
            dead = instance.deprecated and not history
            entered = LifecycleStage.DEPRECATED if dead else LifecycleStage.EVALUATION
            history.insert(0, StageChange(instance.created_time, None, entered, "registered"))
        return history

    def stage_of(self, instance_id: str) -> LifecycleStage:
        return self.stage_history(instance_id)[-1].to_stage

    def mark_deployed(self, instance_id: str, reason: str = "deployed") -> None:
        """Advance an instance's lifecycle stage to DEPLOYED (Figure 1).

        Typically invoked from a ``deploy`` callback action, so the rule
        engine is what moves models between stages (Section 3.1's
        automation principle).
        """
        current, target = self.stage_of(instance_id), LifecycleStage.DEPLOYED
        stuck = self._move_stage(instance_id, current, target, reason)
        if stuck is not None:
            raise LifecycleError(
                f"illegal lifecycle transition for {instance_id!r}: "
                f"{stuck.value} -> {target.value}"
            )

    def _move_stage(
        self,
        instance_id: str,
        current: LifecycleStage,
        target: LifecycleStage,
        why: str,
    ) -> LifecycleStage | None:
        """Record *current* -> *target*: None once recorded, else the stage
        that cannot move there.  The store refuses an append from a stage
        a peer already left, so that move is read and decided on again."""
        while can_transition(current, target):
            change = StageChange(self._clock.now(), current, target, why)
            if self._dal.metadata.append_stage_change(instance_id, change):
                return None
            current = self.stage_of(instance_id)
        return current

    def deprecate_instance(self, instance_id: str) -> ModelInstance:
        """Flag an instance as deprecated; it stays fetchable by id."""
        # Read before flagging: a flagged instance without transitions reads
        # as DEPRECATED already.
        current = self.stage_of(instance_id)
        instance, changed = self._dal.metadata.update_record(
            self.get_instance(instance_id), ModelInstance.deprecate
        )
        if not changed:
            return instance
        self._documents.invalidate_instance(instance_id)
        self._move_stage(
            instance_id, current, LifecycleStage.DEPRECATED, "deprecated via registry"
        )
        self._publish(
            EventKind.INSTANCE_DEPRECATED,
            model_id=instance.model_id,
            instance_id=instance_id,
        )
        return instance

    # ------------------------------------------------------------------
    # Families & serving assignments (Section 4.2)
    # ------------------------------------------------------------------

    def enable_instance(self, instance_id: str) -> ModelInstance:
        """Pass an instance through the review gate (Section 4.2).

        Only enabled instances may win serving assignments; the flip is
        persisted on the record and the search-document cache entry is
        invalidated so queries constraining on ``enabled`` see it at once.
        """
        return self._set_enablement(instance_id, True)

    def disable_instance(self, instance_id: str) -> ModelInstance:
        """Pull an instance back behind the review gate.

        Disabling does not tear down an existing assignment that points at
        the instance (serving keeps working while humans investigate), but
        the instance can no longer *win* new assignments or family switches.
        """
        return self._set_enablement(instance_id, False)

    def _set_enablement(self, instance_id: str, enabled: bool) -> ModelInstance:
        instance, changed = self._dal.metadata.update_record(
            self.get_instance(instance_id),
            lambda stored: stored.with_enablement(enabled),
        )
        if not changed:
            return instance
        self._documents.invalidate_instance(instance_id)
        self._publish(
            EventKind.INSTANCE_ENABLEMENT,
            model_id=instance.model_id,
            instance_id=instance_id,
            payload={"enabled": enabled},
        )
        return instance

    def models_in_family(self, family: str, include_deprecated: bool = False) -> list[Model]:
        """All models grouped under *family*, oldest first."""
        models = self._dal.metadata.models_in_family(family)
        if include_deprecated:
            return models
        return [m for m in models if not m.deprecated]

    def instances_in_family(
        self,
        family: str,
        include_disabled: bool = False,
        include_deprecated: bool = False,
    ) -> list[ModelInstance]:
        """Instances grouped under *family*, oldest first.

        By default only the *servable* ones: enabled and not deprecated —
        the candidate pool a family switch selects from.
        """
        instances = self._dal.metadata.find_instances_by_field("family", family)
        return [
            i
            for i in instances
            if (include_disabled or i.enabled)
            and (include_deprecated or not i.deprecated)
        ]

    def serving_for(self, scope: str) -> ServingAssignment:
        """The durable "what is serving now" row for *scope*.

        Always a live store read (never cached, never process memory):
        replicas over a shared store must observe a peer's switch on their
        very next call, without restart.
        """
        return self._dal.serving_assignment(scope)

    def serving_assignments(self) -> list[ServingAssignment]:
        """Every scope's current assignment, sorted by scope."""
        return self._dal.metadata.serving_assignments()

    def assign_serving(
        self, scope: str, instance_id: str, reason: str = ""
    ) -> ServingAssignment:
        """Atomically re-point *scope*'s serving assignment (enablement-gated).

        The target must exist, be enabled, and not be deprecated — the
        store checks the gate in the re-point's own transaction, so no rule
        action or wire client can route traffic at an unreviewed instance.
        Re-assigning the current instance is a no-op (the switch count does
        not move).
        """
        instance = self.get_instance(instance_id)
        assignment, switched = self._dal.metadata.assign_serving(
            scope,
            instance_id,
            family=instance.family,
            now=self._clock.now(),
            reason=reason,
        )
        self._documents.invalidate_instance(instance_id)
        # The stored row cannot distinguish a replayed no-op from the switch
        # that created it (previous_instance_id keeps pointing at the old
        # instance), so "did this call change anything" comes from the
        # store's transaction: a read before it would race other replicas.
        if switched:
            self._publish(
                EventKind.SERVING_SWITCHED,
                assignment.assigned_time,
                model_id=instance.model_id,
                instance_id=instance_id,
                payload={
                    "scope": scope,
                    "family": assignment.family,
                    "previous_instance_id": assignment.previous_instance_id,
                    "reason": reason,
                    "switch_count": assignment.switch_count,
                },
            )
        return assignment

    def best_in_family(
        self,
        family: str,
        metric: str | None = None,
        mode: str = "min",
        scope: MetricScope | str | None = None,
    ) -> ModelInstance:
        """The servable instance of *family* a switch should route to.

        With a *metric* name, candidates are ranked by their latest value
        (``mode="min"`` for losses like MAPE, ``"max"`` for scores);
        candidates that never reported the metric lose to any that did.
        Without one, the newest servable instance wins.
        """
        candidates = self.instances_in_family(family)
        if not candidates:
            raise NotFoundError(f"family {family!r} has no servable instances")
        if metric is None:
            return candidates[-1]
        if mode not in ("min", "max"):
            raise ValidationError(f"mode must be 'min' or 'max', got {mode!r}")
        if scope is not None:
            scope = MetricScope.parse(scope)
        metrics = self._dal.metadata.metrics_for_instances(
            [instance.instance_id for instance in candidates]
        )
        histories = [
            (instance, _history(metrics[instance.instance_id], metric, scope))
            for instance in candidates
        ]
        measured = [(i, history[-1].value) for i, history in histories if history]
        if not measured:
            return candidates[-1]
        pick = min if mode == "min" else max
        return pick(measured, key=lambda pair: pair[1])[0]

    def switch_family(
        self,
        scope: str,
        family: str,
        metric: str | None = None,
        mode: str = "min",
        reason: str = "",
    ) -> ServingAssignment:
        """Re-point *scope* at the best servable instance of *family*.

        The pick is a read; the re-point is one store transaction that
        decides on the row it reads, so racing switches across replicas
        cannot interleave into a half-applied state (the later one wins,
        and a re-point to the serving instance is a no-op).
        """
        best = self.best_in_family(family, metric=metric, mode=mode)
        return self.assign_serving(
            scope, best.instance_id, reason=reason or f"switch_family:{family}"
        )

    # ------------------------------------------------------------------
    # Metrics (Listing 4)
    # ------------------------------------------------------------------

    def insert_metric(
        self,
        instance_id: str,
        name: str,
        value: float,
        scope: MetricScope | str = MetricScope.VALIDATION,
        metadata: Mapping[str, Any] | None = None,
    ) -> MetricRecord:
        """Record one performance measurement for an instance."""
        self.get_instance(instance_id)  # must exist
        metric = MetricRecord(
            metric_id=self._new_id(),
            instance_id=instance_id,
            name=name,
            value=value,
            scope=scope,
            created_time=self._clock.now(),
            metadata=dict(metadata) if metadata else {},
        )
        self._dal.metadata.insert_metric(metric)
        self._publish_metrics([metric])
        return metric

    def insert_metrics(
        self,
        instance_id: str,
        values: Mapping[str, float],
        scope: MetricScope | str = MetricScope.VALIDATION,
        metadata: Mapping[str, Any] | None = None,
    ) -> list[MetricRecord]:
        """Record a ``<metric>:<value>`` blob as a batch (Section 3.3.3).

        The whole batch is persisted in one store transaction
        (``executemany`` on the SQLite backend): either every metric lands
        or none does.
        """
        self.get_instance(instance_id)  # must exist
        batch_id = self._new_id()
        merged = dict(metadata) if metadata else {}
        merged["batch_id"] = batch_id
        records = [
            MetricRecord(
                metric_id=self._new_id(),
                instance_id=instance_id,
                name=name,
                value=value,
                scope=scope,
                created_time=self._clock.now(),
                metadata=dict(merged),
            )
            for name, value in values.items()
        ]
        self._dal.metadata.insert_metrics(records)
        self._publish_metrics(records)
        return records

    def _publish_metrics(self, records: Sequence[MetricRecord]) -> None:
        for record in records:
            self._publish(
                EventKind.METRIC_UPDATED,
                record.created_time,
                instance_id=record.instance_id,
                metric_name=record.name,
                payload={"value": record.value, "scope": record.scope.value},
            )

    def metrics_of(self, instance_id: str) -> list[MetricRecord]:
        return self._dal.metadata.metrics_of_instance(instance_id)

    def metrics_for_instances(
        self, instance_ids: Iterable[str]
    ) -> dict[str, list[MetricRecord]]:
        """Batched metric fetch: one store query for many instances."""
        return self._dal.metadata.metrics_for_instances(list(instance_ids))

    def metric_history(
        self,
        instance_id: str,
        name: str,
        scope: MetricScope | str | None = None,
    ) -> list[MetricRecord]:
        """Time-ordered history of one metric for an instance.

        This is the series the health subsystem feeds into drift detection
        (Section 3.6: "how their model behaves over time").
        """
        if scope is not None:
            scope = MetricScope.parse(scope)
        return _history(self.metrics_of(instance_id), name, scope)

    def latest_metric(
        self,
        instance_id: str,
        name: str,
        scope: MetricScope | str | None = None,
    ) -> float | None:
        """Latest value of one metric, or None when never reported."""
        history = self.metric_history(instance_id, name, scope=scope)
        return history[-1].value if history else None

    # ------------------------------------------------------------------
    # Search (Listing 5)
    # ------------------------------------------------------------------

    def model_query(
        self,
        constraints: Iterable[Constraint | Mapping[str, Any]],
        include_deprecated: bool = False,
        allow_stale: bool = True,
    ) -> list[ModelInstance]:
        """Constraint search over instances, metadata, and metrics.

        Candidates come from one store read: an equality on an indexed
        field or routing key narrows through the index, and every other
        equality the store can test is pushed into the same statement as a
        necessary condition (:meth:`ConstraintSet.narrowing_hint`).  Full
        constraint matching then runs on each candidate.

        **Graceful degradation**: when the metadata store is unreachable and
        *allow_stale* is set, the query is answered from the document
        cache's record snapshots instead of throwing.  Degraded results are
        marked with ``metadata["stale"] = True`` and may miss instances the
        cache never saw; queries with metric constraints cannot degrade
        (metric values are not cached) and re-raise the storage error.
        """
        constraint_set = ConstraintSet(constraints)
        try:
            return self._model_query_live(constraint_set, include_deprecated)
        except MetadataStoreError:
            if not allow_stale:
                raise
            stale = self._model_query_stale(constraint_set, include_deprecated)
            if stale is None:
                raise
            self._stale_query_count += 1
            return stale

    def _model_query_live(
        self, constraint_set: ConstraintSet, include_deprecated: bool
    ) -> list[ModelInstance]:
        candidates = self._dal.metadata.find_instances_by_field(
            *constraint_set.narrowing_hint()
        )
        live = [
            instance
            for instance in candidates
            if include_deprecated or not instance.deprecated
        ]
        documents = self._documents_for(live)
        matched = [
            instance
            for instance in live
            if constraint_set.matches_document(documents[instance.instance_id])
        ]
        if constraint_set.metric_constraints and matched:
            # One batched query resolves every surviving candidate's metrics
            # (never one query per candidate — the N+1 the query-counter test
            # guards against).  An EQUAL metricName constraint is pushed down
            # so only relevant rows are fetched, and since the matcher reads
            # only name/value/scope, the store returns those as column
            # values: no metric record is decoded or built.
            metric_values = self._dal.metadata.metric_values_for_instances(
                [instance.instance_id for instance in matched],
                name=constraint_set.metric_name_hint(),
            )
            matched = [
                instance
                for instance in matched
                if constraint_set.matches_metric_values(
                    metric_values.get(instance.instance_id, ())
                )
            ]
        matched.sort(key=lambda i: (i.created_time, i.instance_id))
        return matched

    def _model_query_stale(
        self, constraint_set: ConstraintSet, include_deprecated: bool
    ) -> list[ModelInstance] | None:
        """Serve a query from cached document/record snapshots, or None.

        Metric constraints need live metric rows, so those queries cannot
        be answered from the cache at all — better a loud error than a
        silently wrong champion.
        """
        if constraint_set.metric_constraints:
            return None
        matched: list[ModelInstance] = []
        for _instance_id, document, record in self._documents.snapshot():
            if record is None:
                continue
            if record.deprecated and not include_deprecated:
                continue
            if not constraint_set.matches_document(document):
                continue
            matched.append(
                replace(record, metadata={**record.metadata, "stale": True})
            )
        matched.sort(key=lambda i: (i.created_time, i.instance_id))
        return matched

    @property
    def stale_query_count(self) -> int:
        """How many queries were served degraded from the document cache."""
        return self._stale_query_count

    def _documents_for(
        self, instances: Sequence[ModelInstance]
    ) -> dict[str, dict[str, Any]]:
        """Flattened search documents for a batch, via the document cache.

        A cached document is used only when it was built from a record
        equal to the live candidate, so a peer replica's change to an
        instance (enablement, deprecation) is never matched on a stale
        copy.  The model half stays invalidation-only: the only model
        fields a peer can change are the evolution and dependency pointers,
        since an instance's own ``deprecated`` masks its model's.  Misses
        are resolved with a single batched ``get_models`` call for the
        distinct parent models, then cached per instance.
        """
        documents: dict[str, dict[str, Any]] = {}
        missing: list[ModelInstance] = []
        for instance in instances:
            cached = self._documents.get(instance.instance_id, instance)
            if cached is not None:
                documents[instance.instance_id] = cached
            else:
                missing.append(instance)
        if missing:
            models = self._dal.metadata.get_models(
                {instance.model_id for instance in missing}
            )
            for instance in missing:
                model = models.get(instance.model_id)
                document = flatten_instance_document(
                    instance.to_dict(), model.to_dict() if model else None
                )
                self._documents.put(
                    instance.instance_id, instance.model_id, document, record=instance
                )
                documents[instance.instance_id] = document
        return documents

    def document_cache_stats(self) -> dict[str, Any]:
        """Operational snapshot of the search-document cache."""
        stats = self._documents.stats
        return {
            "entries": len(self._documents),
            "hits": stats.hits,
            "misses": stats.misses,
            "invalidations": stats.invalidations,
            "hit_rate": stats.hit_rate,
            "stale_queries": self._stale_query_count,
        }

    # ------------------------------------------------------------------
    # Rule-engine integration (CandidateSource protocol)
    # ------------------------------------------------------------------

    def candidate_documents(
        self, environment: str, instance_id: str | None = None
    ) -> list[CandidateDocument]:
        """Assemble rule-evaluation contexts (Section 3.7.1).

        Each live instance contributes its flattened document plus a
        ``metrics`` mapping holding the latest value per metric name.  Values
        measured at the scope matching *environment* are preferred; names
        only measured at other scopes fall back to their overall latest value
        (a freshly trained instance has no production metrics yet, but deploy
        rules still need to read its validation metrics).
        """
        if instance_id is not None:
            try:
                instances = [self.get_instance(instance_id)]
            except NotFoundError:
                return []
        else:
            instances = list(self._dal.metadata.iter_instances())
        preferred_scope = _ENVIRONMENT_SCOPE.get(environment.lower())
        live = [instance for instance in instances if not instance.deprecated]
        flattened = self._documents_for(live)
        metrics_map = self._dal.metadata.metrics_for_instances(
            [instance.instance_id for instance in live]
        )
        documents: list[CandidateDocument] = []
        for instance in live:
            document = flattened[instance.instance_id]
            document["metrics"] = _latest_metrics(
                metrics_map.get(instance.instance_id, []), preferred_scope
            )
            documents.append(
                CandidateDocument(instance_id=instance.instance_id, document=document)
            )
        documents.sort(key=lambda d: d.instance_id)
        return documents

    # ------------------------------------------------------------------
    # Health (Section 3.6)
    # ------------------------------------------------------------------

    def instance_health(self, instance_id: str) -> HealthReport:
        instance = self.get_instance(instance_id)
        return health_report(
            instance_id=instance_id,
            metadata=instance.metadata,
            metrics=self.metrics_of(instance_id),
        )

    def drift_detector(self, **kwargs: Any) -> DriftDetector:
        """Convenience constructor so apps need only the registry import."""
        return DriftDetector(**kwargs)
