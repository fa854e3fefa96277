"""Core record types: models, model instances, and performance metrics.

This is the data model of Section 3.3 / Figure 3.  Three record families are
tracked:

* :class:`Model` — the abstract data transformation (Section 2): the problem
  being solved, its owner, and how descendant instances relate to each other
  (evolution pointers) and to other models (dependency pointers).
* :class:`ModelInstance` — a trained realisation of a model: an opaque blob of
  learned parameters plus the metadata needed to reproduce the training run.
* :class:`MetricRecord` — a performance measurement for one instance at one
  lifecycle scope (training / validation / production).

All records are **immutable** (frozen dataclasses): the paper's first design
principle (Section 3.1).  "Updates" are expressed by writing a new record
that points back at its predecessor; helpers such as :meth:`Model.evolved`
produce those successors without mutating the original.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from repro.errors import ValidationError

#: Metadata values are restricted to JSON-representable scalars and shallow
#: containers so every record can round-trip through the wire format.
MetadataValue = Any
Metadata = Mapping[str, MetadataValue]


class MetricScope(str, Enum):
    """Lifecycle stage a metric was measured at (Section 3.6).

    The paper distinguishes training performance (a by-product of fitting),
    validation performance (backtesting, the deploy gate), and production
    performance (measured against served predictions).
    """

    TRAINING = "Training"
    VALIDATION = "Validation"
    PRODUCTION = "Production"

    @classmethod
    def parse(cls, value: "str | MetricScope") -> "MetricScope":
        if isinstance(value, MetricScope):
            return value
        member = _SCOPES_BY_LOWER_NAME.get(str(value).lower())
        if member is None:
            raise ValidationError(f"unknown metric scope: {value!r}")
        return member


_SCOPES_BY_LOWER_NAME = {member.value.lower(): member for member in MetricScope}


@functools.cache
def _known_fields(cls: type) -> frozenset[str]:
    """Field names of a record class — once per class, not once per row:
    ``from_dict`` runs for every row a store read returns."""
    return frozenset(f.name for f in dataclasses.fields(cls))


def _frozen_metadata(metadata: Metadata | None) -> Mapping[str, Any]:
    """Return a defensively-copied, read-only view of *metadata*."""
    if metadata is None:
        return {}
    if not isinstance(metadata, Mapping):
        raise ValidationError(
            f"metadata must be a mapping, got {type(metadata).__name__}"
        )
    for key in metadata:
        if not isinstance(key, str) or not key:
            raise ValidationError(f"metadata keys must be non-empty strings: {key!r}")
    return dict(metadata)


@dataclass(frozen=True, slots=True)
class Model:
    """A registered machine-learning model (Section 3.3.1).

    A model is identified by ``model_id`` and grouped under a human-meaningful
    ``base_version_id`` (Section 3.4.1) — the top-level identifier that links
    every descendant instance, e.g. ``"demand_conversion"``.

    Evolution of the model through redesigns is tracked with
    ``previous_model_id`` / ``next_model_id`` pointers, and cross-model
    dependencies with ``upstream_model_ids`` / ``downstream_model_ids``
    (Section 3.4.2).  The dependency graph itself is maintained by
    :mod:`repro.core.dependencies`; the pointers here are the persisted view.
    """

    model_id: str
    project: str
    base_version_id: str
    owner: str = ""
    description: str = ""
    created_time: float = 0.0
    previous_model_id: str | None = None
    next_model_id: str | None = None
    upstream_model_ids: tuple[str, ...] = ()
    downstream_model_ids: tuple[str, ...] = ()
    metadata: Mapping[str, Any] = field(default_factory=dict)
    deprecated: bool = False
    #: Family grouping (e.g. ``"{feature_set}_{loss}"``): models sharing a
    #: family are interchangeable candidates for one serving scope.  Empty
    #: string = ungrouped; documents written before families existed load
    #: with that default.
    family: str = ""
    #: Review gate: disabled models never win serving assignments.
    enabled: bool = True

    def __post_init__(self) -> None:
        if not self.model_id:
            raise ValidationError("model_id must be non-empty")
        if not self.project:
            raise ValidationError("project must be non-empty")
        if not self.base_version_id:
            raise ValidationError("base_version_id must be non-empty")
        object.__setattr__(self, "metadata", _frozen_metadata(self.metadata))
        object.__setattr__(
            self, "upstream_model_ids", tuple(self.upstream_model_ids)
        )
        object.__setattr__(
            self, "downstream_model_ids", tuple(self.downstream_model_ids)
        )

    def evolved(self, new_model_id: str, **changes: Any) -> "Model":
        """Return the successor model produced by a redesign.

        The successor keeps the project and base version id, points back at
        this model, and may override any other field via *changes*.
        """
        return dataclasses.replace(
            self,
            model_id=new_model_id,
            previous_model_id=self.model_id,
            next_model_id=None,
            **changes,
        )

    def with_next(self, next_model_id: str) -> "Model":
        """Return a copy whose forward evolution pointer is set."""
        return dataclasses.replace(self, next_model_id=next_model_id)

    def deprecate(self) -> "Model":
        """Return a deprecated copy (models are flagged, never deleted)."""
        return dataclasses.replace(self, deprecated=True)

    def to_dict(self) -> dict[str, Any]:
        # Hand-rolled: dataclasses.asdict deep-copies every field, which
        # dominates the serving read path when thousands of records are
        # serialized per query.
        return {
            "model_id": self.model_id,
            "project": self.project,
            "base_version_id": self.base_version_id,
            "owner": self.owner,
            "description": self.description,
            "created_time": self.created_time,
            "previous_model_id": self.previous_model_id,
            "next_model_id": self.next_model_id,
            "upstream_model_ids": list(self.upstream_model_ids),
            "downstream_model_ids": list(self.downstream_model_ids),
            "metadata": dict(self.metadata),
            "deprecated": self.deprecated,
            "family": self.family,
            "enabled": self.enabled,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Model":
        known = _known_fields(cls)
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True, slots=True)
class ModelInstance:
    """A trained model instance (Section 3.3.2).

    The learned parameters live as an opaque blob in the large-object store;
    the instance record carries only ``blob_location``.  ``metadata`` captures
    everything needed for reproducibility (Section 6.2): training-data
    pointer, framework, hyperparameters, RNG seed, feature list, and so on.

    ``instance_version`` is the human-readable dependency-derived version used
    in Figures 5–7 (e.g. ``"4.1"``); it is advisory display information — the
    UUID in ``instance_id`` is the real identifier.
    """

    instance_id: str
    model_id: str
    base_version_id: str
    blob_location: str = ""
    instance_version: str = ""
    parent_instance_id: str | None = None
    created_time: float = 0.0
    metadata: Mapping[str, Any] = field(default_factory=dict)
    deprecated: bool = False
    #: Family inherited from (or overriding) the owning model's grouping.
    family: str = ""
    #: Review gate (Section 4.2 workflow): training auto-registers instances
    #: and a human or rule flips ``enabled`` before they may serve.  Pre-PR9
    #: documents load as enabled so existing serving keeps working.
    enabled: bool = True

    def __post_init__(self) -> None:
        if not self.instance_id:
            raise ValidationError("instance_id must be non-empty")
        if not self.model_id:
            raise ValidationError("model_id must be non-empty")
        if not self.base_version_id:
            raise ValidationError("base_version_id must be non-empty")
        object.__setattr__(self, "metadata", _frozen_metadata(self.metadata))

    def deprecate(self) -> "ModelInstance":
        """Return a deprecated copy of this instance."""
        return dataclasses.replace(self, deprecated=True)

    def with_enablement(self, enabled: bool) -> "ModelInstance":
        """Return a copy with the review gate flipped."""
        return dataclasses.replace(self, enabled=enabled)

    def to_dict(self) -> dict[str, Any]:
        return {
            "instance_id": self.instance_id,
            "model_id": self.model_id,
            "base_version_id": self.base_version_id,
            "blob_location": self.blob_location,
            "instance_version": self.instance_version,
            "parent_instance_id": self.parent_instance_id,
            "created_time": self.created_time,
            "metadata": dict(self.metadata),
            "deprecated": self.deprecated,
            "family": self.family,
            "enabled": self.enabled,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ModelInstance":
        known = _known_fields(cls)
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True, slots=True)
class ServingAssignment:
    """The durable "what is serving right now" row for one scope.

    A *scope* is the serving slot rules and clients agree on — for the
    forecasting case study it is the city name.  Assignments live in the
    metadata store (not process memory) so every replica over a shared
    store observes a switch without restart; ``previous_instance_id`` and
    ``reason`` make the switch history auditable.
    """

    scope: str
    instance_id: str
    family: str = ""
    assigned_time: float = 0.0
    previous_instance_id: str | None = None
    reason: str = ""
    switch_count: int = 0

    def __post_init__(self) -> None:
        if not self.scope:
            raise ValidationError("serving scope must be non-empty")
        if not self.instance_id:
            raise ValidationError("serving instance_id must be non-empty")

    def to_dict(self) -> dict[str, Any]:
        return {
            "scope": self.scope,
            "instance_id": self.instance_id,
            "family": self.family,
            "assigned_time": self.assigned_time,
            "previous_instance_id": self.previous_instance_id,
            "reason": self.reason,
            "switch_count": self.switch_count,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingAssignment":
        known = _known_fields(cls)
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True, slots=True)
class MetricRecord:
    """One performance measurement for a model instance (Section 3.3.3).

    Metrics are "structured blobs" of ``<metric>:<value>`` pairs in the
    paper; here each record is a single named value plus free-form metadata
    describing the evaluation (window, dataset, evaluator...).  Multi-metric
    blobs are expressed as several records sharing ``metadata['batch_id']``.
    """

    metric_id: str
    instance_id: str
    name: str
    value: float
    scope: MetricScope = MetricScope.VALIDATION
    created_time: float = 0.0
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.metric_id:
            raise ValidationError("metric_id must be non-empty")
        if not self.instance_id:
            raise ValidationError("instance_id must be non-empty")
        if not self.name:
            raise ValidationError("metric name must be non-empty")
        object.__setattr__(self, "scope", MetricScope.parse(self.scope))
        try:
            object.__setattr__(self, "value", float(self.value))
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"metric value must be numeric, got {self.value!r}"
            ) from exc
        object.__setattr__(self, "metadata", _frozen_metadata(self.metadata))

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric_id": self.metric_id,
            "instance_id": self.instance_id,
            "name": self.name,
            "value": self.value,
            "scope": self.scope.value,
            "created_time": self.created_time,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricRecord":
        known = _known_fields(cls)
        return cls(**{k: v for k, v in data.items() if k in known})
