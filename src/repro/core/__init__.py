"""Core Gallery subsystems: records, versioning, dependencies, search,
lifecycle, health, and the registry facade."""

from repro.core.clock import Clock, ManualClock, SYSTEM_CLOCK
from repro.core.dependencies import ChangeCause, DependencyGraph, PropagationEvent
from repro.core.health import (
    AlertSink,
    DriftDetector,
    DriftReport,
    HealthReport,
    SkewReport,
    health_report,
    performance_view,
    production_skew,
)
from repro.core.ids import SeededIdFactory, SequentialIdFactory, is_uuid, random_uuid
from repro.core.lifecycle import LifecycleStage, can_transition
from repro.core.metadata import (
    CompletenessReport,
    INDEXED_FIELDS,
    REPRODUCIBILITY_FIELDS,
    STANDARD_FIELDS,
    completeness,
)
from repro.core.records import MetricRecord, MetricScope, Model, ModelInstance
from repro.core.registry import Gallery
from repro.core.reproduce import (
    ReproducibilityReport,
    TrainerRegistry,
    reproduce_instance,
)
from repro.core.search import Constraint, ConstraintSet, Operator, flatten_instance_document
from repro.core.versioning import (
    InstanceVersion,
    LineageTracker,
    SemanticVersion,
)

__all__ = [
    "AlertSink",
    "ChangeCause",
    "Clock",
    "CompletenessReport",
    "Constraint",
    "ConstraintSet",
    "DependencyGraph",
    "DriftDetector",
    "DriftReport",
    "Gallery",
    "HealthReport",
    "INDEXED_FIELDS",
    "InstanceVersion",
    "LifecycleStage",
    "LineageTracker",
    "ManualClock",
    "MetricRecord",
    "MetricScope",
    "Model",
    "ModelInstance",
    "Operator",
    "PropagationEvent",
    "ReproducibilityReport",
    "TrainerRegistry",
    "REPRODUCIBILITY_FIELDS",
    "STANDARD_FIELDS",
    "SYSTEM_CLOCK",
    "SeededIdFactory",
    "SemanticVersion",
    "SequentialIdFactory",
    "SkewReport",
    "can_transition",
    "completeness",
    "flatten_instance_document",
    "health_report",
    "is_uuid",
    "performance_view",
    "production_skew",
    "random_uuid",
    "reproduce_instance",
]
