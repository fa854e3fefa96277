"""The model lifecycle state machine (Section 1, Figure 1).

Figure 1 describes the common lifecycle: a model starts in *exploration*;
promising models move to production *training*, producing instances that are
*evaluated* and, if above threshold, *deployed*.  Deployed instances are
*monitored*; degradation triggers *retraining* (back through evaluation), and
consistently underperforming models are *deprecated* (flagged, never
deleted — Section 3.7).

The registry stamps each instance with a :class:`LifecycleStage`, checks
every move against :func:`can_transition`, and records it as a
:class:`StageChange` in the metadata store (``Gallery.stage_of`` /
``stage_history``), which is what the orchestration rule engine consumes to
move models automatically between stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from repro.errors import LifecycleError


class LifecycleStage(str, Enum):
    """Stages of the model lifecycle from Figure 1."""

    EXPLORATION = "exploration"
    TRAINING = "training"
    EVALUATION = "evaluation"
    DEPLOYED = "deployed"
    MONITORING = "monitoring"
    RETRAINING = "retraining"
    DEPRECATED = "deprecated"

    @classmethod
    def parse(cls, value: "str | LifecycleStage") -> "LifecycleStage":
        if isinstance(value, LifecycleStage):
            return value
        for member in cls:
            if member.value == str(value).lower():
                return member
        raise LifecycleError(f"unknown lifecycle stage: {value!r}")


#: Legal transitions.  Every stage may move to DEPRECATED; DEPRECATED is
#: terminal (deprecated models stay queryable but never return to service).
_TRANSITIONS: Mapping[LifecycleStage, frozenset[LifecycleStage]] = {
    LifecycleStage.EXPLORATION: frozenset(
        {LifecycleStage.TRAINING, LifecycleStage.DEPRECATED}
    ),
    LifecycleStage.TRAINING: frozenset(
        {LifecycleStage.EVALUATION, LifecycleStage.DEPRECATED}
    ),
    LifecycleStage.EVALUATION: frozenset(
        {
            LifecycleStage.DEPLOYED,
            LifecycleStage.TRAINING,  # performance below threshold: iterate
            LifecycleStage.DEPRECATED,
        }
    ),
    LifecycleStage.DEPLOYED: frozenset(
        {
            LifecycleStage.MONITORING,
            LifecycleStage.RETRAINING,
            LifecycleStage.DEPRECATED,
        }
    ),
    LifecycleStage.MONITORING: frozenset(
        {
            LifecycleStage.RETRAINING,  # drift / degradation detected
            LifecycleStage.DEPLOYED,    # healthy, back to steady state
            LifecycleStage.DEPRECATED,
        }
    ),
    LifecycleStage.RETRAINING: frozenset(
        {LifecycleStage.EVALUATION, LifecycleStage.DEPRECATED}
    ),
    LifecycleStage.DEPRECATED: frozenset(),
}


def can_transition(current: LifecycleStage, target: LifecycleStage) -> bool:
    """True when Figure 1 permits moving from *current* to *target*."""
    return target in _TRANSITIONS[current]


@dataclass(frozen=True, slots=True)
class StageChange:
    """One recorded transition: when, from, to, and why."""

    timestamp: float
    from_stage: LifecycleStage | None
    to_stage: LifecycleStage
    reason: str = ""

