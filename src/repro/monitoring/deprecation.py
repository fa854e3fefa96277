"""Automated model deprecation (Section 3.7, "Model Deprecation").

"When a model consistently performs worse than other models, we should
deprecate it to save computational resources. ... When a model or model
instance is deprecated, we would not delete them from the system, but
rather flag them as deprecated."

:class:`DeprecationSweeper` implements the policy loop: within each base
version id, instances that have been *consistently* beaten by a live
sibling (for ``patience`` consecutive sweeps, on the policy metric, by at
least ``margin``) are flagged — never deleted — through the registry's
deprecation path, so lifecycle state, search filtering, and events all
follow.  The newest instance and the sole survivor of a lineage are never
deprecated: something must remain serving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.records import MetricScope
from repro.core.registry import Gallery


@dataclass(frozen=True, slots=True)
class DeprecationPolicy:
    """When is an instance 'consistently worse'?"""

    metric: str = "mape"
    scope: MetricScope = MetricScope.PRODUCTION
    higher_is_worse: bool = True
    #: must lose to the best sibling by at least this relative margin
    margin: float = 0.10
    #: consecutive losing sweeps before deprecation
    patience: int = 3

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise ValueError("margin must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")


@dataclass(frozen=True, slots=True)
class SweepOutcome:
    """What one deprecation sweep did."""

    evaluated: int
    losing: tuple[str, ...]
    deprecated: tuple[str, ...]


class DeprecationSweeper:
    """Flags consistently-underperforming instances, lineage by lineage."""

    def __init__(self, gallery: Gallery, policy: DeprecationPolicy | None = None) -> None:
        self._gallery = gallery
        self._policy = policy or DeprecationPolicy()
        self._strikes: dict[str, int] = {}

    def sweep(self) -> SweepOutcome:
        """Run one pass over every base version id with >= 2 live instances."""
        policy = self._policy
        evaluated = 0
        losing: list[str] = []
        deprecated: list[str] = []
        bases = {m.base_version_id for m in self._gallery.models(include_deprecated=True)}
        for base in sorted(bases):
            live = self._gallery.instances_of(base)
            if len(live) < 2:
                continue
            scored = []
            for instance in live:
                value = self._gallery.latest_metric(
                    instance.instance_id, policy.metric, scope=policy.scope
                )
                if value is not None:
                    scored.append((instance, value))
            if len(scored) < 2:
                continue
            evaluated += len(scored)
            best_value = (
                min(v for _, v in scored)
                if policy.higher_is_worse
                else max(v for _, v in scored)
            )
            newest_id = live[-1].instance_id
            for instance, value in scored:
                if instance.instance_id == newest_id:
                    # the freshest instance gets time to accumulate evidence
                    self._strikes.pop(instance.instance_id, None)
                    continue
                if self._loses(value, best_value):
                    losing.append(instance.instance_id)
                    strikes = self._strikes.get(instance.instance_id, 0) + 1
                    self._strikes[instance.instance_id] = strikes
                    if strikes >= policy.patience:
                        self._gallery.deprecate_instance(instance.instance_id)
                        deprecated.append(instance.instance_id)
                        self._strikes.pop(instance.instance_id, None)
                else:
                    self._strikes.pop(instance.instance_id, None)
        return SweepOutcome(
            evaluated=evaluated,
            losing=tuple(losing),
            deprecated=tuple(deprecated),
        )

    def _loses(self, value: float, best: float) -> bool:
        policy = self._policy
        if policy.higher_is_worse:
            return value > best * (1.0 + policy.margin)
        return value < best * (1.0 - policy.margin)

    def strikes(self, instance_id: str) -> int:
        """Current consecutive-loss count for an instance."""
        return self._strikes.get(instance_id, 0)
