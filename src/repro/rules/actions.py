"""Callback action registry (Section 3.7).

The rule engine is framework-agnostic by delegating every side effect to a
user-registered **callback action**: "we expect users to define callback
functions that will be triggered by the rule engine".  A default set of
common actions (alerting, email, deployment bookkeeping, retrain requests)
ships with the registry, recording into in-memory outboxes so examples and
tests can observe them; real deployments overwrite them with HTTP calls etc.
"""

from __future__ import annotations

import traceback as traceback_module

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import ActionError
from repro.reliability.policy import RetryPolicy


@dataclass(frozen=True, slots=True)
class ActionContext:
    """Everything an action callback receives when fired."""

    rule_uuid: str
    action: str
    params: Mapping[str, Any]
    instance_id: str
    document: Mapping[str, Any]
    timestamp: float = 0.0


ActionCallback = Callable[[ActionContext], Any]


@dataclass(frozen=True, slots=True)
class ActionResult:
    """Record of one executed action (the engine's audit trail).

    On failure the original exception class name and formatted traceback are
    preserved, so a dead-lettered action can be diagnosed hours later
    without reproducing the crash; ``attempts`` records how many tries the
    retry policy spent before giving up.
    """

    context: ActionContext
    ok: bool
    result: Any = None
    error: str = ""
    error_type: str = ""
    traceback: str = ""
    attempts: int = 1


class ActionRegistry:
    """Named callback table with observable default actions."""

    def __init__(self, include_defaults: bool = True) -> None:
        self._actions: dict[str, ActionCallback] = {}
        #: Outboxes written by the default actions, keyed by action name.
        self.outbox: dict[str, list[ActionContext]] = {}
        if include_defaults:
            self._register_defaults()

    def register(self, name: str, callback: ActionCallback, replace: bool = False) -> None:
        """Register *callback* under *name*; set ``replace`` to override."""
        if not name:
            raise ActionError("action name must be non-empty")
        if name in self._actions and not replace:
            raise ActionError(f"action {name!r} already registered")
        self._actions[name] = callback

    def names(self) -> list[str]:
        return sorted(self._actions)

    def __contains__(self, name: str) -> bool:
        return name in self._actions

    def execute(
        self, context: ActionContext, policy: RetryPolicy | None = None
    ) -> ActionResult:
        """Run one action; failures are captured, never propagated.

        A mis-registered or crashing callback must not take down the rule
        engine (it orchestrates unrelated teams' models too), so errors are
        folded into the :class:`ActionResult`.  With a *policy*, a crashing
        callback is retried under its backoff schedule before the failure is
        recorded; an *unknown* action is never retried (no amount of waiting
        registers a callback).
        """
        callback = self._actions.get(context.action)
        if callback is None:
            return ActionResult(
                context=context,
                ok=False,
                error=f"unknown action {context.action!r}",
                error_type=ActionError.__name__,
            )
        attempts = 0

        def _attempt() -> Any:
            nonlocal attempts
            attempts += 1
            return callback(context)

        try:
            if policy is None:
                result = _attempt()
            else:
                result = policy.call(_attempt)
        except Exception as exc:  # noqa: BLE001 - engine isolation boundary
            return ActionResult(
                context=context,
                ok=False,
                error=str(exc),
                error_type=type(exc).__name__,
                traceback=traceback_module.format_exc(),
                attempts=attempts,
            )
        return ActionResult(
            context=context, ok=True, result=result, attempts=attempts
        )

    # -- default actions -----------------------------------------------------

    def _record(self, name: str) -> ActionCallback:
        def _callback(context: ActionContext) -> str:
            self.outbox.setdefault(name, []).append(context)
            return f"{name}:{context.instance_id}"

        return _callback

    def _register_defaults(self) -> None:
        for name in ("alert", "email", "deploy", "retrain", "deprecate"):
            self._actions[name] = self._record(name)

    def sent(self, name: str) -> list[ActionContext]:
        """Contexts captured by a default action's outbox."""
        return list(self.outbox.get(name, []))


def register_switch_family_action(
    actions: ActionRegistry, registry: Any, replace: bool = True
) -> None:
    """Install the ``switch_family`` callback action onto an action registry.

    *registry* is a :class:`repro.core.registry.Gallery` (duck-typed here to
    keep the rules package free of core imports).  The action atomically
    re-points a serving scope at the best *enabled* instance of a family:

    ``params``:
      * ``scope``  — serving slot to re-point (falls back to the candidate
        document's ``city``, the forecasting scope convention);
      * ``family`` — family to select from (falls back to the document's);
      * ``metric`` / ``mode`` — optional ranking, e.g. ``mape`` / ``min``;
      * ``reason`` — audit string stamped onto the assignment row.

    Selection and assignment happen inside ``Gallery.switch_family``, whose
    re-point is one store transaction, so racing rule firings across
    replicas cannot interleave.
    """

    def _switch_family(context: ActionContext) -> str:
        scope = str(context.params.get("scope") or context.document.get("city", ""))
        family = str(
            context.params.get("family") or context.document.get("family", "")
        )
        if not scope or not family:
            raise ActionError(
                "switch_family needs 'scope' and 'family' (params or document)"
            )
        metric = context.params.get("metric")
        assignment = registry.switch_family(
            scope,
            family,
            metric=str(metric) if metric is not None else None,
            mode=str(context.params.get("mode", "min")),
            reason=str(
                context.params.get("reason", f"rule {context.rule_uuid}")
            ),
        )
        return f"switched {scope} -> {assignment.instance_id}"

    actions.register("switch_family", _switch_family, replace=replace)
