"""Model dependency tracking and version propagation (Section 3.4.2).

Models form a DAG: an edge ``B -> A`` means *A depends on B* (B is upstream
of A).  Gallery uses this graph for two things:

1. **Queries** — owners ask for their model's upstream or downstream
   dependencies, directly or transitively, to understand blast radius.
2. **Propagation** — when an upstream model receives a direct update, every
   transitive downstream model automatically receives a *new proposed
   version* (minor bump), while the version pinned in production is left
   untouched.  Owners must explicitly promote a version to production
   ("models are not automatically updated because we would like users to be
   aware that their model dependencies have changed").

The worked examples of Figures 5–7 are reproduced exactly by
``tests/core/test_dependencies.py`` and ``benchmarks/test_exp_f5_7_dependencies.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Collection

from repro.core.versioning import InstanceVersion
from repro.errors import (
    DependencyCycleError,
    DependencyError,
    DuplicateError,
    NotFoundError,
)


class ChangeCause(str, Enum):
    """Why a model's version advanced."""

    DIRECT = "direct"                    # owner retrained / changed the model
    UPSTREAM_UPDATE = "upstream_update"  # a dependency published a new version
    DEPENDENCY_ADDED = "dependency_added"
    DEPENDENCY_REMOVED = "dependency_removed"


@dataclass(frozen=True, slots=True)
class PropagationEvent:
    """One version advance, for audit and for reproducing Figures 6–7."""

    model_id: str
    old_version: InstanceVersion
    new_version: InstanceVersion
    cause: ChangeCause
    trigger_model_id: str | None = None


@dataclass
class _Node:
    model_id: str
    latest: InstanceVersion
    production: InstanceVersion | None = None
    upstream: set[str] = field(default_factory=set)
    downstream: set[str] = field(default_factory=set)


class DependencyGraph:
    """The model dependency DAG with automatic version propagation."""

    def __init__(self) -> None:
        self._nodes: dict[str, _Node] = {}
        self._events: list[PropagationEvent] = []

    # -- graph construction -------------------------------------------------

    def add_model(
        self,
        model_id: str,
        version: InstanceVersion | str = InstanceVersion(1, 0),
        promote: bool = True,
    ) -> None:
        """Register *model_id* with an initial version.

        ``promote=True`` pins the initial version as the production version,
        matching Figure 5 where every model starts deployed.
        """
        if model_id in self._nodes:
            raise DuplicateError(f"model {model_id!r} already in dependency graph")
        if isinstance(version, str):
            version = InstanceVersion.parse(version)
        self._nodes[model_id] = _Node(
            model_id=model_id,
            latest=version,
            production=version if promote else None,
        )

    def add_dependency(
        self, downstream_id: str, upstream_id: str, bump: bool = True
    ) -> list[PropagationEvent]:
        """Declare that *downstream_id* depends on *upstream_id*.

        Adding a dependency to a live model is itself a model change
        (Figure 7): the downstream model and everything below it receive
        propagated version bumps.  Dependencies "established by the user when
        models are first registered" (Section 3.4.2) are wired with
        ``bump=False`` and generate no events, matching Figure 5 where the
        assembled graph still shows the initial versions.
        """
        down = self._require(downstream_id)
        self._require(upstream_id)
        if downstream_id == upstream_id:
            raise DependencyCycleError(f"model {downstream_id!r} cannot depend on itself")
        if upstream_id in down.upstream:
            raise DuplicateError(
                f"{downstream_id!r} already depends on {upstream_id!r}"
            )
        if self._reachable(frm=downstream_id, to=upstream_id):
            raise DependencyCycleError(
                f"adding {downstream_id!r} -> {upstream_id!r} would create a cycle"
            )
        down.upstream.add(upstream_id)
        self._nodes[upstream_id].downstream.add(downstream_id)
        if not bump:
            return []
        return self._propagate_from(
            downstream_id,
            cause=ChangeCause.DEPENDENCY_ADDED,
            trigger=upstream_id,
            include_root=True,
        )

    def remove_dependency(self, downstream_id: str, upstream_id: str) -> list[PropagationEvent]:
        """Remove a dependency edge; also a version-bumping change."""
        down = self._require(downstream_id)
        if upstream_id not in down.upstream:
            raise NotFoundError(
                f"{downstream_id!r} does not depend on {upstream_id!r}"
            )
        down.upstream.discard(upstream_id)
        self._nodes[upstream_id].downstream.discard(downstream_id)
        return self._propagate_from(
            downstream_id,
            cause=ChangeCause.DEPENDENCY_REMOVED,
            trigger=upstream_id,
            include_root=True,
        )

    # -- version changes -----------------------------------------------------

    def record_instance_update(self, model_id: str) -> list[PropagationEvent]:
        """The owner published a new *instance* of *model_id* (a retrain).

        The model takes a minor bump (B: 2.0 -> 2.1 in Figure 6) and every
        transitive downstream model takes a propagated minor bump (A: 4.0 ->
        4.1, X: 7.0 -> 7.1, Y: 8.0 -> 8.1).  Production versions do not move.
        """
        return self._direct_change(model_id, InstanceVersion.bump_minor)

    def record_model_change(self, model_id: str) -> list[PropagationEvent]:
        """The *model itself* changed (architecture/features): major bump.

        Downstream models still only see "an upstream dependency changed",
        so they take the usual propagated minor bump.
        """
        return self._direct_change(model_id, InstanceVersion.bump_major)

    def promote(self, model_id: str, version: InstanceVersion | str | None = None) -> InstanceVersion:
        """Pin a version as the production version (owner opt-in).

        With no explicit *version*, the latest version is promoted.
        """
        node = self._require(model_id)
        if version is None:
            version = node.latest
        elif isinstance(version, str):
            version = InstanceVersion.parse(version)
        if version > node.latest:
            raise DependencyError(
                f"cannot promote {version} of {model_id!r}: latest is {node.latest}"
            )
        node.production = version
        return version

    # -- queries ---------------------------------------------------------------

    def models(self) -> list[str]:
        return sorted(self._nodes)

    def latest_version(self, model_id: str) -> InstanceVersion:
        return self._require(model_id).latest

    def production_version(self, model_id: str) -> InstanceVersion | None:
        return self._require(model_id).production

    def has_pending_upgrade(self, model_id: str) -> bool:
        """True when newer versions exist than what production serves."""
        node = self._require(model_id)
        return node.production is not None and node.latest > node.production

    def upstream(self, model_id: str, transitive: bool = False) -> set[str]:
        """Models that *model_id* depends on."""
        node = self._require(model_id)
        if not transitive:
            return set(node.upstream)
        return self._closure(model_id, direction="upstream")

    def downstream(self, model_id: str, transitive: bool = False) -> set[str]:
        """Models that depend on *model_id*."""
        node = self._require(model_id)
        if not transitive:
            return set(node.downstream)
        return self._closure(model_id, direction="downstream")

    def events(self) -> list[PropagationEvent]:
        """Full propagation audit log, oldest first."""
        return list(self._events)

    def topological_order(self) -> list[str]:
        """Models ordered so that every dependency precedes its dependents."""
        order = self._ordered(self._nodes)
        if len(order) != len(self._nodes):
            raise DependencyCycleError("dependency graph contains a cycle")
        return order

    # -- internals ---------------------------------------------------------

    def _require(self, model_id: str) -> _Node:
        try:
            return self._nodes[model_id]
        except KeyError:
            raise NotFoundError(
                f"model {model_id!r} is not in the dependency graph"
            ) from None

    def _ordered(self, members: Collection[str]) -> list[str]:
        """Kahn's algorithm over *members*, always taking the smallest ready id.

        Only edges between members count, so ordering a downstream closure
        costs that closure alone, not the whole graph.
        """
        in_degree = {
            mid: sum(up in members for up in self._nodes[mid].upstream)
            for mid in members
        }
        ready = [mid for mid, degree in in_degree.items() if degree == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            current = heapq.heappop(ready)
            order.append(current)
            for succ in self._nodes[current].downstream:
                if succ in in_degree:
                    in_degree[succ] -= 1
                    if in_degree[succ] == 0:
                        heapq.heappush(ready, succ)
        return order

    def _closure(self, model_id: str, direction: str) -> set[str]:
        seen: set[str] = set()
        frontier = [model_id]
        while frontier:
            current = frontier.pop()
            neighbours = getattr(self._nodes[current], direction)
            for nxt in neighbours:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def _reachable(self, frm: str, to: str) -> bool:
        """True when *to* is reachable from *frm* following downstream edges."""
        return to in self._closure(frm, direction="downstream")

    def _direct_change(
        self, model_id: str, bump: Callable[[InstanceVersion], InstanceVersion]
    ) -> list[PropagationEvent]:
        """Apply an owner's *bump* to *model_id*, then propagate below it."""
        node = self._require(model_id)
        old = node.latest
        node.latest = bump(old)
        direct = PropagationEvent(
            model_id=model_id,
            old_version=old,
            new_version=node.latest,
            cause=ChangeCause.DIRECT,
        )
        self._events.append(direct)
        return [direct] + self._propagate_from(
            model_id,
            cause=ChangeCause.UPSTREAM_UPDATE,
            trigger=model_id,
            include_root=False,
        )

    def _propagate_from(
        self,
        root_id: str,
        cause: ChangeCause,
        trigger: str | None,
        include_root: bool,
    ) -> list[PropagationEvent]:
        """Apply propagated (minor) bumps below *root_id* in topological order.

        Each affected model is bumped exactly once per propagation wave, even
        when it is reachable through multiple paths (diamond dependencies) —
        one upstream change is one change.
        """
        affected = self._closure(root_id, direction="downstream")
        if include_root:
            affected.add(root_id)
        events: list[PropagationEvent] = []
        for mid in self._ordered(affected):
            node = self._nodes[mid]
            old = node.latest
            node.latest = old.bump_minor()
            events.append(
                PropagationEvent(
                    model_id=mid,
                    old_version=old,
                    new_version=node.latest,
                    cause=cause,
                    trigger_model_id=trigger,
                )
            )
        self._events.extend(events)
        return events
