"""Model and model-instance versioning (Section 3.4).

Two schemes live side by side:

* :class:`SemanticVersion` — the **pre-Gallery** ``<major>.<minor>.<patch>``
  scheme (Section 3.4.1).  It is kept as a baseline so EXP-SEMVER can
  demonstrate the breakdown the paper describes: once models are sharded
  per-city and retrained independently, versions lose their shared meaning.
* UUID versioning with **base version ids** — the Gallery scheme.  Every
  instance gets an opaque UUID; metadata records which base version id the
  instance descends from, and :class:`LineageTracker` supports the queries
  the paper calls out ("traverse the evolution of their model by following
  all instances linked to a given base version id").

:class:`InstanceVersion` is the lightweight ``major.minor`` *display* version
used by the dependency-propagation figures (Figures 5–7): a direct retrain
bumps the major component, and a propagated upstream update bumps the minor
component.  It is presentation metadata — identity always rests on the UUID.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable, Sequence

from repro.errors import NotFoundError, ValidationError

# ---------------------------------------------------------------------------
# Legacy semantic versioning (pre-Gallery baseline)
# ---------------------------------------------------------------------------

_SEMVER_RE = re.compile(r"^(\d+)\.(\d+)\.(\d+)$")


@total_ordering
@dataclass(frozen=True, slots=True)
class SemanticVersion:
    """``major.minor.patch`` version with the paper's bump rules.

    Section 3.4.1: bump *major* when the model architecture changes, *minor*
    when features or hyperparameters change, *patch* when the instance is
    retrained on new data.
    """

    major: int
    minor: int
    patch: int

    def __post_init__(self) -> None:
        for part in (self.major, self.minor, self.patch):
            if not isinstance(part, int) or part < 0:
                raise ValidationError(f"invalid semantic version component: {part!r}")

    @classmethod
    def parse(cls, text: str) -> "SemanticVersion":
        match = _SEMVER_RE.match(text.strip())
        if match is None:
            raise ValidationError(f"not a semantic version: {text!r}")
        return cls(*(int(g) for g in match.groups()))

    def bump_major(self) -> "SemanticVersion":
        """New model architecture (e.g. linear regression -> neural net)."""
        return SemanticVersion(self.major + 1, 0, 0)

    def bump_minor(self) -> "SemanticVersion":
        """Feature or hyperparameter change."""
        return SemanticVersion(self.major, self.minor + 1, 0)

    def bump_patch(self) -> "SemanticVersion":
        """Retrained on new data."""
        return SemanticVersion(self.major, self.minor, self.patch + 1)

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}.{self.patch}"

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, SemanticVersion):
            return NotImplemented
        return (self.major, self.minor, self.patch) < (
            other.major,
            other.minor,
            other.patch,
        )


# ---------------------------------------------------------------------------
# Dependency-derived display versions (Figures 5-7)
# ---------------------------------------------------------------------------

_INSTANCE_VERSION_RE = re.compile(r"^(\d+)\.(\d+)$")


@total_ordering
@dataclass(frozen=True, slots=True)
class InstanceVersion:
    """``major.minor`` display version used in the dependency figures.

    Semantics calibrated against Figures 6–7:

    * ``bump_minor()`` — a new **instance** version: the owner retrained the
      model (B: 2.0 → 2.1 in Figure 6), an upstream dependency changed
      (A: 4.0 → 4.1), or a dependency was added/removed (A: 4.1 → 4.2 in
      Figure 7).  Gallery records the new version automatically but does not
      change what production serves (owners must opt in to upgrades).
    * ``bump_major()`` — a new **model** version: the transformation itself
      changed (architecture, features), resetting the minor counter.
    """

    major: int
    minor: int = 0

    def __post_init__(self) -> None:
        for part in (self.major, self.minor):
            if not isinstance(part, int) or part < 0:
                raise ValidationError(f"invalid instance version component: {part!r}")

    @classmethod
    def parse(cls, text: str) -> "InstanceVersion":
        match = _INSTANCE_VERSION_RE.match(text.strip())
        if match is None:
            raise ValidationError(f"not an instance version: {text!r}")
        return cls(int(match.group(1)), int(match.group(2)))

    def bump_major(self) -> "InstanceVersion":
        return InstanceVersion(self.major + 1, 0)

    def bump_minor(self) -> "InstanceVersion":
        return InstanceVersion(self.major, self.minor + 1)

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}"

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, InstanceVersion):
            return NotImplemented
        return (self.major, self.minor) < (other.major, other.minor)


# ---------------------------------------------------------------------------
# UUID lineage under base version ids (the Gallery scheme)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LineageEntry:
    """One instance in a base-version lineage, ordered by creation time."""

    instance_id: str
    created_time: float
    parent_instance_id: str | None = None


class LineageTracker:
    """Tracks which instances descend from which base version id.

    This is the index behind Figure 4: base version ids such as
    ``"supply_cancellation"`` map to a time-ordered chain of instance UUIDs.
    The tracker is append-only — entries are never removed or rewritten,
    honouring the immutability principle.
    """

    def __init__(self) -> None:
        self._by_base: dict[str, list[LineageEntry]] = {}
        self._base_of: dict[str, str] = {}

    def record(
        self,
        base_version_id: str,
        instance_id: str,
        created_time: float,
        parent_instance_id: str | None = None,
    ) -> LineageEntry:
        """Insert *instance_id* into its lineage, after any equal times."""
        if not base_version_id:
            raise ValidationError("base_version_id must be non-empty")
        if instance_id in self._base_of:
            raise ValidationError(
                f"instance {instance_id!r} already recorded in lineage"
            )
        if parent_instance_id is not None and parent_instance_id not in self._base_of:
            raise NotFoundError(
                f"parent instance {parent_instance_id!r} is not in any lineage"
            )
        entry = LineageEntry(
            instance_id=instance_id,
            created_time=created_time,
            parent_instance_id=parent_instance_id,
        )
        chain = self._by_base.setdefault(base_version_id, [])
        bisect.insort(chain, entry, key=lambda e: e.created_time)
        self._base_of[instance_id] = base_version_id
        return entry

    def base_version_ids(self) -> list[str]:
        return sorted(self._by_base)

    def lineage(self, base_version_id: str) -> Sequence[LineageEntry]:
        """All instances of *base_version_id*, oldest first (Figure 4)."""
        if base_version_id not in self._by_base:
            raise NotFoundError(f"unknown base version id: {base_version_id!r}")
        return tuple(self._by_base[base_version_id])

    def latest(self, base_version_id: str) -> LineageEntry:
        """The most recently trained instance for a base version id."""
        return self.lineage(base_version_id)[-1]

    def base_of(self, instance_id: str) -> str:
        """Which base version id an instance belongs to."""
        try:
            return self._base_of[instance_id]
        except KeyError:
            raise NotFoundError(
                f"instance {instance_id!r} is not in any lineage"
            ) from None

    def ancestors(self, instance_id: str) -> list[str]:
        """Walk parent pointers from *instance_id* back to the lineage root."""
        base = self.base_of(instance_id)
        by_id = {e.instance_id: e for e in self._by_base[base]}
        out: list[str] = []
        current = by_id[instance_id].parent_instance_id
        seen = {instance_id}
        while current is not None:
            if current in seen:
                raise ValidationError("cycle detected in instance lineage")
            seen.add(current)
            out.append(current)
            entry = by_id.get(current)
            if entry is None:
                # Parent lives in another base lineage (model evolution
                # across redesigns); stop at the boundary.
                break
            current = entry.parent_instance_id
        return out

    def __len__(self) -> int:
        return len(self._base_of)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._base_of


def chain_is_time_ordered(entries: Iterable[LineageEntry]) -> bool:
    """Invariant check used by property tests: lineages are time-sorted."""
    times = [e.created_time for e in entries]
    return all(a <= b for a, b in zip(times, times[1:]))
