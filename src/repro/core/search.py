"""Constraint-based model search (Section 3.5, Listing 5).

The paper's search API takes a list of ``{field, operator, value}``
constraints combined with AND semantics:

.. code-block:: python

    searchConstraint = [
        {"field": "projectName", "operator": "equal", "value": "example-project"},
        {"field": "metricName", "operator": "equal", "value": "bias"},
        {"field": "metricValue", "operator": "smaller_than", "value": 0.25},
    ]

Constraints fall into two families:

* **Document constraints** evaluate against a flattened view of a model
  instance and its parent model (record fields plus metadata fields promoted
  to the top level).
* **Metric constraints** (``metricName`` / ``metricValue`` / ``metricScope``)
  are *correlated*: the whole metric-constraint group must be satisfied by a
  single metric record, so "name == bias AND value < 0.25" cannot be
  satisfied by a bias of 0.5 plus an unrelated small metric.

The registry reads candidates with one narrowing call per query
(:meth:`ConstraintSet.narrowing_hint`): one strict equality the store answers
through an index or a routing key, with every other safe equality pushed
into the same SQL ``WHERE`` as a necessary condition.  The matchers below
still decide every row the store returns, so pushdown changes how many rows
are parsed, never which instances match.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ValidationError

#: Search-field aliases: the paper's camelCase API names map onto record and
#: standard-metadata field names.
FIELD_ALIASES = {
    "projectName": "project",
    "modelName": "model_name",
    "modelType": "model_type",
    "modelDomain": "model_domain",
    "baseVersionId": "base_version_id",
    "instanceId": "instance_id",
    "modelId": "model_id",
    "createdTime": "created_time",
}

METRIC_FIELDS = {"metricName", "metricValue", "metricScope"}
#: Where each metric field sits in a ``(name, value, scope)`` row.
_METRIC_COLUMNS = {"metricName": 0, "metricValue": 1, "metricScope": 2}


class Operator(str, Enum):
    """Comparison operators accepted by the search API."""

    EQUAL = "equal"
    NOT_EQUAL = "not_equal"
    SMALLER_THAN = "smaller_than"
    SMALLER_EQUAL = "smaller_equal"
    GREATER_THAN = "greater_than"
    GREATER_EQUAL = "greater_equal"
    CONTAINS = "contains"
    IN = "in"
    PREFIX = "prefix"

    @classmethod
    def parse(cls, value: "str | Operator") -> "Operator":
        if isinstance(value, Operator):
            return value
        for member in cls:
            if member.value == str(value):
                return member
        raise ValidationError(f"unknown search operator: {value!r}")


def _compare(op: Operator, actual: Any, expected: Any) -> bool:
    """Apply *op*; missing fields (actual is None) never match."""
    if actual is None:
        return False
    if op is Operator.EQUAL:
        return actual == expected
    if op is Operator.NOT_EQUAL:
        return actual != expected
    if op is Operator.CONTAINS:
        try:
            return expected in actual
        except TypeError:
            return False
    if op is Operator.IN:
        try:
            return actual in expected
        except TypeError:
            return False
    if op is Operator.PREFIX:
        return isinstance(actual, str) and actual.startswith(str(expected))
    # Ordered comparisons: coerce both sides to float when possible so that
    # "0.25" and 0.25 compare equal, matching a forgiving service boundary.
    try:
        left, right = float(actual), float(expected)
    except (TypeError, ValueError):
        if not isinstance(actual, type(expected)) and not isinstance(
            expected, type(actual)
        ):
            return False
        left, right = actual, expected
    if op is Operator.SMALLER_THAN:
        return left < right
    if op is Operator.SMALLER_EQUAL:
        return left <= right
    if op is Operator.GREATER_THAN:
        return left > right
    if op is Operator.GREATER_EQUAL:
        return left >= right
    raise ValidationError(f"unhandled operator: {op}")  # pragma: no cover


#: Metadata keys the store may address as a JSON path; anything else
#: (quotes, dots, brackets, ...) would be a path error, so it stays in Python.
_PUSHABLE_KEY = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_INT64 = 1 << 63


def _pushable(key: str, value: Any) -> bool:
    """Whether ``key == value`` can be tested in SQL exactly as in Python.

    Strings qualify unless SQLite would see them differently: it cannot bind
    lone surrogates and its JSON extraction stops at a NUL.  Integers
    qualify inside SQLite's 64-bit range; bools, floats, None and
    containers never do.
    """
    if _PUSHABLE_KEY.fullmatch(key) is None:
        return False
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return False
        return "\x00" not in value
    return type(value) is int and -_INT64 <= value < _INT64


@dataclass(frozen=True, slots=True)
class Constraint:
    """One ``field <operator> value`` condition."""

    field: str
    operator: Operator
    value: Any

    def __post_init__(self) -> None:
        if not self.field:
            raise ValidationError("constraint field must be non-empty")
        object.__setattr__(self, "operator", Operator.parse(self.operator))

    @property
    def is_metric_constraint(self) -> bool:
        return self.field in METRIC_FIELDS

    @property
    def resolved_field(self) -> str:
        return FIELD_ALIASES.get(self.field, self.field)

    def to_dict(self) -> dict[str, Any]:
        return {
            "field": self.field,
            "operator": self.operator.value,
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Constraint":
        try:
            return cls(
                field=data["field"],
                operator=Operator.parse(data["operator"]),
                value=data["value"],
            )
        except KeyError as exc:
            raise ValidationError(f"constraint missing key: {exc}") from exc


class ConstraintSet:
    """An AND-combined group of constraints, split by family."""

    def __init__(self, constraints: Iterable[Constraint | Mapping[str, Any]]) -> None:
        parsed: list[Constraint] = []
        for item in constraints:
            if isinstance(item, Constraint):
                parsed.append(item)
            else:
                parsed.append(Constraint.from_dict(item))
        self._document = tuple(c for c in parsed if not c.is_metric_constraint)
        self._metric = tuple(c for c in parsed if c.is_metric_constraint)
        self._metric_checks = tuple(
            (_METRIC_COLUMNS[c.field], c.operator, c.value) for c in self._metric
        )

    @property
    def document_constraints(self) -> Sequence[Constraint]:
        return self._document

    @property
    def metric_constraints(self) -> Sequence[Constraint]:
        return self._metric

    def narrowing_hint(
        self,
    ) -> tuple[str | None, Any, tuple[tuple[str, Any], ...]]:
        """The store's one narrowing read, as ``(field, value, also)``.

        ``field == value`` is the single *strict* condition: the first
        equality on an indexed standard-metadata column wins regardless of
        constraint order (so ``[custom == x, city == sf]`` still narrows
        through the city index), else the first equality on
        ``base_version_id`` or ``model_id`` (one shard).  ``field`` is None
        when no equality constraint can narrow that way.

        ``also`` carries every other equality constraint as a ``(key,
        value)`` pair the store may test in SQL.  Each is only a *necessary*
        condition: instance metadata is applied last when the document is
        flattened, so a row whose own metadata lacks *key* is kept and the
        parent model may still supply the value.  :meth:`matches_document`
        decides every row the store returns.  A pair is pushed only when
        *key* is a plain identifier and *value* is a string or an in-range
        integer that SQLite compares exactly as Python does; every other
        constraint is matched in Python only.
        """
        from repro.core.metadata import INDEXED_FIELDS

        equalities = [c for c in self._document if c.operator is Operator.EQUAL]
        strict: Constraint | None = None
        for constraint in equalities:
            field = constraint.resolved_field
            if field in INDEXED_FIELDS:
                strict = constraint
                break
            if strict is None and field in ("base_version_id", "model_id"):
                strict = constraint
        also = tuple(
            (c.resolved_field, c.value)
            for c in equalities
            if c is not strict and _pushable(c.resolved_field, c.value)
        )
        if strict is None:
            return None, None, also
        return strict.resolved_field, strict.value, also

    def metric_name_hint(self) -> str | None:
        """Metric name every satisfying record must carry, if one exists.

        :meth:`matches_metrics` is correlated — a *single* record must
        satisfy every metric constraint — so an EQUAL constraint on
        ``metricName`` means only records with that exact name can ever
        match.  The store can then push the name filter into the batched
        fetch instead of parsing every metric row of every candidate.
        """
        for constraint in self._metric:
            if (
                constraint.field == "metricName"
                and constraint.operator is Operator.EQUAL
            ):
                return constraint.value
        return None

    def __len__(self) -> int:
        return len(self._document) + len(self._metric)

    def matches_document(self, document: Mapping[str, Any]) -> bool:
        """Evaluate the document constraints against a flattened record."""
        return all(
            _compare(c.operator, document.get(c.resolved_field), c.value)
            for c in self._document
        )

    def matches_metrics(self, metrics: Iterable[Mapping[str, Any]]) -> bool:
        """True when one metric record satisfies every metric constraint."""
        return self.matches_metric_values(
            (m.get("name"), m.get("value"), m.get("scope")) for m in metrics
        )

    def matches_metric_values(self, metrics: Iterable[Sequence[Any]]) -> bool:
        """:meth:`matches_metrics` over ``(name, value, scope)`` rows, the
        shape :meth:`MetadataStore.metric_values_for_instances` returns."""
        checks = self._metric_checks
        if not checks:
            return True
        return any(
            all(_compare(op, metric[column], value) for column, op, value in checks)
            for metric in metrics
        )

    def matches(
        self,
        document: Mapping[str, Any],
        metrics: Iterable[Mapping[str, Any]] = (),
    ) -> bool:
        return self.matches_document(document) and self.matches_metrics(metrics)


def flatten_instance_document(
    instance: Mapping[str, Any], model: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """Build the flattened search document for an instance.

    Record fields are exposed directly; the parent model contributes
    ``project`` and ``owner``; metadata keys of both records are promoted to
    the top level (instance metadata wins on conflicts).
    """
    doc: dict[str, Any] = {}
    if model is not None:
        doc.update({k: v for k, v in model.items() if k != "metadata"})
        doc.update(model.get("metadata") or {})
    doc.update({k: v for k, v in instance.items() if k != "metadata"})
    doc.update(instance.get("metadata") or {})
    return doc
