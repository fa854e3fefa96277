"""Dead-letter queue for failed rule-engine actions.

Before this layer, a crashing callback action was folded into the action
log and forgotten — the exception vanished and the side effect (deploy,
alert, retrain request) was silently lost, which breaks the paper's
automation promise (Section 3.7: the rule engine is what moves models
through their lifecycle).  Now every action that still fails after its
retry budget parks here with its full context, error type, and traceback:

* **queryable** — filter by rule, action name, or error type to answer
  "which deploys did we drop last night?";
* **re-drainable** — :meth:`DeadLetterQueue.redrive` re-executes parked
  actions against the registry once the transient fault clears; successes
  leave the queue, failures stay (with a bumped delivery count).

The queue is bounded: beyond ``max_entries`` the *oldest* letters are
evicted (and counted), because an unbounded queue during a long outage is
just a slower way to fall over.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a rules import cycle
    from repro.rules.actions import ActionContext, ActionRegistry, ActionResult


@dataclass(frozen=True, slots=True)
class DeadLetter:
    """One parked action failure."""

    letter_id: int
    context: "ActionContext"
    error: str
    error_type: str
    traceback: str
    attempts: int
    first_failed_at: float
    deliveries: int = 1  # how many times this letter has been (re)tried

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (the queue's storage format)."""
        return {
            "letter_id": self.letter_id,
            "context": {
                "rule_uuid": self.context.rule_uuid,
                "action": self.context.action,
                "params": dict(self.context.params),
                "instance_id": self.context.instance_id,
                "document": dict(self.context.document),
                "timestamp": self.context.timestamp,
            },
            "error": self.error,
            "error_type": self.error_type,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "first_failed_at": self.first_failed_at,
            "deliveries": self.deliveries,
        }

    @classmethod
    def from_dict(
        cls, data: dict[str, Any], letter_id: int | None = None
    ) -> "DeadLetter":
        from repro.rules.actions import ActionContext  # local: avoids a cycle

        ctx = data["context"]
        return cls(
            letter_id=data["letter_id"] if letter_id is None else letter_id,
            context=ActionContext(
                rule_uuid=ctx["rule_uuid"],
                action=ctx["action"],
                params=ctx["params"],
                instance_id=ctx["instance_id"],
                document=ctx["document"],
                timestamp=ctx["timestamp"],
            ),
            error=data["error"],
            error_type=data["error_type"],
            traceback=data["traceback"],
            attempts=data["attempts"],
            first_failed_at=data["first_failed_at"],
            deliveries=data.get("deliveries", 1),
        )


class DeadLetterQueue:
    """Bounded dead-letter queue kept in the metadata store's
    ``dead_letters`` table.

    *store* is the :class:`~repro.store.metadata_store.MetadataStore` that
    keeps the letters (a gallery's ``dal.metadata``).  Every engine and
    replica over one store sees the same queue, and on a file-backed store
    the parked actions survive a full restart.  Letters are stored as JSON
    documents beside promoted filter columns (rule_uuid, action,
    error_type); ids are assigned by the store, monotone, and stable across
    restarts.
    """

    def __init__(self, store: Any, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._store = store
        self._max_entries = max_entries
        #: lifetime counters for this process (the letters themselves are
        #: shared; the counters describe local activity)
        self.evicted = 0
        self.redriven_ok = 0

    def append(self, result: "ActionResult") -> DeadLetter:
        """Park a failed :class:`ActionResult`; returns the stored letter."""
        if result.ok:
            raise ValueError("only failed action results are dead-lettered")
        letter = DeadLetter(
            letter_id=0,  # assigned by the store below
            context=result.context,
            error=result.error,
            error_type=result.error_type,
            traceback=result.traceback,
            attempts=result.attempts,
            first_failed_at=result.context.timestamp,
        )
        letter_id = self._store.dead_letter_append(
            result.context.rule_uuid,
            result.context.action,
            result.error_type,
            json.dumps(letter.to_dict()),
        )
        letter = replace(letter, letter_id=letter_id)
        self.evicted += self._store.dead_letters_trim(self._max_entries)
        return letter

    def entries(
        self,
        rule_uuid: str | None = None,
        action: str | None = None,
        error_type: str | None = None,
    ) -> list[DeadLetter]:
        """Parked letters, oldest first, optionally filtered."""
        rows = self._store.dead_letters_list(
            rule_uuid=rule_uuid, action=action, error_type=error_type
        )
        return [
            DeadLetter.from_dict(json.loads(record), letter_id=letter_id)
            for letter_id, record in rows
        ]

    def purge(self, letter_ids: set[int] | None = None) -> int:
        """Drop letters by id (or everything); returns the count dropped."""
        if letter_ids is None:
            letter_ids = {letter_id for letter_id, _ in self._store.dead_letters_list()}
        return self._store.dead_letters_delete(sorted(letter_ids))

    def redrive(
        self,
        registry: "ActionRegistry",
        policy: Any = None,
        letter_ids: set[int] | None = None,
    ) -> list["ActionResult"]:
        """Re-execute parked actions; successes leave the table.

        Letters that fail again are rewritten in place with ``deliveries``
        bumped and their error fields refreshed, so an operator can tell a
        flapping action from a one-shot casualty.  Returns the
        :class:`ActionResult` of every re-execution attempted.
        """
        batch = [
            letter
            for letter in self.entries()
            if letter_ids is None or letter.letter_id in letter_ids
        ]
        results: list["ActionResult"] = []
        succeeded: list[int] = []
        for letter in batch:
            result = registry.execute(letter.context, policy=policy)
            results.append(result)
            if result.ok:
                succeeded.append(letter.letter_id)
                continue
            updated = replace(
                letter,
                deliveries=letter.deliveries + 1,
                error=result.error,
                error_type=result.error_type,
                traceback=result.traceback,
            )
            self._store.dead_letter_update(
                letter.letter_id,
                updated.error_type,
                json.dumps(updated.to_dict()),
            )
        if succeeded:
            self.redriven_ok += self._store.dead_letters_delete(succeeded)
        return results

    def __len__(self) -> int:
        return int(self._store.dead_letters_count())

    def __bool__(self) -> bool:
        return len(self) > 0
