"""The orchestration rule engine (Section 3.7.2, Figure 8).

The engine sits between the Gallery service and storage:

* **Model selection rules** are sent directly to the trigger (Client 1 in
  Figure 8): the job is queued, candidate instances and their metrics are
  read from storage, and the best instance under the rule's comparator is
  returned.
* **Action rules** are registered (checked into the rule repo, Client 2):
  whenever metadata or a metric referenced by a rule changes, an evaluation
  job is queued; if the rule's condition holds for an instance, its callback
  actions fire.

The engine never talks to the registry class directly — it consumes a
:class:`CandidateSource` protocol so it stays agnostic to what is serving
the documents (live registry, service client, or a test fixture).

Evaluation is deterministic: jobs queue in arrival order and are processed
by an explicit :meth:`RuleEngine.drain` (the paper's SLA is "within a
reasonable response time", not "concurrently"), which also makes the
event-vs-polling ablation (ABL-EVENT) measurable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Protocol, Sequence

from repro.core.clock import Clock, SYSTEM_CLOCK
from repro.errors import RuleError, RuleEvaluationError
from repro.reliability.deadletter import DeadLetter, DeadLetterQueue
from repro.reliability.policy import RetryPolicy
from repro.rules.actions import ActionContext, ActionRegistry, ActionResult
from repro.rules.events import Event, EventBus, EventKind
from repro.rules.repo import RuleRepository
from repro.rules.rule import Rule, RuleKind
from repro.store.metadata_store import SQLiteMetadataStore


@dataclass(frozen=True, slots=True)
class CandidateDocument:
    """One instance as the rule engine sees it.

    ``document`` is the flattened search document plus a ``metrics`` mapping
    (latest value per metric name, scope-filtered by the caller).
    """

    instance_id: str
    document: Mapping[str, Any]


class CandidateSource(Protocol):
    """Where the engine gets candidate instances from."""

    def candidate_documents(
        self, environment: str, instance_id: str | None = None
    ) -> Sequence[CandidateDocument]:
        """Candidates visible in *environment*; optionally one instance only."""
        ...


@dataclass(frozen=True, slots=True)
class SelectionResult:
    """Outcome of a model-selection rule evaluation."""

    rule_uuid: str
    instance_id: str | None
    document: Mapping[str, Any] | None
    candidates_considered: int
    candidates_eligible: int


@dataclass(frozen=True, slots=True)
class EvaluationJob:
    """One queued rule evaluation (the job queue of Figure 8)."""

    rule_uuid: str
    event: Event
    instance_scope: str | None = None  # evaluate one instance or all


@dataclass
class EngineStats:
    """Counters for the ablation benchmarks."""

    jobs_enqueued: int = 0
    jobs_processed: int = 0
    candidate_evaluations: int = 0
    actions_fired: int = 0
    wasted_evaluations: int = 0  # evaluations that triggered nothing
    selection_queries: int = 0
    evaluation_errors: int = 0  # rule expressions that failed on a document
    actions_dead_lettered: int = 0  # failures parked for re-drive
    actions_redriven: int = 0  # dead letters re-executed successfully


class RuleEngine:
    """Event-driven evaluator for selection and action rules."""

    def __init__(
        self,
        source: CandidateSource,
        actions: ActionRegistry | None = None,
        clock: Clock | None = None,
        bus: EventBus | None = None,
        action_policy: RetryPolicy | None = None,
        dead_letters: DeadLetterQueue | None = None,
    ) -> None:
        self._source = source
        self.actions = actions or ActionRegistry()
        self._clock = clock or SYSTEM_CLOCK
        self._rules: dict[str, Rule] = {}
        self._queue: deque[EvaluationJob] = deque()
        self._fired: set[tuple[str, str]] = set()  # (rule_uuid, instance_id)
        self._action_log: list[ActionResult] = []
        #: retry schedule applied to every callback action (None = one shot)
        self.action_policy = action_policy
        #: failed actions park here instead of vanishing into the log: in
        #: the source's store when it has one (shared by every replica of
        #: that store), else in a private in-memory SQLite store
        if dead_letters is None:
            dal = getattr(source, "dal", None)
            store = SQLiteMetadataStore(":memory:") if dal is None else dal.metadata
            dead_letters = DeadLetterQueue(store)
        self.dead_letters = dead_letters
        self.stats = EngineStats()
        if bus is not None:
            bus.subscribe(self.on_event)

    # -- rule registration ------------------------------------------------------

    def register(self, rule: Rule) -> None:
        if rule.uuid in self._rules:
            raise RuleError(f"rule {rule.uuid!r} already registered")
        self._rules[rule.uuid] = rule

    def unregister(self, rule_uuid: str) -> None:
        self._rules.pop(rule_uuid, None)

    def sync_from_repo(self, repo: RuleRepository, team: str | None = None) -> int:
        """(Re)load every rule at the repo's HEAD; returns the count loaded."""
        count = 0
        for rule in repo.rules(team):
            self._rules[rule.uuid] = rule
            count += 1
        return count

    def rules(self) -> list[Rule]:
        return list(self._rules.values())

    # -- model selection (Client 1 path) ---------------------------------------

    def select(self, rule: Rule | str) -> SelectionResult:
        """Evaluate a model-selection rule and return the champion.

        Candidates matching GIVEN are filtered by WHEN; the survivor that the
        MODEL_SELECTION comparator prefers over every other survivor wins.
        Returns ``instance_id=None`` when no candidate qualifies — callers
        fall back to their default model.
        """
        rule = self._resolve(rule)
        if rule.kind is not RuleKind.MODEL_SELECTION:
            raise RuleError(f"rule {rule.uuid!r} is not a selection rule")
        self.stats.selection_queries += 1
        candidates = self._source.candidate_documents(rule.environment)
        eligible: list[CandidateDocument] = []
        for candidate in candidates:
            self.stats.candidate_evaluations += 1
            if self._matches(rule, candidate.document):
                eligible.append(candidate)
        best: CandidateDocument | None = None
        for candidate in eligible:
            try:
                preferred = best is None or rule.prefers(
                    candidate.document, best.document
                )
            except RuleEvaluationError:
                # a candidate the comparator cannot score never wins
                self.stats.evaluation_errors += 1
                continue
            if preferred:
                best = candidate
        return SelectionResult(
            rule_uuid=rule.uuid,
            instance_id=best.instance_id if best else None,
            document=best.document if best else None,
            candidates_considered=len(candidates),
            candidates_eligible=len(eligible),
        )

    # -- action rules (Client 2 path) -----------------------------------------

    def on_event(self, event: Event) -> None:
        """Queue evaluation jobs for every action rule the event concerns."""
        for rule in self._rules.values():
            if rule.kind is not RuleKind.ACTION:
                continue
            if not self._relevant(rule, event):
                continue
            scope = event.instance_id or None
            self._queue.append(
                EvaluationJob(rule_uuid=rule.uuid, event=event, instance_scope=scope)
            )
            self.stats.jobs_enqueued += 1

    def trigger(self, rule: Rule | str, event: Event | None = None) -> None:
        """Directly request evaluation of one rule (Figure 8, Client 1 style)."""
        rule = self._resolve(rule)
        event = event or Event(kind=EventKind.DIRECT_TRIGGER, timestamp=self._clock.now())
        self._queue.append(EvaluationJob(rule_uuid=rule.uuid, event=event))
        self.stats.jobs_enqueued += 1

    def drain(self) -> list[ActionResult]:
        """Process every queued job; returns actions fired during the drain."""
        fired: list[ActionResult] = []
        while self._queue:
            job = self._queue.popleft()
            self.stats.jobs_processed += 1
            rule = self._rules.get(job.rule_uuid)
            if rule is None:
                continue  # rule was unregistered while queued
            fired.extend(self._evaluate_action_rule(rule, job.instance_scope))
        return fired

    def poll_all(self) -> list[ActionResult]:
        """Polling-mode evaluation (the ablation baseline, ABL-EVENT).

        Evaluates every registered action rule against every candidate,
        regardless of whether anything changed.
        """
        fired: list[ActionResult] = []
        for rule in self._rules.values():
            if rule.kind is RuleKind.ACTION:
                fired.extend(self._evaluate_action_rule(rule, None))
        return fired

    def action_log(self) -> list[ActionResult]:
        return list(self._action_log)

    # -- dead-letter workflow ---------------------------------------------------

    def dead_letter_entries(
        self, rule_uuid: str | None = None, action: str | None = None
    ) -> list[DeadLetter]:
        """Failed actions awaiting re-drive, oldest first."""
        return self.dead_letters.entries(rule_uuid=rule_uuid, action=action)

    def redrive_dead_letters(
        self, letter_ids: set[int] | None = None
    ) -> list[ActionResult]:
        """Re-execute parked actions (all, or a chosen subset).

        Successes leave the queue and are appended to the action log so the
        audit trail shows the eventual outcome next to the original failure.
        """
        results = self.dead_letters.redrive(
            self.actions, policy=self.action_policy, letter_ids=letter_ids
        )
        for result in results:
            self._action_log.append(result)
            if result.ok:
                self.stats.actions_redriven += 1
        return results

    # -- internals ------------------------------------------------------------

    def _resolve(self, rule: Rule | str) -> Rule:
        if isinstance(rule, Rule):
            return rule
        try:
            return self._rules[rule]
        except KeyError:
            raise RuleError(f"no registered rule {rule!r}") from None

    def _matches(self, rule: Rule, document: Mapping[str, Any]) -> bool:
        """GIVEN and WHEN both hold; expression failures never match.

        A rule that cannot be evaluated against a document (missing field,
        type confusion) must not take down the engine — rules orchestrate
        unrelated teams' models (reliability requirement, Section 3.7.1) —
        and must not accidentally fire either.
        """
        try:
            return rule.applies_to(document) and rule.condition_holds(document)
        except RuleEvaluationError:
            self.stats.evaluation_errors += 1
            return False

    @staticmethod
    def _relevant(rule: Rule, event: Event) -> bool:
        """Does *event* touch data the rule reads (Section 3.7.2)?"""
        if event.kind is EventKind.DIRECT_TRIGGER:
            return True
        if event.kind is EventKind.METRIC_UPDATED:
            return rule.watches_metrics()
        if event.kind is EventKind.INSTANCE_CREATED:
            return True  # a new candidate can satisfy any rule
        if event.kind is EventKind.METADATA_UPDATED:
            changed = set(event.payload.get("fields", ()))
            return bool(changed & rule.referenced_names())
        return False

    def _evaluate_action_rule(
        self, rule: Rule, instance_scope: str | None
    ) -> list[ActionResult]:
        candidates = self._source.candidate_documents(
            rule.environment, instance_id=instance_scope
        )
        fired: list[ActionResult] = []
        for candidate in candidates:
            self.stats.candidate_evaluations += 1
            if not self._matches(rule, candidate.document):
                self.stats.wasted_evaluations += 1
                continue
            key = (rule.uuid, candidate.instance_id)
            if key in self._fired:
                # At-most-once per (rule, instance): a deploy rule must not
                # redeploy the same instance on every subsequent metric write.
                continue
            self._fired.add(key)
            for spec in rule.actions:
                context = ActionContext(
                    rule_uuid=rule.uuid,
                    action=spec.action,
                    params=spec.params,
                    instance_id=candidate.instance_id,
                    document=candidate.document,
                    timestamp=self._clock.now(),
                )
                result = self.actions.execute(context, policy=self.action_policy)
                self._action_log.append(result)
                fired.append(result)
                self.stats.actions_fired += 1
                if not result.ok:
                    self.dead_letters.append(result)
                    self.stats.actions_dead_lettered += 1
        return fired


def build_static_source(
    documents: Iterable[CandidateDocument],
) -> CandidateSource:
    """A fixed candidate source for tests and doc examples."""

    docs = list(documents)

    class _Static:
        def candidate_documents(
            self, environment: str, instance_id: str | None = None
        ) -> Sequence[CandidateDocument]:
            if instance_id is not None:
                return [d for d in docs if d.instance_id == instance_id]
            return list(docs)

    return _Static()
