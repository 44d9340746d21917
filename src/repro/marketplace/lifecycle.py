"""Campaign lifecycle inside the marketplace: phases, specs and handles.

A :class:`CampaignHandle` wraps one :class:`repro.campaign.Campaign` in
the four-phase lifecycle the orchestrator drives tick by tick::

    SELECTING --> SERVING --> DONE
                   ^   |
                   |   v
                 RESELECTING

* **SELECTING** — the campaign's elimination rounds run a configured
  number of rounds per tick; when the selection finishes, the selected
  workers are registered into the shared marketplace and a serving pool
  and :class:`~repro.serving.service.AnnotationService` are built (shared
  marketplace arrivals that qualify on the campaign's domain join too).
* **SERVING** — each tick delivers the answers that came due, submits up
  to ``tasks_per_tick`` new working tasks, and watches the drift
  detector.  When the service raises ``reselection_recommended``, the
  handle checkpoints the campaign via ``Campaign.state_dict()``, abandons
  in-flight work (releasing the routing charges so shared workers are not
  leaked) and enters RESELECTING.
* **RESELECTING** — after ``requalify_ticks`` of re-qualification delay
  the campaign is restored from its checkpoint
  (``Campaign.from_state_dict``), the marketplace re-qualifies the
  candidates from their live serving evidence, and a fresh top-``k`` pool
  resumes SERVING.  Abandoned tasks are re-queued first.
* **DONE** — the task stream is exhausted and no votes are outstanding.

The handle is deliberately marketplace-agnostic about *who* answers: all
worker state (latent accuracies, answer streams, presence) lives in the
:class:`~repro.marketplace.orchestrator.Marketplace`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.campaign import Campaign
from repro.platform.session import BudgetExceededError
from repro.platform.tasks import Task
from repro.serving.pool import ServingPool, ServingWorker
from repro.serving.routing import NoEligibleWorkersError
from repro.serving.service import AnnotationService, ServingConfig, working_task_stream


class CampaignPhase(str, enum.Enum):
    """Lifecycle phase of one campaign inside the marketplace."""

    SELECTING = "selecting"
    SERVING = "serving"
    RESELECTING = "reselecting"
    DONE = "done"


#: Legal phase transitions (enforced by :meth:`CampaignHandle._transition`).
_TRANSITIONS = {
    CampaignPhase.SELECTING: {CampaignPhase.SERVING},
    CampaignPhase.SERVING: {CampaignPhase.RESELECTING, CampaignPhase.DONE},
    CampaignPhase.RESELECTING: {CampaignPhase.SERVING},
    CampaignPhase.DONE: set(),
}


@dataclass(frozen=True)
class CampaignSpec:
    """Recipe of one campaign the orchestrator runs."""

    name: str
    dataset: str
    selector: str = "us"
    k: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a campaign spec needs a non-empty name")
        if ":" in self.name:
            raise ValueError("campaign names must not contain ':' (reserved for worker namespacing)")

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (part of the journal fingerprint)."""
        return {
            "name": self.name,
            "dataset": self.dataset,
            "selector": self.selector,
            "k": self.k,
            "seed": self.seed,
        }


class CampaignHandle:
    """One campaign's lifecycle, driven one tick at a time.

    Parameters
    ----------
    spec:
        The campaign recipe.
    config:
        The orchestrator-wide :class:`~repro.marketplace.orchestrator.MarketplaceConfig`.
    marketplace:
        The shared :class:`~repro.marketplace.orchestrator.Marketplace`
        (worker registry, answer streams, qualification).
    """

    def __init__(self, spec: CampaignSpec, config, marketplace) -> None:
        self.spec = spec
        self._config = config
        self._marketplace = marketplace
        self.phase = CampaignPhase.SELECTING
        self.campaign = Campaign(
            dataset=spec.dataset, selector=spec.selector, k=spec.k, seed=spec.seed
        )
        self.pool: Optional[ServingPool] = None
        self.service: Optional[AnnotationService] = None
        self._tasks: List[Task] = []
        self._task_by_id: Dict[str, Task] = {}
        self._cursor = 0
        self._submitted = 0
        self._retry: Deque[str] = deque()
        self._scheduled: Deque[Tuple[int, str, str]] = deque()
        self._checkpoint: Optional[Dict[str, object]] = None
        self.reselections = 0
        self.stalled_ticks = 0
        self.invalidated_votes = 0
        self.answers_delivered = 0
        self._labels: Dict[str, bool] = {}

    # ------------------------------------------------------------------ #
    @property
    def target_domain(self) -> str:
        return self.campaign.instance.target_domain

    @property
    def tasks_routed(self) -> int:
        """Task submissions so far (a re-queued task counts once per submission)."""
        return self._submitted

    def _transition(self, phase: CampaignPhase) -> None:
        if phase not in _TRANSITIONS[self.phase]:
            raise RuntimeError(f"illegal campaign phase transition {self.phase.value} -> {phase.value}")
        self.phase = phase

    # ------------------------------------------------------------------ #
    # Per-tick driving
    # ------------------------------------------------------------------ #
    def step(self, tick: int) -> Dict[str, object]:
        """Advance one tick; returns this campaign's journal event."""
        event: Dict[str, object] = {"campaign": self.spec.name, "phase": self.phase.value}
        if self.phase is CampaignPhase.SELECTING:
            self._step_selecting(tick, event)
        elif self.phase is CampaignPhase.SERVING:
            self._step_serving(tick, event)
        elif self.phase is CampaignPhase.RESELECTING:
            self._step_reselecting(tick, event)
        event["phase"] = self.phase.value
        return event

    def _step_selecting(self, tick: int, event: Dict[str, object]) -> None:
        for _ in range(self._config.selection_rounds_per_tick):
            if self.campaign.step() is None:
                break
        event["rounds_completed"] = self.campaign.rounds_completed
        if not self.campaign.finished:
            return
        manifest = self.campaign.selection_manifest()
        behaviors = {worker.worker_id: worker for worker in self.campaign.instance.pool}
        members = self._marketplace.register_selected(self, manifest, tick, behaviors=behaviors)
        self._build_serving(members)
        self._tasks = working_task_stream(self.campaign.instance.task_bank, self._config.total_tasks)
        self._task_by_id = {task.task_id: task for task in self._tasks}
        event["selected"] = [worker.worker_id for worker in members]
        self._transition(CampaignPhase.SERVING)

    def _step_serving(self, tick: int, event: Dict[str, object]) -> None:
        assert self.service is not None
        # Deferred-ready tasks (completed by a departure's invalidation)
        # finalise at one pinned point — the start of the next serving
        # step — so their drift demotions land at a fixed place in the
        # tick order.
        self.service.finalize_ready()
        event["delivered"] = self._deliver_due_answers(tick)
        submitted, stalled = self._submit_tasks(tick)
        event["submitted"] = submitted
        event["stalled"] = stalled
        if stalled:
            self.stalled_ticks += 1
        if (
            self.service.reselection_recommended
            and self.reselections < self._config.max_reselections
        ):
            self._enter_reselecting(tick, event)
            return
        event["reselection_triggered"] = False
        if (
            self._cursor >= len(self._tasks)
            and not self._retry
            and not self.service.pending_task_ids
            and not self._scheduled
        ):
            self._merge_labels()
            self.pool.retire()
            self._transition(CampaignPhase.DONE)

    def _step_reselecting(self, tick: int, event: Dict[str, object]) -> None:
        assert self._checkpoint is not None
        if tick < int(self._checkpoint["resume_at_tick"]):
            return
        # Restoring from the checkpoint replays the recorded selection
        # deterministically — the state_dict round-trip is exercised on
        # every drift-triggered re-selection.
        self.campaign = Campaign.from_state_dict(self._checkpoint["campaign"])
        members = self._marketplace.requalify(self, tick)
        if not members:
            # Nobody qualifies right now; retry once churn refills the pool.
            event["reselected"] = []
            return
        self._build_serving(members)
        event["reselected"] = [worker.worker_id for worker in members]
        self.reselections += 1
        self._transition(CampaignPhase.SERVING)

    # ------------------------------------------------------------------ #
    # Serving mechanics
    # ------------------------------------------------------------------ #
    def _build_serving(self, members: List[ServingWorker]) -> None:
        config = self._config
        self.pool = ServingPool(members, policy=config.qualification)
        self.service = AnnotationService(
            self.pool,
            ServingConfig(
                router=config.router,
                votes_per_task=config.votes_per_task,
                max_concurrent=config.max_concurrent,
                aggregator=config.aggregator,
                drift=config.drift,
                reselect_fraction=config.reselect_fraction,
            ),
            # Threaded in by the orchestrator's _setup (None for a handle
            # built outside an orchestrator, e.g. in unit tests).
            telemetry=getattr(self, "_telemetry", None),
            defer_invalidation_finalize=True,
        )

    def _deliver_due_answers(self, tick: int) -> List[List[object]]:
        """Deliver the votes due by ``tick``, drawing their answers in one call.

        The first pass pops the due entries in schedule order and keeps the
        votes still awaited (a departure may have invalidated one after it
        was scheduled); a repeat of a ``(task, worker)`` vote already kept
        is dropped, since delivering the first would have answered it.  One
        :meth:`~repro.marketplace.orchestrator.Marketplace.answer` call then
        draws every kept answer, and the second pass records them in the
        same order.  Recording an answer never changes whether another vote
        is awaited, so this equals delivering the votes one at a time.
        """
        assert self.service is not None
        due: List[Tuple[str, Task]] = []
        kept = set()
        while self._scheduled and self._scheduled[0][0] <= tick:
            _, task_id, worker_id = self._scheduled.popleft()
            if (task_id, worker_id) in kept or not self.service.is_awaiting(task_id, worker_id):
                continue
            kept.add((task_id, worker_id))
            due.append((worker_id, self._task_by_id[task_id]))
        if not due:
            return []
        answers = self._marketplace.answer(self.spec.name, due)
        delivered: List[List[object]] = []
        for (worker_id, task), answer in zip(due, answers):
            self.service.record_answer(task.task_id, worker_id, answer)
            delivered.append([task.task_id, worker_id, answer])
        self.answers_delivered += len(delivered)
        return delivered

    def _next_task(self) -> Optional[Task]:
        if self._retry:
            return self._task_by_id[self._retry[0]]
        if self._cursor < len(self._tasks):
            return self._tasks[self._cursor]
        return None

    def _consume_task(self) -> None:
        if self._retry:
            self._retry.popleft()
        else:
            self._cursor += 1

    def _submit_tasks(self, tick: int) -> Tuple[List[List[object]], bool]:
        assert self.service is not None
        submitted: List[List[object]] = []
        for _ in range(self._config.tasks_per_tick):
            task = self._next_task()
            if task is None:
                break
            try:
                assignment = self.service.submit(task)
            except (NoEligibleWorkersError, BudgetExceededError):
                # The task is not consumed: it waits for capacity.
                return submitted, True
            self._consume_task()
            self._submitted += 1
            due = tick + self._config.answer_delay
            for worker_id in assignment.worker_ids:
                self._scheduled.append((due, task.task_id, worker_id))
            submitted.append([task.task_id, list(assignment.worker_ids)])
        return submitted, False

    def _enter_reselecting(self, tick: int, event: Dict[str, object]) -> None:
        assert self.service is not None
        event["reselection_triggered"] = True
        event["reselection_domains"] = list(self.service.reselection_domains)
        self._merge_labels()
        abandoned = self.service.abandon_pending()
        # The pool is replaced on resume: shared workers stop announcing
        # their changes to it (its service keeps the drift streams that
        # re-qualification reads).
        self.pool.retire()
        self._scheduled.clear()
        for task_id in abandoned:
            self._retry.append(task_id)
        self._checkpoint = {
            "campaign": self.campaign.state_dict(),
            "tick": tick,
            "resume_at_tick": tick + self._config.requalify_ticks,
            "reselection_index": self.reselections,
        }
        event["abandoned"] = list(abandoned)
        self._transition(CampaignPhase.RESELECTING)

    def on_invalidations(self, records: List[Dict[str, object]], tick: int) -> None:
        """React to departure-driven vote invalidations from the marketplace.

        Replacement votes routed by the service get their answers
        scheduled like any other assignment.
        """
        due = tick + self._config.answer_delay
        for record in records:
            self.invalidated_votes += 1
            for worker_id in record["replacements"]:
                self._scheduled.append((due, str(record["task_id"]), str(worker_id)))

    def _merge_labels(self) -> None:
        if self.service is not None:
            self._labels.update(self.service.labels())

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def labels(self) -> Dict[str, bool]:
        """Aggregated labels across all serving segments (later segments win)."""
        merged = dict(self._labels)
        if self.service is not None and self.phase is not CampaignPhase.DONE:
            merged.update(self.service.labels())
        return merged

    def label_accuracy(self) -> Optional[float]:
        """Accuracy of the aggregated labels against the stream's gold labels."""
        labels = self.labels()
        scored = [task_id for task_id in labels if task_id in self._task_by_id]
        if not scored:
            return None
        hits = sum(labels[task_id] == self._task_by_id[task_id].gold_label for task_id in scored)
        return hits / len(scored)

    def summary(self) -> Dict[str, object]:
        """JSON-serialisable final state of this campaign."""
        return {
            "name": self.spec.name,
            "dataset": self.spec.dataset,
            "selector": self.spec.selector,
            "phase": self.phase.value,
            "tasks_routed": self.tasks_routed,
            "answers_delivered": self.answers_delivered,
            "n_labels": len(self.labels()),
            "label_accuracy": self.label_accuracy(),
            "reselections": self.reselections,
            "stalled_ticks": self.stalled_ticks,
            "invalidated_votes": self.invalidated_votes,
        }


__all__ = ["CampaignPhase", "CampaignSpec", "CampaignHandle"]
