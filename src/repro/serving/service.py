"""The annotation service: stream working tasks through the selected pool.

:class:`AnnotationService` is the serving-phase counterpart of
:class:`~repro.platform.session.AnnotationEnvironment`: where the
environment drives the *learning* tasks of the selection phase, the
service drives the *working* tasks afterwards.  Per task it

1. checks the serving budget (one unit per vote, enforced before any
   routing policy is consulted — reusing the platform's
   :class:`~repro.platform.session.BudgetExceededError`);
2. asks the routing policy for ``votes_per_task`` distinct workers (the
   policy charges their in-flight load, bounded by the concurrency cap);
3. records the workers' answers into the online aggregator;
4. once a task's votes are complete, scores each worker's *agreement*
   with the aggregated label and feeds the drift tracker; a drift event
   demotes the worker's qualification one tier and, past the configured
   pool fraction, raises the re-selection signal.

Everything is deterministic under ``(seed, policy)``: the routing trace
and the aggregated labels of two runs with the same configuration are
byte-identical (see :meth:`ServingReport.trace_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.listener import PoolMetricsListener
from repro.obs.timing import perf_counter
from repro.platform.session import BudgetExceededError
from repro.platform.tasks import Task, TaskBank
from repro.serving.aggregation import IncrementalDawidSkene, OnlineMajorityVote
from repro.serving.pool import ServingPool
from repro.serving.quality import DriftConfig, DriftEvent, QualityTracker
from repro.serving.routing import NoEligibleWorkersError, make_router, resolve_router_name

#: ``(worker_id, task) -> answer`` — how a routed worker answers a task.
AnswerOracle = Callable[[str, Task], bool]

#: Schema version stamped into every serialised serving trace, mirroring
#: ``RECORD_SCHEMA_VERSION`` in :mod:`repro.experiments.store`: bump it on
#: any payload-shape change so journaled traces stay forward-compatible.
SERVING_SCHEMA_VERSION = 1

_AGGREGATORS = ("dawid_skene", "majority")


@dataclass(frozen=True)
class ServingConfig:
    """Configuration of one serving run.

    Attributes
    ----------
    router:
        Registered routing-policy name (``repro.serving.router_names()``).
    votes_per_task:
        Distinct workers asked per working task.
    max_concurrent:
        Per-worker in-flight assignment cap, applied when the pool is
        built from this config (:meth:`repro.campaign.Campaign.serving_service`
        / :meth:`ServingPool.from_selection`).  A caller-built pool keeps
        the caps already set on its :class:`~repro.serving.pool.ServingWorker`
        entries; the routing policies enforce whichever cap the pool
        carries.
    max_assignments:
        Serving budget in vote units; ``None`` means unlimited.
    aggregator:
        ``"dawid_skene"`` (incremental, confusion-aware; final labels come
        from the exact EM replay) or ``"majority"``.
    drift:
        EWMA drift-detection tuning.
    reselect_fraction:
        Fraction of the pool that must drift on one domain before the
        re-selection signal is raised for it.
    seed:
        Root seed of the serving run (consumed by the answer simulation).
    """

    router: str = "domain_affinity"
    votes_per_task: int = 3
    max_concurrent: int = 8
    max_assignments: Optional[int] = None
    aggregator: str = "dawid_skene"
    drift: DriftConfig = field(default_factory=DriftConfig)
    reselect_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.votes_per_task <= 0:
            raise ValueError("votes_per_task must be positive")
        if self.max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive")
        if self.max_assignments is not None and self.max_assignments <= 0:
            raise ValueError("max_assignments must be positive when given")
        if self.aggregator not in _AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}; choose from: {', '.join(_AGGREGATORS)}")
        if not 0.0 < self.reselect_fraction <= 1.0:
            raise ValueError("reselect_fraction must lie in (0, 1]")
        # Resolving eagerly rejects unknown router names at config time.
        resolve_router_name(self.router)


@dataclass(frozen=True)
class TaskAssignment:
    """One routed working task: which workers were asked."""

    task_id: str
    domain: str
    worker_ids: Tuple[str, ...]

    # repro: allow[C004] -- nested sub-record; schema_version is stamped by the enclosing report
    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {"task_id": self.task_id, "domain": self.domain, "worker_ids": list(self.worker_ids)}


@dataclass(frozen=True)
class ServingReport:
    """Outcome of one serving run (JSON-serialisable via ``to_dict``)."""

    router: str
    aggregator: str
    n_tasks_routed: int
    n_answers: int
    assignments: List[TaskAssignment]
    labels: Dict[str, bool]
    drift_events: List[DriftEvent]
    demotions: List[Dict[str, str]]
    reselection_recommended: bool
    spent_assignments: int
    max_assignments: Optional[int]
    budget_exhausted: bool
    capacity_exhausted: bool
    label_accuracy: Optional[float]
    worker_load: Dict[str, Dict[str, int]]
    elapsed_s: float
    reselection_domains: List[str] = field(default_factory=list)
    invalidations: List[Dict[str, object]] = field(default_factory=list)

    @property
    def tasks_per_second(self) -> float:
        """Routed-task throughput of the run (0 when nothing was timed)."""
        return self.n_tasks_routed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def trace_dict(self) -> Dict[str, object]:
        """The deterministic subset: identical across runs of one (seed, policy)."""
        return {
            "schema_version": SERVING_SCHEMA_VERSION,
            "router": self.router,
            "aggregator": self.aggregator,
            "n_tasks_routed": self.n_tasks_routed,
            "n_answers": self.n_answers,
            "assignments": [assignment.to_dict() for assignment in self.assignments],
            "labels": dict(self.labels),
            "drift_events": [event.to_dict() for event in self.drift_events],
            "demotions": list(self.demotions),
            "invalidations": list(self.invalidations),
            "reselection_recommended": self.reselection_recommended,
            "reselection_domains": list(self.reselection_domains),
            "spent_assignments": self.spent_assignments,
            "max_assignments": self.max_assignments,
            "budget_exhausted": self.budget_exhausted,
            "capacity_exhausted": self.capacity_exhausted,
            "label_accuracy": self.label_accuracy,
            "worker_load": dict(self.worker_load),
        }

    def to_dict(self) -> Dict[str, object]:
        """Full JSON payload (adds the run's wall-clock timing)."""
        payload = self.trace_dict()
        payload["elapsed_s"] = self.elapsed_s
        payload["tasks_per_second"] = self.tasks_per_second
        return payload


@dataclass
class _PendingTask:
    """A routed task waiting for its votes to complete."""

    task: Task
    expected: Tuple[str, ...]
    answers: Dict[str, bool] = field(default_factory=dict)


class _ServiceMetrics:
    """The serving metric families (one object per instrumented service).

    Families are resolved once at construction.  A label-less family caches
    its one child on first use, so a never-touched family keeps no series;
    the two ``agreed`` children are bound here, and ``drift_demotions`` is
    resolved per domain.  The serving loop pays a single ``is None`` check
    when telemetry is off.
    """

    __slots__ = (
        "tasks_submitted",
        "votes_requested",
        "votes_assigned",
        "answers_recorded",
        "agreed",
        "disagreed",
        "tasks_finalized",
        "votes_invalidated",
        "votes_reassigned",
        "drift_demotions",
        "elapsed",
    )

    def __init__(self, registry) -> None:
        self.tasks_submitted = registry.counter(
            "serving.tasks.submitted", "tasks accepted by AnnotationService.submit()"
        )
        self.votes_requested = registry.counter(
            "serving.votes.requested",
            "votes requested across submitted tasks (before budget clamping)",
        )
        self.votes_assigned = registry.counter(
            "serving.votes.assigned", "vote assignments actually routed to workers"
        )
        self.answers_recorded = registry.counter(
            "serving.answers.recorded", "worker answers ingested by record_answer()"
        )
        agreement = registry.counter(
            "serving.answers.agreement",
            "per-answer agreement with the finalized task label",
            ("agreed",),
        )
        self.agreed = agreement.labels("true")
        self.disagreed = agreement.labels("false")
        self.tasks_finalized = registry.counter(
            "serving.tasks.finalized", "tasks finalized with a label"
        )
        self.votes_invalidated = registry.counter(
            "serving.votes.invalidated",
            "in-flight votes invalidated by worker departure/demotion",
        )
        self.votes_reassigned = registry.counter(
            "serving.votes.reassigned",
            "invalidated votes successfully re-routed to replacement workers",
        )
        self.drift_demotions = registry.counter(
            "serving.drift.demotions",
            "drift-triggered qualification demotions applied by the service",
            ("domain",),
        )
        self.elapsed = registry.gauge(
            "serving.serve.elapsed_seconds",
            "wall-clock duration of the last serve() run",
            volatile=True,
        )


class AnnotationService:
    """Drive the annotation phase over a :class:`ServingPool`.

    Parameters
    ----------
    pool:
        The serving pool built from a finished selection.
    config:
        Serving configuration (routing policy, votes, budget, drift).
    answer_oracle:
        How routed workers answer (required for :meth:`process` /
        :meth:`serve`; the submit/record API works without it).
    telemetry:
        Optional :class:`repro.obs.config.Telemetry` bundle.  Deliberately
        *not* part of :class:`ServingConfig` — the config is fingerprinted
        into traces, and telemetry must never change a run's outputs.
        ``None`` (or a disabled bundle) leaves every hot path with a
        single ``is None`` check.
    """

    def __init__(
        self,
        pool: ServingPool,
        config: Optional[ServingConfig] = None,
        answer_oracle: Optional[AnswerOracle] = None,
        telemetry=None,
        defer_invalidation_finalize: bool = False,
    ) -> None:
        self._pool = pool
        self._config = config or ServingConfig()
        self._answer_oracle = answer_oracle
        # With deferral on (the marketplace), a task whose remaining votes
        # are all in after an invalidation stays pending until
        # finalize_ready() drains it at the next campaign step — pinning
        # drift demotions to one fixed point in the tick order.
        self._defer_invalidation_finalize = bool(defer_invalidation_finalize)
        self._gold_labels: Dict[str, bool] = {}
        self._router = make_router(self._config.router, pool)
        self._aggregator: Union[IncrementalDawidSkene, OnlineMajorityVote]
        if self._config.aggregator == "majority":
            self._aggregator = OnlineMajorityVote()
        else:
            self._aggregator = IncrementalDawidSkene()
        self._tracker = QualityTracker(self._config.drift)
        self._assignments: List[TaskAssignment] = []
        self._pending: Dict[str, _PendingTask] = {}
        self._demotions: List[Dict[str, str]] = []
        self._invalidations: List[Dict[str, object]] = []
        self._spent_assignments = 0
        self._budget_exhausted = False
        self._capacity_exhausted = False
        self._elapsed_s = 0.0
        self._telemetry = telemetry if telemetry is not None and telemetry.enabled else None
        self._metrics: Optional[_ServiceMetrics] = None
        if self._telemetry is not None:
            registry = self._telemetry.registry
            self._metrics = _ServiceMetrics(registry)
            # Third-party routers may not subclass BaseRouter; route
            # metrics are then simply not collected for them.
            bind = getattr(self._router, "bind_telemetry", None)
            if bind is not None:
                bind(self._telemetry)
            self._tracker.bind_metrics(registry)
            self._aggregator.bind_metrics(registry)
            PoolMetricsListener(
                registry, load_events=self._telemetry.config.pool_load_events
            ).attach(pool)
        # The service listens on the pool bus itself (besides its router):
        # a departure drops the worker's drift streams, bounding tracker
        # memory on churny open-world pools.
        pool.add_listener(self)

    def on_worker_removed(self, worker_id: str) -> None:
        """Pool-bus hook: forget a departed worker's drift streams."""
        self._tracker.forget_worker(worker_id)

    # ------------------------------------------------------------------ #
    @property
    def pool(self) -> ServingPool:
        return self._pool

    @property
    def config(self) -> ServingConfig:
        return self._config

    @property
    def tracker(self) -> QualityTracker:
        return self._tracker

    @property
    def spent_assignments(self) -> int:
        return self._spent_assignments

    @property
    def remaining_assignments(self) -> Optional[int]:
        """Votes left under the serving budget (``None`` = unlimited)."""
        if self._config.max_assignments is None:
            return None
        return self._config.max_assignments - self._spent_assignments

    @property
    def reselection_domains(self) -> List[str]:
        """Domains whose drifted-worker count crossed the re-selection threshold (sorted)."""
        drifted_by_domain: Dict[str, set] = {}
        for event in self._tracker.events:
            drifted_by_domain.setdefault(event.domain, set()).add(event.worker_id)
        threshold = self._config.reselect_fraction * len(self._pool)
        return sorted(
            domain for domain, workers in drifted_by_domain.items() if len(workers) >= threshold
        )

    @property
    def reselection_recommended(self) -> bool:
        """Whether enough of the pool drifted on one domain to warrant a fresh campaign."""
        return bool(self.reselection_domains)

    @property
    def demotions(self) -> List[Dict[str, str]]:
        """Qualification demotions so far (drift events that cost a tier)."""
        return list(self._demotions)

    @property
    def invalidations(self) -> List[Dict[str, object]]:
        """In-flight vote invalidations so far (see :meth:`invalidate_worker`)."""
        return list(self._invalidations)

    @property
    def pending_task_ids(self) -> List[str]:
        """Ids of routed tasks still waiting for votes, in routing order."""
        return list(self._pending)

    def is_awaiting(self, task_id: str, worker_id: str) -> bool:
        """Whether ``worker_id`` still owes an answer on ``task_id``."""
        pending = self._pending.get(task_id)
        return (
            pending is not None
            and worker_id in pending.expected
            and worker_id not in pending.answers
        )

    # ------------------------------------------------------------------ #
    # Low-level serving API
    # ------------------------------------------------------------------ #
    def submit(self, task: Task) -> TaskAssignment:
        """Route one working task; charges budget and in-flight load.

        Raises
        ------
        BudgetExceededError
            When not a single vote is left under the serving budget.
        NoEligibleWorkersError
            When no eligible worker has spare capacity.
        """
        if task.task_id in self._pending:
            raise ValueError(f"task {task.task_id!r} is already in flight")
        votes = self._config.votes_per_task
        remaining = self.remaining_assignments
        if remaining is not None:
            if remaining <= 0:
                raise BudgetExceededError(
                    f"serving budget of {self._config.max_assignments} assignments is exhausted"
                )
            votes = min(votes, remaining)
        worker_ids = self._router.route(task.domain, votes)
        self._spent_assignments += len(worker_ids)
        metrics = self._metrics
        if metrics is not None:
            metrics.tasks_submitted.inc()
            metrics.votes_requested.inc(self._config.votes_per_task)
            metrics.votes_assigned.inc(len(worker_ids))
        self._gold_labels[task.task_id] = task.gold_label
        assignment = TaskAssignment(task_id=task.task_id, domain=task.domain, worker_ids=tuple(worker_ids))
        self._assignments.append(assignment)
        self._pending[task.task_id] = _PendingTask(task=task, expected=assignment.worker_ids)
        return assignment

    def record_answer(self, task_id: str, worker_id: str, answer: bool) -> None:
        """Record one worker's answer to a routed task."""
        pending = self._pending.get(task_id)
        if pending is None:
            raise KeyError(f"task {task_id!r} has no pending assignment")
        if worker_id not in pending.expected:
            raise KeyError(f"worker {worker_id!r} was not assigned task {task_id!r}")
        if worker_id in pending.answers:
            raise ValueError(f"worker {worker_id!r} already answered task {task_id!r}")
        pending.answers[worker_id] = bool(answer)
        self._aggregator.add(task_id, worker_id, bool(answer))
        self._pool.complete_assignment(worker_id)
        if self._metrics is not None:
            self._metrics.answers_recorded.inc()
        if len(pending.answers) == len(pending.expected):
            self._finalize(task_id, pending)

    def _finalize(self, task_id: str, pending: _PendingTask) -> None:
        """Score agreement and run drift detection once all votes are in."""
        del self._pending[task_id]
        label = self._aggregator.label(task_id)
        domain = pending.task.domain
        metrics = self._metrics
        for worker_id in pending.expected:
            agreed = pending.answers[worker_id] == label
            if metrics is not None:
                (metrics.agreed if agreed else metrics.disagreed).inc()
            event = self._tracker.observe(worker_id, domain, agreed)
            if event is not None:
                new_tier = self._pool.demote(worker_id, domain)
                self._demotions.append(
                    {"worker_id": worker_id, "domain": domain, "new_tier": new_tier.name.lower()}
                )
                if metrics is not None:
                    metrics.drift_demotions.labels(domain).inc()
        if metrics is not None:
            metrics.tasks_finalized.inc()

    def invalidate_worker(self, worker_id: str, reassign: bool = True) -> List[Dict[str, object]]:
        """Invalidate every unanswered in-flight vote held by ``worker_id``.

        Called when a worker departs the marketplace mid-assignment: each
        vote the worker still owes is released (the routing charge and the
        budget spend are rolled back — the work never happened) and, when
        ``reassign`` is set and budget remains, re-routed to one worker not
        already on the task.  Answers the worker already gave stay counted.
        A task whose expected-vote set empties is abandoned entirely; one
        whose remaining votes are all in is finalised immediately.

        Returns the invalidation records (also accumulated on
        :attr:`invalidations` and in the serving report), each carrying
        ``task_id``, ``domain``, ``worker_id``, ``replacements`` and
        ``abandoned``.
        """
        invalidated: List[Dict[str, object]] = []
        for task_id in list(self._pending):
            pending = self._pending[task_id]
            if worker_id not in pending.expected or worker_id in pending.answers:
                continue
            self._pool.release_assignment(worker_id)
            self._spent_assignments -= 1
            exclude = set(pending.expected) | {worker_id}
            pending.expected = tuple(w for w in pending.expected if w != worker_id)
            replacements: List[str] = []
            if reassign and (self.remaining_assignments is None or self.remaining_assignments > 0):
                replacements = self._router.route_excluding(pending.task.domain, 1, exclude)
                self._spent_assignments += len(replacements)
                pending.expected = pending.expected + tuple(replacements)
            if self._metrics is not None:
                self._metrics.votes_invalidated.inc()
                self._metrics.votes_reassigned.inc(len(replacements))
            record: Dict[str, object] = {
                "task_id": task_id,
                "domain": pending.task.domain,
                "worker_id": worker_id,
                "replacements": list(replacements),
                "abandoned": not pending.expected,
            }
            invalidated.append(record)
            self._invalidations.append(record)
            if not pending.expected:
                del self._pending[task_id]
            elif len(pending.answers) == len(pending.expected) and not self._defer_invalidation_finalize:
                self._finalize(task_id, pending)
        return invalidated

    def finalize_ready(self) -> List[str]:
        """Finalise deferred-ready tasks (all remaining votes already in).

        Only invalidations can leave a complete task pending (and only
        under ``defer_invalidation_finalize``) — :meth:`record_answer`
        finalises inline.  Returns the finalised task ids in routing
        order.  The marketplace lifecycle drains this at the *start* of
        every serving step, before answer delivery.
        """
        finalized: List[str] = []
        for task_id in list(self._pending):
            pending = self._pending[task_id]
            if pending.expected and len(pending.answers) == len(pending.expected):
                self._finalize(task_id, pending)
                finalized.append(task_id)
        return finalized

    def abandon_pending(self) -> List[str]:
        """Drop every in-flight task, releasing its unanswered routing charges.

        Called when a campaign leaves its serving segment (drift-triggered
        re-selection): without the release, shared marketplace workers
        would keep phantom in-flight load and starve other campaigns.
        Returns the abandoned task ids in routing order so the caller can
        re-queue them.
        """
        abandoned: List[str] = []
        for task_id in list(self._pending):
            pending = self._pending.pop(task_id)
            for worker_id in pending.expected:
                if worker_id not in pending.answers:
                    self._pool.release_assignment(worker_id)
                    self._spent_assignments -= 1
            abandoned.append(task_id)
        return abandoned

    # ------------------------------------------------------------------ #
    # Simulated serving loop
    # ------------------------------------------------------------------ #
    def process(self, task: Task) -> TaskAssignment:
        """Submit one task and collect the oracle's answers for it."""
        if self._answer_oracle is None:
            raise RuntimeError("process() requires an answer_oracle; use submit()/record_answer() instead")
        assignment = self.submit(task)
        for worker_id in assignment.worker_ids:
            self.record_answer(task.task_id, worker_id, self._answer_oracle(worker_id, task))
        return assignment

    def serve(self, tasks: Sequence[Task]) -> ServingReport:
        """Drive a stream of working tasks to completion and report.

        Stops early (without raising) when the serving budget runs out
        (``budget_exhausted``) or capacity disappears entirely
        (``capacity_exhausted``); the report records which.
        """
        start = perf_counter()
        for task in tasks:
            try:
                self.process(task)
            except BudgetExceededError:
                self._budget_exhausted = True
                break
            except NoEligibleWorkersError:
                self._capacity_exhausted = True
                break
        self._elapsed_s += perf_counter() - start
        if self._metrics is not None:
            self._metrics.elapsed.set(self._elapsed_s)
        return self.report()

    # ------------------------------------------------------------------ #
    def labels(self) -> Dict[str, bool]:
        """Current aggregated labels, in first-routed order."""
        if isinstance(self._aggregator, IncrementalDawidSkene) and self._aggregator.n_answers > 0:
            return self._aggregator.converged_labels()
        return self._aggregator.labels()

    def report(self) -> ServingReport:
        """Snapshot the serving run into a :class:`ServingReport`."""
        labels = self.labels()
        label_accuracy: Optional[float] = None
        scored = [task_id for task_id in labels if task_id in self._gold_labels]
        if scored:
            hits = sum(labels[task_id] == self._gold_labels[task_id] for task_id in scored)
            label_accuracy = hits / len(scored)
        return ServingReport(
            router=self._router.name,
            aggregator=self._config.aggregator,
            n_tasks_routed=len(self._assignments),
            n_answers=self._aggregator.n_answers,
            assignments=list(self._assignments),
            labels=labels,
            drift_events=self._tracker.events,
            demotions=list(self._demotions),
            reselection_recommended=self.reselection_recommended,
            spent_assignments=self._spent_assignments,
            max_assignments=self._config.max_assignments,
            budget_exhausted=self._budget_exhausted,
            capacity_exhausted=self._capacity_exhausted,
            label_accuracy=label_accuracy,
            worker_load=self._pool.load_snapshot(),
            elapsed_s=self._elapsed_s,
            reselection_domains=self.reselection_domains,
            invalidations=list(self._invalidations),
        )


def working_task_stream(task_bank: TaskBank, n_tasks: Optional[int] = None) -> List[Task]:
    """A deterministic stream of working tasks from a task bank.

    Cycles the bank's working tasks in order when ``n_tasks`` exceeds the
    bank size; cycled replicas get distinct ids (``...#r<cycle>``) so the
    aggregators treat each occurrence as a fresh task.
    """
    if not task_bank.working_tasks:
        raise ValueError("the task bank holds no working tasks")
    if n_tasks is None:
        n_tasks = task_bank.n_working
    if n_tasks < 0:
        raise ValueError("n_tasks must be non-negative")
    stream: List[Task] = []
    n = task_bank.n_working
    for index in range(n_tasks):
        task = task_bank.working_tasks[index % n]
        cycle = index // n
        if cycle == 0:
            stream.append(task)
        else:
            stream.append(
                Task(
                    task_id=f"{task.task_id}#r{cycle}",
                    domain=task.domain,
                    kind=task.kind,
                    gold_label=task.gold_label,
                    prompt=task.prompt,
                )
            )
    return stream


__all__ = [
    "AnswerOracle",
    "SERVING_SCHEMA_VERSION",
    "ServingConfig",
    "TaskAssignment",
    "ServingReport",
    "AnnotationService",
    "working_task_stream",
]
