"""The serving pool: selected workers, their qualifications and their load.

A :class:`ServingPool` is the mutable state the routing policies operate
on: for every selected worker it tracks per-domain
:class:`~repro.serving.qualification.DomainQualification`, the number of
in-flight assignments (bounded by a per-worker concurrency cap) and
lifetime assignment counters.  It is deliberately free of routing logic —
policies read eligibility and load here and write assignments back through
:meth:`begin_assignment` / :meth:`complete_assignment`, so every policy
enforces the same caps by construction.

Pool membership and qualification state are *mutable*: the marketplace
orchestrator adds workers as they arrive (prestudy-qualified), removes
them when they churn out, and re-qualifies returners; drift detection
demotes workers mid-run.  Because routing policies keep derived state
(the ``least_loaded`` heap, the ``domain_affinity`` qualification
indexes), every such mutation flows through an explicit change-event bus:
listeners registered via :meth:`add_listener` receive

``on_worker_added(worker_id)`` / ``on_worker_removed(worker_id)``
    membership changes (:meth:`add_worker` / :meth:`remove_worker`);
``on_qualification_changed(worker_id, domain)``
    a worker's tier or estimate on one domain changed (:meth:`demote`,
    :meth:`set_qualification`, or an external mutation announced via
    :meth:`notify_qualification_changed`);
``on_load_changed(worker_id)``
    an in-flight slot was charged or released (:meth:`begin_assignment`,
    :meth:`complete_assignment`, :meth:`release_assignment`, or through
    another pool sharing the worker, announced via
    :meth:`notify_load_changed`).

so a router can never silently route off stale internal state.  Hooks a
listener does not define are skipped; hooks decorated with
:func:`pool_event_noop` are skipped too, *without even a call* — dispatch
is pre-bound per hook when the listener subscribes, which keeps the
high-frequency load events free for routers that don't care about load.

Freed slots take one more path that is not a listener hook: the
``domain_affinity`` index parks saturated workers off its rankings and
registers itself on the worker (``ServingWorker.parked_in``), so
:meth:`complete_assignment` and :meth:`release_assignment` re-admit the
worker in every index that parked it — also the indexes of other
marketplace pools sharing the worker — without a per-vote load event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.serving.qualification import (
    DomainQualification,
    QualificationPolicy,
    QualificationTier,
    qualification_for,
)
from repro.workers.profile import WorkerProfile

#: Every hook the pool change-event bus dispatches, in event order.
POOL_EVENT_HOOKS = (
    "on_worker_added",
    "on_worker_removed",
    "on_qualification_changed",
    "on_load_changed",
)


def pool_event_noop(method):
    """Mark a listener hook as a deliberate no-op.

    The pool's dispatch skips hooks carrying this marker entirely (they
    are left out of the pre-bound callback lists), so a router that
    defines the full listener protocol but ignores, say, load events pays
    nothing for them.  Used on the default hooks of ``BaseRouter``.
    """
    method.__pool_event_noop__ = True
    return method


@dataclass
class ServingWorker:
    """One selected worker as the serving layer sees it."""

    worker_id: str
    qualifications: Dict[str, DomainQualification] = field(default_factory=dict)
    max_concurrent: int = 8
    active: int = 0
    assigned_total: int = 0
    completed_total: int = 0
    #: Routing indexes that took this worker off their rankings while it
    #: was saturated (:class:`~repro.serving.index.DomainIndexSet`).  The
    #: record is shared by every marketplace pool holding the worker, so a
    #: slot freed through any of them re-admits it everywhere.
    parked_in: List[object] = field(default_factory=list, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive")

    @property
    def has_capacity(self) -> bool:
        return self.active < self.max_concurrent

    def tier_on(self, domain: str) -> QualificationTier:
        qualification = self.qualifications.get(domain)
        return qualification.tier if qualification is not None else QualificationTier.UNQUALIFIED

    def estimate_on(self, domain: str) -> float:
        qualification = self.qualifications.get(domain)
        return qualification.estimate if qualification is not None else 0.0


def _readmit(worker: ServingWorker) -> None:
    """Tell every index that parked ``worker`` that one of its slots freed."""
    for index in tuple(worker.parked_in):
        index.on_load_changed(worker.worker_id)


class ServingPool:
    """Ordered collection of :class:`ServingWorker` with load accounting.

    ``policy`` records the qualification policy the workers were qualified
    under; :meth:`demote` consults it so a pool built with
    ``allow_fallback=False`` never demotes a worker *into* the fallback
    tier it promised to never route to.
    """

    def __init__(
        self,
        workers: Iterable[ServingWorker],
        policy: Optional[QualificationPolicy] = None,
    ) -> None:
        self._policy = policy
        self._workers: Dict[str, ServingWorker] = {}
        self._listeners: List[object] = []
        self._hooks: Dict[str, List[object]] = {hook: [] for hook in POOL_EVENT_HOOKS}
        for worker in workers:
            if worker.worker_id in self._workers:
                raise ValueError(f"duplicate worker id: {worker.worker_id!r}")
            self._workers[worker.worker_id] = worker
        if not self._workers:
            raise ValueError("a serving pool must contain at least one worker")

    # ------------------------------------------------------------------ #
    # Construction from a finished selection
    # ------------------------------------------------------------------ #
    @classmethod
    def from_selection(
        cls,
        worker_ids: Iterable[str],
        target_domain: str,
        target_estimates: Mapping[str, float],
        training_questions: Mapping[str, int],
        profiles: Mapping[str, WorkerProfile],
        policy: Optional[QualificationPolicy] = None,
        max_concurrent: int = 8,
    ) -> "ServingPool":
        """Qualify the selected workers from CPE estimates and history.

        Parameters
        ----------
        worker_ids:
            The selected workers, in selection order.
        target_domain:
            The campaign's target domain.
        target_estimates:
            The selector's final per-worker accuracy estimate (CPE or
            observed); workers missing here fall back to estimate 0.
        training_questions:
            Golden learning tasks each worker answered during selection.
        profiles:
            Historical ``(h_i, n_i)`` profiles; each prior domain with a
            record becomes an additional qualification.
        """
        policy = policy or QualificationPolicy()
        workers: List[ServingWorker] = []
        for worker_id in worker_ids:
            qualifications: Dict[str, DomainQualification] = {
                target_domain: qualification_for(
                    policy,
                    worker_id,
                    target_domain,
                    estimate=float(target_estimates.get(worker_id, 0.0)),
                    questions=int(training_questions.get(worker_id, 0)),
                )
            }
            profile = profiles.get(worker_id)
            if profile is not None:
                for domain in profile.domains:
                    qualifications[domain] = qualification_for(
                        policy,
                        worker_id,
                        domain,
                        estimate=profile.accuracies[domain],
                        questions=profile.task_counts[domain],
                    )
            workers.append(
                ServingWorker(
                    worker_id=worker_id,
                    qualifications=qualifications,
                    max_concurrent=max_concurrent,
                )
            )
        return cls(workers, policy=policy)

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._workers

    def __getitem__(self, worker_id: str) -> ServingWorker:
        try:
            return self._workers[worker_id]
        except KeyError:
            raise KeyError(f"unknown worker id: {worker_id!r}") from None

    def get(self, worker_id: str) -> Optional[ServingWorker]:
        """The worker record, or ``None`` when not (or no longer) a member.

        The non-raising lookup the indexes use to validate entries on the
        routing hot path, where departed workers are expected.
        """
        return self._workers.get(worker_id)

    @property
    def worker_ids(self) -> List[str]:
        """All worker identifiers in pool order."""
        return list(self._workers)

    @property
    def workers(self) -> List[ServingWorker]:
        """All serving workers in pool order."""
        return list(self._workers.values())

    # ------------------------------------------------------------------ #
    # Change-event bus (membership, qualification and load mutation)
    # ------------------------------------------------------------------ #
    def add_listener(self, listener: object) -> None:
        """Subscribe to pool change events.

        ``listener`` may implement any of the :data:`POOL_EVENT_HOOKS`;
        missing or :func:`pool_event_noop`-marked hooks are skipped.  The
        routing policies subscribe themselves at construction so their
        derived state (the ``least_loaded`` heap, the ``domain_affinity``
        indexes) is invalidated the moment the pool mutates.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)
            self._rebind_hooks()

    def discard_listener(self, listener: object) -> None:
        """Unsubscribe a listener (no-op when it was never subscribed)."""
        if listener in self._listeners:
            self._listeners.remove(listener)
            self._rebind_hooks()

    def _rebind_hooks(self) -> None:
        """Pre-bind the dispatch lists so ``_notify`` is one list walk.

        Binding happens at (un)subscription time, not per event: the load
        hooks fire on every single vote, and resolving ``getattr`` plus a
        no-op marker check there would put listener bookkeeping on the
        routing hot path.
        """
        for hook in POOL_EVENT_HOOKS:
            callbacks: List[object] = []
            for listener in self._listeners:
                callback = getattr(listener, hook, None)
                if callback is not None and not getattr(callback, "__pool_event_noop__", False):
                    callbacks.append(callback)
            self._hooks[hook] = callbacks

    def has_listeners(self, hook: str) -> bool:
        """Whether any subscribed listener handles ``hook`` (no-op hooks excluded)."""
        return bool(self._hooks[hook])

    def _notify(self, hook: str, *args: str) -> None:
        for callback in self._hooks[hook]:
            callback(*args)

    def add_worker(self, worker: ServingWorker) -> None:
        """Admit one worker into the pool (marketplace arrival)."""
        if worker.worker_id in self._workers:
            raise ValueError(f"duplicate worker id: {worker.worker_id!r}")
        self._workers[worker.worker_id] = worker
        self._notify("on_worker_added", worker.worker_id)

    def remove_worker(self, worker_id: str) -> ServingWorker:
        """Remove one worker (marketplace departure); returns its record.

        In-flight assignments are *not* released here — the caller
        invalidates pending votes first (``release_assignment`` /
        :meth:`~repro.serving.service.AnnotationService.invalidate_worker`)
        while the worker is still a member.  Removal may empty the pool;
        routers then raise ``NoEligibleWorkersError`` until an arrival
        refills it.
        """
        if worker_id not in self._workers:
            raise KeyError(f"unknown worker id: {worker_id!r}")
        worker = self._workers.pop(worker_id)
        self._notify("on_worker_removed", worker_id)
        return worker

    # ------------------------------------------------------------------ #
    # Eligibility and load
    # ------------------------------------------------------------------ #
    def eligible(self, domain: str, min_tier: QualificationTier = QualificationTier.FALLBACK) -> List[str]:
        """Workers allowed on ``domain`` at ``min_tier`` or better, in pool order.

        Concurrency caps are *not* applied here — a policy may want to know
        the full eligible set even when everyone is momentarily busy.
        """
        return [w.worker_id for w in self._workers.values() if w.tier_on(domain) >= min_tier]

    def available(self, domain: str, min_tier: QualificationTier = QualificationTier.FALLBACK) -> List[str]:
        """Eligible workers that also have spare concurrency capacity."""
        return [
            w.worker_id
            for w in self._workers.values()
            if w.tier_on(domain) >= min_tier and w.has_capacity
        ]

    def begin_assignment(self, worker_id: str) -> None:
        """Charge one in-flight assignment to the worker (cap enforced)."""
        worker = self[worker_id]
        if not worker.has_capacity:
            raise RuntimeError(
                f"worker {worker_id!r} is at its concurrency cap ({worker.max_concurrent})"
            )
        worker.active += 1
        worker.assigned_total += 1
        self._notify("on_load_changed", worker_id)

    def complete_assignment(self, worker_id: str) -> None:
        """Release one in-flight assignment (answer received or abandoned)."""
        worker = self[worker_id]
        if worker.active <= 0:
            raise RuntimeError(f"worker {worker_id!r} has no in-flight assignment to complete")
        worker.active -= 1
        worker.completed_total += 1
        if worker.parked_in:
            _readmit(worker)
        self._notify("on_load_changed", worker_id)

    def release_assignment(self, worker_id: str) -> None:
        """Undo a routing charge without counting it as completed work.

        Used when an in-flight vote is invalidated (the worker departed,
        or a ``route_excluding`` pick turned out to be surplus): the
        in-flight slot frees up and the lifetime ``assigned_total`` charge
        is rolled back, so load-based routing is not skewed by work that
        never happened.
        """
        worker = self[worker_id]
        if worker.active <= 0:
            raise RuntimeError(f"worker {worker_id!r} has no in-flight assignment to release")
        worker.active -= 1
        worker.assigned_total -= 1
        if worker.parked_in:
            _readmit(worker)
        self._notify("on_load_changed", worker_id)

    def demote(self, worker_id: str, domain: str) -> QualificationTier:
        """Drop the worker one tier on ``domain``; returns the new tier.

        Under a policy with ``allow_fallback=False`` the fallback tier is
        skipped: a qualified worker demotes straight to unqualified.
        """
        worker = self[worker_id]
        qualification = worker.qualifications.get(domain)
        if qualification is None:
            return QualificationTier.UNQUALIFIED
        demoted = qualification.demoted()
        if (
            demoted.tier is QualificationTier.FALLBACK
            and self._policy is not None
            and not self._policy.allow_fallback
        ):
            demoted = demoted.demoted()
        worker.qualifications[domain] = demoted
        if demoted.tier is not qualification.tier:
            self._notify("on_qualification_changed", worker_id, domain)
        return worker.qualifications[domain].tier

    def set_qualification(
        self, worker_id: str, domain: str, qualification: DomainQualification
    ) -> None:
        """Replace the worker's qualification on ``domain`` and notify.

        The sanctioned write path for re-qualification (marketplace
        returners): routing indexes hear about the change immediately
        instead of discovering a stale ranking mid-route.
        """
        worker = self[worker_id]
        previous = worker.qualifications.get(domain)
        worker.qualifications[domain] = qualification
        if (
            previous is None
            or previous.tier is not qualification.tier
            or previous.estimate != qualification.estimate
        ):
            self._notify("on_qualification_changed", worker_id, domain)

    def notify_qualification_changed(self, worker_id: str, domain: str) -> None:
        """Announce an external qualification mutation on a member worker.

        Marketplace pools share ``ServingWorker`` objects across
        campaigns, so a re-qualification applied through one pool must be
        announced to every *other* pool holding the same record.  Unknown
        workers are ignored — the mutation cannot affect a pool the worker
        is not a member of.
        """
        if worker_id in self._workers:
            self._notify("on_qualification_changed", worker_id, domain)

    def notify_load_changed(self, worker_id: str) -> None:
        """Announce a load change made through another pool on a member worker.

        The load counterpart of :meth:`notify_qualification_changed`: a
        vote charged or released through one marketplace pool changes the
        shared worker's load in every pool that holds it.  Unknown workers
        are ignored.
        """
        if worker_id in self._workers:
            self._notify("on_load_changed", worker_id)

    # ------------------------------------------------------------------ #
    def load_snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-worker load counters (for reports and tests)."""
        return {
            w.worker_id: {
                "active": w.active,
                "assigned_total": w.assigned_total,
                "completed_total": w.completed_total,
            }
            for w in self._workers.values()
        }


__all__ = ["ServingWorker", "ServingPool", "POOL_EVENT_HOOKS", "pool_event_noop"]
