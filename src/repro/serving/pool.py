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
    a worker's tier or estimate on one domain changed (:meth:`demote` or
    :meth:`ServingWorker.set_qualification`);
``on_load_changed(worker_id)``
    an in-flight slot was charged or released (:meth:`begin_assignment`,
    :meth:`complete_assignment`, :meth:`release_assignment`).

so a router can never silently route off stale internal state.  Hooks a
listener does not define are skipped; hooks decorated with
:func:`pool_event_noop` are skipped too, *without even a call* — dispatch
is pre-bound per hook when the listener subscribes, which keeps the
high-frequency load events free for routers that don't care about load.

Marketplace pools share one :class:`ServingWorker` record per worker, so
its load and qualifications are state of *every* pool holding it.  The
record therefore knows its pools (:attr:`ServingWorker.pools`, kept by
the pool constructor, :meth:`add_worker` and :meth:`remove_worker`), and
a load or qualification change — made through any pool, or on the worker
itself — dispatches its hook on each of them.  That one path carries the
``least_loaded`` heap keys, the ``domain_affinity`` index's re-admission
of parked workers, drift demotions and marketplace re-qualifications
alike.  A pool its owner is done with leaves the path via :meth:`retire`.
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
    #: The pools holding this worker, in the order they took it in.  A load
    #: or qualification change is announced on each of them.
    pools: List["ServingPool"] = field(default_factory=list, compare=False, repr=False)

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

    def set_qualification(self, domain: str, qualification: DomainQualification) -> None:
        """Replace the qualification on ``domain`` and announce a real change.

        The one write path for qualifications (drift demotion through
        :meth:`ServingPool.demote`, marketplace re-qualification): every
        pool holding the worker hears ``on_qualification_changed`` when the
        tier or the estimate moved.
        """
        previous = self.qualifications.get(domain)
        self.qualifications[domain] = qualification
        if (
            previous is None
            or previous.tier is not qualification.tier
            or previous.estimate != qualification.estimate
        ):
            self.announce("on_qualification_changed", self.worker_id, domain)

    def announce(self, hook: str, *args: str) -> None:
        """Dispatch a load or qualification hook on every pool holding the worker."""
        for pool in self.pools:
            for callback in pool._hooks[hook]:
                callback(*args)


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
        for worker in self._workers.values():
            worker.pools.append(self)

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

    def _notify(self, hook: str, *args: str) -> None:
        for callback in self._hooks[hook]:
            callback(*args)

    def add_worker(self, worker: ServingWorker) -> None:
        """Admit one worker into the pool (marketplace arrival)."""
        if worker.worker_id in self._workers:
            raise ValueError(f"duplicate worker id: {worker.worker_id!r}")
        self._workers[worker.worker_id] = worker
        worker.pools.append(self)
        self._notify("on_worker_added", worker.worker_id)

    def remove_worker(self, worker_id: str) -> ServingWorker:
        """Remove one worker (marketplace departure); returns its record.

        In-flight assignments are *not* released here — the caller
        invalidates pending votes first (``release_assignment`` /
        :meth:`~repro.serving.service.AnnotationService.invalidate_worker`)
        while the worker is still a member.  Removal may empty the pool;
        routers then raise ``NoEligibleWorkersError`` until an arrival
        refills it.  Works on a retired pool too.
        """
        if worker_id not in self._workers:
            raise KeyError(f"unknown worker id: {worker_id!r}")
        worker = self._workers.pop(worker_id)
        if self in worker.pools:
            worker.pools.remove(self)
        self._notify("on_worker_removed", worker_id)
        return worker

    def retire(self) -> None:
        """Stop hearing the workers' load and qualification changes.

        For a pool its owner has replaced or finished with (a marketplace
        campaign that re-selects or completes): the pool unlinks itself
        from every member's :attr:`~ServingWorker.pools`, so a shared
        worker's later changes no longer reach its listeners.  Membership
        stays and no ``on_worker_removed`` fires, so the pool's service
        keeps its drift streams for re-qualification, and
        :meth:`remove_worker` still works.
        """
        for worker in self._workers.values():
            if self in worker.pools:
                worker.pools.remove(self)

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
        worker.announce("on_load_changed", worker_id)

    def complete_assignment(self, worker_id: str) -> None:
        """Release one in-flight assignment (answer received or abandoned)."""
        worker = self[worker_id]
        if worker.active <= 0:
            raise RuntimeError(f"worker {worker_id!r} has no in-flight assignment to complete")
        worker.active -= 1
        worker.completed_total += 1
        worker.announce("on_load_changed", worker_id)

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
        worker.announce("on_load_changed", worker_id)

    def demote(self, worker_id: str, domain: str) -> QualificationTier:
        """Drop the worker one tier on ``domain``; returns the new tier.

        Under a policy with ``allow_fallback=False`` the fallback tier is
        skipped: a qualified worker demotes straight to unqualified.  The
        worker is shared, so every pool holding it hears the change.
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
        worker.set_qualification(domain, demoted)
        return demoted.tier

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
