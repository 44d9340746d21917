"""Routing policies: which workers annotate the next working task.

The serving axis of the shared :class:`~repro.registry.Registry`: every
policy registers a keyword-configurable factory under a canonical name, so
deployments choose a policy by string and new policies plug in with one
decorator:

>>> from repro.serving.routing import make_router, register_router

Built-in policies (all deterministic, all enforcing the per-worker
concurrency cap by charging assignments through the pool):

``round_robin``
    Cycle through the eligible workers in pool order.
``least_loaded``
    A min-heap over ``(active, assigned_total, worker_id)``, re-keyed from
    the pool's load events; the worker with the fewest in-flight
    assignments wins, lifetime assignment count breaks ties, worker id
    makes it total.
``domain_affinity``
    Prefer fully qualified workers on the task's domain, ranked by the
    pinned affinity key ``(-estimate, worker_id)``; spill into the
    fallback tier only when qualified capacity is exhausted.  Walks
    pre-sorted per-(domain, tier)
    :class:`~repro.serving.index.DomainIndexSet` rankings maintained from
    the pool event bus, with saturated workers parked off them until a
    slot frees — O(votes + log n) per task.  The per-task re-sort it
    replaced — O(n log n) — is kept only as the test oracle the
    equivalence tests hold the index against
    (``tests/oracles/routing.py``).

A policy's :meth:`BaseRouter.route` picks ``n_votes`` *distinct* workers
and charges their in-flight load; the serving loop releases the load when
the answer is recorded.  The platform budget is enforced once, in
:class:`~repro.serving.service.AnnotationService`, before any policy is
consulted, so no policy can route past it.
"""

from __future__ import annotations

import abc
import heapq
from typing import Callable, Iterable, List, Optional, Set, Tuple

from repro.obs.timing import perf_counter
from repro.registry import Registry
from repro.serving.index import DomainIndexSet
from repro.serving.pool import ServingPool, pool_event_noop
from repro.serving.qualification import QualificationTier


class NoEligibleWorkersError(RuntimeError):
    """Raised when no eligible worker has spare capacity for a task."""


#: The (volatile) route latency histogram records every Nth route() call,
#: which bounds the wall-clock reads on the route hot path.
ROUTE_LATENCY_SAMPLE_EVERY = 64


class _RouterObs:
    """Pre-bound route metrics for one router (hot-path cheap).

    Children are resolved once at bind time so the per-route cost is a
    countdown decrement plus one counter ``inc``; the wall-clock latency
    histogram (volatile) is sampled every
    :data:`ROUTE_LATENCY_SAMPLE_EVERY`-th call rather than on every
    route.  Both families take their shape from the metric catalog.
    """

    __slots__ = ("full", "short", "exhausted", "latency", "countdown")

    def __init__(self, registry, router_name: str) -> None:
        outcomes = registry.metric("serving.route.outcomes")
        self.full = outcomes.labels(router_name, "full")
        self.short = outcomes.labels(router_name, "short")
        self.exhausted = outcomes.labels(router_name, "exhausted")
        self.latency = registry.metric("serving.route.latency_seconds").labels(router_name)
        self.countdown = ROUTE_LATENCY_SAMPLE_EVERY


class BaseRouter(abc.ABC):
    """Interface every routing policy implements.

    Policies implement :meth:`_route`; the public :meth:`route` is a
    template method that validates the vote count and, when telemetry is
    bound, records per-router outcome counters and sampled latency.  With
    no telemetry bound the template adds a single ``is None`` check.
    """

    #: Canonical policy name (used in traces, reports and metric labels).
    name: str = "base"

    def __init__(self, pool: ServingPool) -> None:
        self._pool = pool
        self._obs: Optional[_RouterObs] = None
        pool.add_listener(self)

    def bind_telemetry(self, telemetry) -> None:
        """Attach route metrics from a :class:`repro.obs.config.Telemetry`.

        ``None`` unbinds: the route path goes back to the bare ``is None``
        check.
        """
        self._obs = None if telemetry is None else _RouterObs(telemetry.registry, self.name)

    @property
    def pool(self) -> ServingPool:
        return self._pool

    # Index-invalidation hooks (see ServingPool.add_listener).  The
    # defaults are no-ops — and marked as such, so the pool skips them at
    # dispatch time; policies with derived state override the ones that
    # can invalidate it.
    @pool_event_noop
    def on_worker_added(self, worker_id: str) -> None:
        """Called by the pool after a worker is admitted."""

    @pool_event_noop
    def on_worker_removed(self, worker_id: str) -> None:
        """Called by the pool after a worker departs."""

    @pool_event_noop
    def on_qualification_changed(self, worker_id: str, domain: str) -> None:
        """Called after a worker's tier/estimate on ``domain`` changed."""

    @pool_event_noop
    def on_load_changed(self, worker_id: str) -> None:
        """Called after an in-flight slot was charged or released."""

    def route(self, domain: str, n_votes: int) -> List[str]:
        """Pick up to ``n_votes`` distinct workers for one ``domain`` task.

        Template method: validates ``n_votes``, delegates to the policy's
        :meth:`_route`, and — only when telemetry is bound — counts the
        outcome (``full`` quorum, ``short`` of the requested votes, or
        ``exhausted`` on :class:`NoEligibleWorkersError`) and samples
        wall-clock latency.
        """
        self._check_votes(n_votes)
        obs = self._obs
        if obs is None:
            return self._route(domain, n_votes)
        obs.countdown -= 1
        if obs.countdown <= 0:
            obs.countdown = ROUTE_LATENCY_SAMPLE_EVERY
            start = perf_counter()
            try:
                chosen = self._route(domain, n_votes)
            except NoEligibleWorkersError:
                obs.exhausted.inc()
                raise
            obs.latency.observe(perf_counter() - start)
        else:
            try:
                chosen = self._route(domain, n_votes)
            except NoEligibleWorkersError:
                obs.exhausted.inc()
                raise
        (obs.full if len(chosen) >= n_votes else obs.short).inc()
        return chosen

    def _route(self, domain: str, n_votes: int) -> List[str]:
        """Policy implementation behind :meth:`route` (``n_votes`` > 0).

        Implementations must charge every returned worker through
        :meth:`ServingPool.begin_assignment` (which enforces the
        concurrency cap) and must raise :class:`NoEligibleWorkersError`
        when not a single eligible worker has capacity.  Returning fewer
        than ``n_votes`` workers is allowed when capacity is short.

        Not abstract: a policy may instead override :meth:`route` whole
        (pre-existing third-party routers do), forgoing route metrics.
        """
        raise NotImplementedError(f"router {type(self).__name__} implements neither _route nor route")

    def _check_votes(self, n_votes: int) -> None:
        if n_votes <= 0:
            raise ValueError("n_votes must be positive")

    def route_excluding(self, domain: str, n_votes: int, exclude: Iterable[str]) -> List[str]:
        """Route up to ``n_votes`` workers, none of which are in ``exclude``.

        Used to reassign an invalidated vote: the replacement must not be
        a worker that already holds (or held) a vote on the same task.
        Over-requests by ``len(exclude)`` picks and releases the surplus
        charges, so the underlying policy needs no exclusion support.
        Unlike :meth:`route`, capacity exhaustion returns ``[]`` instead
        of raising — an unassignable replacement vote is dropped, not
        fatal.
        """
        self._check_votes(n_votes)
        excluded = set(exclude)
        try:
            picks = self.route(domain, n_votes + len(excluded))
        except NoEligibleWorkersError:
            return []
        chosen: List[str] = []
        for worker_id in picks:
            if worker_id not in excluded and len(chosen) < n_votes:
                chosen.append(worker_id)
            else:
                self._pool.release_assignment(worker_id)
        return chosen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
#: A router factory: a serving pool plus keyword configuration in, policy out.
RouterFactory = Callable[..., BaseRouter]


def _router_key(name: str) -> str:
    """Routers are stored lower-case with ``-`` spelled ``_``."""
    return name.lower().replace("-", "_")


#: The process-wide registry used by :func:`make_router` and the CLI.
GLOBAL_ROUTER_REGISTRY = Registry("router", _router_key)


def register_router(
    name: str,
    factory: Optional[RouterFactory] = None,
    *,
    aliases: Iterable[str] = (),
    replace: bool = False,
):
    """Register a router factory in the global registry (decorator-friendly)."""
    return GLOBAL_ROUTER_REGISTRY.register(name, factory, aliases=aliases, replace=replace)


def make_router(name: str, pool: ServingPool, **config: object) -> BaseRouter:
    """Construct a registered routing policy by name for ``pool``."""
    return GLOBAL_ROUTER_REGISTRY.create(name, pool, **config)


def router_names() -> List[str]:
    """Canonical names of every registered routing policy."""
    return GLOBAL_ROUTER_REGISTRY.names()


def router_exists(name: str) -> bool:
    """Whether ``name`` (or an alias of it) is registered."""
    return name in GLOBAL_ROUTER_REGISTRY


def resolve_router_name(name: str) -> str:
    """Canonical registered name for ``name`` (follows aliases, fixes case)."""
    return GLOBAL_ROUTER_REGISTRY.resolve(name)


# ---------------------------------------------------------------------- #
# Built-in policies
# ---------------------------------------------------------------------- #
class RoundRobinRouter(BaseRouter):
    """Cycle through eligible workers in pool order.

    The cycling order is a mirror of the pool's membership order,
    maintained from the membership hooks (arrivals append, departures
    delete in place — exactly how the pool's insertion-ordered dict
    evolves), so a route never rebuilds the id list: re-materialising all
    worker ids per task was an O(n) hidden scan that dominated routing
    cost on 100k-worker pools.
    """

    name = "round_robin"

    def __init__(self, pool: ServingPool) -> None:
        # Mirrored before the base class subscribes us: the membership
        # hooks keep this list identical to pool.worker_ids from then on.
        self._order: List[str] = pool.worker_ids
        super().__init__(pool)
        self._cursor = 0

    def on_worker_added(self, worker_id: str) -> None:
        self._order.append(worker_id)

    def on_worker_removed(self, worker_id: str) -> None:
        self._order.remove(worker_id)

    def _route(self, domain: str, n_votes: int) -> List[str]:
        order = self._order
        chosen: List[str] = []
        scanned = 0
        while len(chosen) < n_votes and scanned < len(order):
            worker_id = order[self._cursor % len(order)]
            self._cursor += 1
            scanned += 1
            worker = self._pool[worker_id]
            if worker.tier_on(domain) >= QualificationTier.FALLBACK and worker.has_capacity:
                self._pool.begin_assignment(worker_id)
                chosen.append(worker_id)
        if not chosen:
            raise NoEligibleWorkersError(f"no eligible worker with capacity on domain {domain!r}")
        return chosen


class LeastLoadedRouter(BaseRouter):
    """Least-loaded policy: fewest in-flight assignments wins.

    Per vote the minimal ``(active, assigned_total, worker_id)`` key among
    eligible workers is picked from one min-heap over that key.

    The heap is re-keyed **eagerly** from the pool's load events: every
    ``begin``/``complete``/``release`` files the worker's current key,
    leaving the old entry behind as garbage the route scan discards (the
    key mismatch gives it away).  Eager re-keying is what makes the
    documented order *true*: a lazy scheme that only re-keys at pop time
    would leave a worker whose key **decreased** (a completed assignment)
    buried at its stale position while a worse key routes first.  In a
    marketplace a shared worker's load also changes through other
    campaigns' pools; the worker announces those changes on every pool
    holding it (:meth:`ServingWorker.announce`), so they arrive here as
    ordinary load events.

    Membership changes arrive on the same listener protocol: arrivals
    are pushed via :meth:`on_worker_added`, and entries for departed
    workers are discarded at pop time by a membership check.  Garbage —
    from load churn and departures alike — is bounded by compaction:
    once entries outnumber live workers 2:1 (plus a small floor) the
    heap is rebuilt from the pool in one linear sweep, so a long churny
    marketplace run cannot grow it without bound.  Compaction cannot
    change routing output: the pop sequence is the sorted order of the
    live keys regardless of internal layout.
    """

    name = "least_loaded"

    def __init__(self, pool: ServingPool) -> None:
        # Bound as an *instance* attribute before the base class
        # subscribes us: the pool's hook pre-binding then dispatches load
        # events here (the class-level hook is a marked no-op the pool
        # would skip).
        self.on_load_changed = self._file_live_key  # type: ignore[method-assign]
        super().__init__(pool)
        self._heap: List[Tuple[int, int, str]] = []
        self._rebuild()

    def _rebuild(self) -> None:
        """File every member's live key into a fresh heap (drops all garbage)."""
        self._heap = [
            (worker.active, worker.assigned_total, worker.worker_id) for worker in self._pool.workers
        ]
        heapq.heapify(self._heap)

    def on_worker_added(self, worker_id: str) -> None:
        self._file_live_key(worker_id)

    def _file_live_key(self, worker_id: str) -> None:
        # Eager re-keying (bound as this instance's on_load_changed).
        worker = self._pool[worker_id]
        heapq.heappush(self._heap, (worker.active, worker.assigned_total, worker_id))

    def _maybe_compact(self) -> None:
        # Garbage grows with *load churn*, not just departures: each
        # begin/complete/release leaves one stale key behind.  Once
        # entries outnumber live workers 2:1 the heap is rebuilt in one
        # linear sweep — amortised O(1) per push.
        if len(self._heap) > 2 * len(self._pool) + 16:
            self._rebuild()

    def _route(self, domain: str, n_votes: int) -> List[str]:
        self._maybe_compact()
        chosen: List[str] = []
        held_back: List[Tuple[int, int, str]] = []
        while self._heap and len(chosen) < n_votes:
            active, assigned, worker_id = heapq.heappop(self._heap)
            worker = self._pool.get(worker_id)
            if worker is None:
                # Garbage entry for a departed worker — drop it for good.
                continue
            if (active, assigned) != (worker.active, worker.assigned_total):
                # Stale key: the live key was already filed by the load
                # hook, so the old entry is pure garbage.
                continue
            if worker_id in chosen:
                # The post-charge key of an earlier pick: one task must
                # never pick the same worker twice, so park it untouched.
                held_back.append((active, assigned, worker_id))
                continue
            if worker.tier_on(domain) < QualificationTier.FALLBACK or not worker.has_capacity:
                held_back.append((active, assigned, worker_id))
                continue
            # Charging files the worker's next key via the load hook; the
            # entry just popped is consumed, so the worker cannot be
            # picked twice.
            self._pool.begin_assignment(worker_id)
            chosen.append(worker_id)
        for entry in held_back:
            heapq.heappush(self._heap, entry)
        if not chosen:
            raise NoEligibleWorkersError(f"no eligible worker with capacity on domain {domain!r}")
        return chosen


class DomainAffinityRouter(BaseRouter):
    """Prefer the workers best qualified on the task's domain.

    Within each tier candidates are ordered by the **pinned affinity
    key** ``(-estimate, worker_id)`` (:func:`affinity_rank_key`): the
    ranking a task sees is a pure function of qualification state, frozen
    for the whole task — live load deliberately does not participate, so
    the ranking cannot shift *between the votes of one task* as earlier
    picks are charged.  The fallback tier is consulted only when the
    qualified tier cannot supply ``n_votes`` workers with spare capacity.

    The ranking is walked from pre-sorted per-(domain, tier) lists kept
    incrementally consistent by a
    :class:`~repro.serving.index.DomainIndexSet` fed from the pool event
    bus — O(votes + log n) amortised per task.  The index parks saturated
    workers off its rankings and re-admits them at the same rank when a
    slot frees, so it yields only workers with spare capacity.  It picks
    the same workers, byte for byte, as the test oracle that re-sorts each
    tier per task and checks capacity live on every candidate (enforced by
    ``tests/test_routing_equivalence.py`` and the differential state
    machine in ``tests/test_routing_stateful.py``).
    """

    name = "domain_affinity"

    def __init__(self, pool: ServingPool, compact_floor: int = 32) -> None:
        # Built before the base class subscribes us to the pool: the pool
        # binds this instance's hooks, which are the index's own.  Load
        # events re-admit parked workers.
        self._index = DomainIndexSet(pool, compact_floor=compact_floor)
        self.on_worker_added = self._index.on_worker_added  # type: ignore[method-assign]
        self.on_worker_removed = self._index.on_worker_removed  # type: ignore[method-assign]
        self.on_qualification_changed = self._index.on_qualification_changed  # type: ignore[method-assign]
        self.on_load_changed = self._index.on_load_changed  # type: ignore[method-assign]
        super().__init__(pool)

    def _pick(self, domain: str, n_votes: int, excluded: Optional[Set[str]]) -> List[str]:
        chosen: List[str] = []
        for tier in (QualificationTier.QUALIFIED, QualificationTier.FALLBACK):
            for worker in self._index.iter_tier(domain, tier):
                if excluded is not None and worker.worker_id in excluded:
                    continue
                self._pool.begin_assignment(worker.worker_id)
                chosen.append(worker.worker_id)
                if len(chosen) >= n_votes:
                    # Stop before the walk validates one entry too many.
                    return chosen
        return chosen

    def _route(self, domain: str, n_votes: int) -> List[str]:
        chosen = self._pick(domain, n_votes, excluded=None)
        if not chosen:
            raise NoEligibleWorkersError(f"no eligible worker with capacity on domain {domain!r}")
        return chosen

    def route_excluding(self, domain: str, n_votes: int, exclude: Iterable[str]) -> List[str]:
        """Native exclusion: skip excluded workers during the ranked walk.

        Equivalent to the base class's over-request-and-release dance (at
        most ``len(exclude)`` of the first ``n + len(exclude)`` ranked
        picks can be excluded, so the surviving prefix is identical) but
        without charging surplus assignments, which matters when a single
        index walk replaces the per-call re-sort.
        """
        self._check_votes(n_votes)
        return self._pick(domain, n_votes, excluded=set(exclude))


register_router("round_robin", RoundRobinRouter, aliases=("rr",))
register_router("least_loaded", LeastLoadedRouter, aliases=("ll",))
register_router("domain_affinity", DomainAffinityRouter, aliases=("affinity",))


__all__ = [
    "BaseRouter",
    "RouterFactory",
    "GLOBAL_ROUTER_REGISTRY",
    "NoEligibleWorkersError",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "DomainAffinityRouter",
    "register_router",
    "make_router",
    "router_names",
    "router_exists",
    "resolve_router_name",
]
