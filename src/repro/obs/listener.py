"""Pool-event metrics: a listener for the ``POOL_EVENT_HOOKS`` bus.

:class:`PoolMetricsListener` turns membership, qualification and
(optionally) load events into counters on a shared registry.  The bus
only carries ``(worker_id, domain)`` on qualification changes, so the
listener keeps a per-worker tier cache — primed at attach time and on
arrivals, dropped on departures — to label transitions with both the
``from_tier`` and the ``to_tier``.

Load events fire on every single vote (begin/complete/release), so they
are opt-in: when ``load_events`` is false the listener simply does not
define ``on_load_changed`` and the pool's pre-bound dispatch skips it
entirely (see :func:`repro.serving.pool.pool_event_noop`).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.serving.qualification import QualificationTier

#: ``from_tier`` label for a transition on a worker/domain the listener
#: had no prior tier for (e.g. a domain gained after attach).
UNSEEN_TIER = "unseen"


def _tier_label(tier: QualificationTier) -> str:
    return tier.name.lower()


class PoolMetricsListener:
    """Counts pool change events into a :class:`MetricsRegistry`."""

    def __init__(self, registry, *, load_events: bool = False) -> None:
        self._registry = registry
        self._pool = None
        self._tiers: Dict[str, Dict[str, str]] = {}
        self._added = registry.counter(
            "pool.workers.added", "workers added to the serving pool"
        )
        self._removed = registry.counter(
            "pool.workers.removed", "workers removed from the serving pool"
        )
        self._transitions = registry.counter(
            "pool.qualification.transitions",
            "qualification tier transitions seen on the pool event bus",
            ("domain", "from_tier", "to_tier"),
        )
        if load_events:
            self._load_events = registry.counter(
                "pool.load.events",
                "load-change events (opt-in: TelemetryConfig.pool_load_events)",
            )
            # Bound as an instance attribute only when opted in, so the
            # pool's hook pre-binding sees no on_load_changed otherwise.
            self.on_load_changed = self._on_load_changed

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach(self, pool) -> "PoolMetricsListener":
        """Subscribe to ``pool`` and prime the tier cache from its state."""
        self._pool = pool
        for worker in pool.workers:
            self._prime(worker)
        pool.add_listener(self)
        return self

    def _prime(self, worker) -> None:
        self._tiers[worker.worker_id] = {
            domain: _tier_label(qualification.tier)
            for domain, qualification in worker.qualifications.items()
        }

    # ------------------------------------------------------------------ #
    # POOL_EVENT_HOOKS
    # ------------------------------------------------------------------ #
    def on_worker_added(self, worker_id: str) -> None:
        self._added.inc()
        if self._pool is not None:
            worker = self._pool.get(worker_id)
            if worker is not None:
                self._prime(worker)

    def on_worker_removed(self, worker_id: str) -> None:
        self._removed.inc()
        self._tiers.pop(worker_id, None)

    def on_qualification_changed(self, worker_id: str, domain: str) -> None:
        to_tier = UNSEEN_TIER
        if self._pool is not None:
            worker = self._pool.get(worker_id)
            if worker is not None:
                to_tier = _tier_label(worker.tier_on(domain))
        cache = self._tiers.setdefault(worker_id, {})
        from_tier = cache.get(domain, UNSEEN_TIER)
        cache[domain] = to_tier
        # An estimate-only re-qualification keeps the tier: no transition.
        if from_tier != to_tier:
            self._transitions.labels(domain, from_tier, to_tier).inc()

    def _on_load_changed(self, worker_id: str) -> None:
        self._load_events.inc()


__all__ = ["PoolMetricsListener", "UNSEEN_TIER"]
