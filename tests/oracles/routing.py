"""Routing by brute force: every pick recomputed from the pool as it stands.

* :class:`ReferenceAffinityRouter` — ``domain_affinity`` with no index:
  each task re-sorts each tier's members by the pinned affinity key and
  checks capacity live on every candidate.
  :class:`~repro.serving.routing.DomainAffinityRouter` must pick the same
  workers through its capacity-parking
  :class:`~repro.serving.index.DomainIndexSet`.
* :func:`least_loaded_picks` — successive minima of the live load key.
* :func:`round_robin_walk` — one lap of ``pool.worker_ids`` from a cursor.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.serving.pool import ServingPool, ServingWorker
from repro.serving.qualification import QualificationTier, affinity_rank_key
from repro.serving.routing import BaseRouter, NoEligibleWorkersError


def affinity_ranking(pool: ServingPool, domain: str, tier: QualificationTier) -> List[ServingWorker]:
    """Every member of ``tier`` on ``domain``, in pinned affinity order, capacity ignored."""
    members = [w for w in pool.workers if w.tier_on(domain) is tier]
    members.sort(key=lambda w: affinity_rank_key(w.estimate_on(domain), w.worker_id))
    return members


class ReferenceAffinityRouter(BaseRouter):
    """``domain_affinity`` by scan and sort: O(n log n) per task, no derived state."""

    name = "domain_affinity"

    def _pick(self, domain: str, n_votes: int, excluded: Set[str]) -> List[str]:
        chosen: List[str] = []
        for tier in (QualificationTier.QUALIFIED, QualificationTier.FALLBACK):
            for worker in affinity_ranking(self._pool, domain, tier):
                if worker.worker_id in excluded or not worker.has_capacity:
                    continue
                self._pool.begin_assignment(worker.worker_id)
                chosen.append(worker.worker_id)
                if len(chosen) >= n_votes:
                    return chosen
        return chosen

    def _route(self, domain: str, n_votes: int) -> List[str]:
        chosen = self._pick(domain, n_votes, set())
        if not chosen:
            raise NoEligibleWorkersError(f"no eligible worker with capacity on domain {domain!r}")
        return chosen

    def route_excluding(self, domain: str, n_votes: int, exclude: Iterable[str]) -> List[str]:
        """Skip excluded workers in the ranked scan; an empty result is ``[]``, not an error."""
        self._check_votes(n_votes)
        return self._pick(domain, n_votes, set(exclude))


def least_loaded_picks(pool: ServingPool, domain: str, n_votes: int) -> List[str]:
    """Brute force: ``n_votes`` successive minima of the live load key.

    Each pick is the minimum ``(active, assigned_total, worker_id)`` over the
    eligible workers with spare capacity not picked yet; a pick is charged
    before the next one is taken.
    """
    load = {w.worker_id: (w.active, w.assigned_total) for w in pool.workers}
    chosen: List[str] = []
    for _ in range(n_votes):
        candidates = [
            (*load[w.worker_id], w.worker_id)
            for w in pool.workers
            if w.worker_id not in chosen
            and w.tier_on(domain) >= QualificationTier.FALLBACK
            and load[w.worker_id][0] < w.max_concurrent
        ]
        if not candidates:
            break
        active, assigned, worker_id = min(candidates)
        load[worker_id] = (active + 1, assigned + 1)
        chosen.append(worker_id)
    return chosen


def round_robin_walk(pool: ServingPool, domain: str, n_votes: int, cursor: int) -> Tuple[List[str], int]:
    """Brute force: walk ``pool.worker_ids`` once from ``cursor``; return the picks and the new cursor.

    A worker is picked when it is eligible on ``domain`` and has spare
    capacity; every visited position advances the cursor, and the walk
    stops at ``n_votes`` picks or after one lap.
    """
    order = pool.worker_ids
    chosen: List[str] = []
    for _ in range(len(order)):
        if len(chosen) == n_votes:
            break
        worker = pool[order[cursor % len(order)]]
        cursor += 1
        if worker.tier_on(domain) >= QualificationTier.FALLBACK and worker.active < worker.max_concurrent:
            chosen.append(worker.worker_id)
    return chosen, cursor
