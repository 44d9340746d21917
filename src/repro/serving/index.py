"""Per-(domain, tier) qualification indexes for O(log n) affinity routing.

The ``domain_affinity`` policy ranks a task's candidate workers by the
pinned affinity key ``(-estimate, worker_id)`` within each qualification
tier.  Re-filtering and re-sorting the whole pool for every routed task
(the form the test oracle keeps) costs O(n log n) per task, which is why
its measured throughput was *inversely* proportional to pool size.  A
:class:`DomainIndexSet` keeps that ranking materialised instead: one
sorted list per ``(domain, tier)``, maintained incrementally from the
:class:`~repro.serving.pool.ServingPool` change-event bus, so a route is
a prefix walk of a pre-sorted list — O(votes + log n) amortised.

Consistency model
-----------------
The index is *lazily* consistent:

* **Inserts are eager.**  Arrivals, qualification changes and demotions
  (delivered through the pool's ``on_worker_added`` /
  ``on_qualification_changed`` listener hooks) ``bisect.insort`` the
  worker's fresh entry into the right tier list immediately, so a newly
  eligible worker is routable the moment the event fires.
* **Deletes are lazy.**  The entry the event superseded (old tier, old
  estimate, or a departed worker) stays in its list as garbage; a
  per-list dead counter is bumped instead.  Every entry read during a
  route is validated against the live pool state — worker present, tier
  unchanged, estimate unchanged — and stale entries encountered on the
  walk are physically dropped then.
* **Capacity is indexed by parking.**  A walk that reaches a live entry
  whose worker has no spare capacity deletes the entry from its list and
  records the worker as *parked* on that domain (the worker's recorded
  ``(tier, estimate)`` stays in place).  The index hears every load change
  of the pool's workers (its router binds :meth:`DomainIndexSet.on_load_changed`
  as its load hook, and a shared worker announces its load on every pool
  holding it), so when a slot frees — through *any* marketplace pool —
  :meth:`on_load_changed` re-inserts each parked entry with ``insort``.
  The sort key never changes, so the worker returns at the same rank.  The
  router skipped saturated workers anyway, so picks are identical, and a
  route walks O(votes) entries instead of every saturated worker ranked
  above the first free ones.  A load event for a worker that is not
  parked is one dictionary miss.
* **Compaction is periodic.**  When a list's dead counter reaches both
  the compaction floor and half the list, the list is rebuilt by one
  linear liveness filter, bounding garbage at ~50% regardless of churn.

Because every entry is re-validated at read time, a mutation that somehow
bypasses the event bus degrades throughput (uncounted garbage), never
correctness — the router cannot route a worker the pool no longer
qualifies.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Dict, Iterator, List, Optional, Tuple

from repro.serving.pool import ServingPool, ServingWorker
from repro.serving.qualification import QualificationTier, affinity_rank_key

#: ``(-estimate, worker_id)`` — one materialised ranking entry.
IndexEntry = Tuple[float, str]

#: ``(domain, tier)`` — the key of one sorted ranking list.
IndexKey = Tuple[str, QualificationTier]

#: Tiers worth indexing: unqualified workers are never routed on a domain,
#: so they simply have no entry.
INDEXED_TIERS = (QualificationTier.QUALIFIED, QualificationTier.FALLBACK)


class DomainIndexSet:
    """Sorted per-(domain, tier) qualification rankings with lazy deletes.

    Parameters
    ----------
    pool:
        The serving pool the index mirrors.  The owner (normally
        :class:`~repro.serving.routing.DomainAffinityRouter`) binds this
        index's membership, qualification and load hooks as its own pool
        hooks; the index does not subscribe itself, so one pool listener
        serves both the router and its index.
    compact_floor:
        Minimum dead entries before a list is compacted (compaction also
        requires the dead to be at least half the list).  Small values
        compact eagerly — useful in tests; the default amortises the
        linear filter over many routes.
    """

    def __init__(self, pool: ServingPool, compact_floor: int = 32) -> None:
        if compact_floor < 1:
            raise ValueError("compact_floor must be positive")
        self._pool = pool
        self._compact_floor = compact_floor
        #: One sorted entry list per (domain, tier), built on first route.
        self._lists: Dict[IndexKey, List[IndexEntry]] = {}
        #: Stale entries known per list (kept in sync by the event hooks).
        self._dead: Dict[IndexKey, int] = {}
        #: The entry currently recorded for each (worker, domain) — the
        #: one live entry; anything else in the lists is garbage.  A parked
        #: worker keeps its record while its entry is out of the list.
        self._recorded: Dict[Tuple[str, str], Tuple[QualificationTier, float]] = {}
        #: Saturated workers taken off the lists: the worker record, and
        #: the domains (ordered set) whose entry it removed.
        self._parked: Dict[str, Tuple[ServingWorker, Dict[str, None]]] = {}
        #: Indexed domains in first-routed order (dict as ordered set).
        self._domains: Dict[str, None] = {}

    # ------------------------------------------------------------------ #
    # Read side (the routing hot path)
    # ------------------------------------------------------------------ #
    def iter_tier(self, domain: str, tier: QualificationTier) -> Iterator[ServingWorker]:
        """Live workers with spare capacity on ``(domain, tier)``, in pinned affinity order.

        Walks the materialised list front to back, dropping stale entries
        and parking saturated workers as they are encountered; every
        yielded worker is validated against the pool at yield time.  The
        list may change while the walk is suspended at a ``yield`` (a
        re-admission ``insort``, another walk's deletes); the walk then
        resumes right after the entry it last yielded, so no worker is
        yielded twice and none ranked after it is skipped.
        """
        self._ensure_domain(domain)
        key = (domain, tier)
        self._maybe_compact(key)
        entries = self._lists[key]
        index = 0
        while index < len(entries):
            entry = entries[index]
            worker = self._live(key, entry)
            if worker is None:
                # Stale — drop it for good and stay at the same position.
                del entries[index]
                self._dead[key] = max(0, self._dead[key] - 1)
                if self._recorded.get((entry[1], domain)) == (tier, entry[0]):
                    del self._recorded[(entry[1], domain)]
                continue
            if index > 0 and entries[index - 1] == entry:
                # Duplicate: a worker that departed and returned under the
                # same id at the same rank leaves garbage *identical* to its
                # live entry, which the pool check alone cannot tell apart.
                # Identical tuples sort adjacent, so one look-behind catches
                # every such pair before a task could pick the worker twice.
                del entries[index]
                self._dead[key] = max(0, self._dead[key] - 1)
                continue
            if not worker.has_capacity:
                del entries[index]
                self._park(worker, key, entry)
                continue
            yield worker
            if index < len(entries) and entries[index] is entry:
                index += 1
            else:
                index = bisect_right(entries, entry)

    def _live(self, key: IndexKey, entry: IndexEntry) -> Optional[ServingWorker]:
        """The pool worker an entry still describes, or ``None`` if stale."""
        domain, tier = key
        neg_estimate, worker_id = entry
        worker = self._pool.get(worker_id)
        if (
            worker is None
            or worker.tier_on(domain) is not tier
            or affinity_rank_key(worker.estimate_on(domain), worker_id)[0] != neg_estimate
        ):
            return None
        return worker

    def _park(self, worker: ServingWorker, key: IndexKey, entry: IndexEntry) -> None:
        """Record a saturated worker whose entry was just deleted as parked."""
        domain = key[0]
        parked = self._parked.get(entry[1])
        if parked is None:
            self._parked[entry[1]] = (worker, {domain: None})
        elif domain in parked[1]:
            # Already parked here: the entry was a departed-and-returned
            # worker's identical garbage, not its live entry.
            self._dead[key] = max(0, self._dead[key] - 1)
        else:
            parked[1][domain] = None

    def _unpark(self, worker_id: str) -> Dict[str, None]:
        """Forget a worker's parked record; returns the domains it held."""
        parked = self._parked.pop(worker_id, None)
        return parked[1] if parked is not None else {}

    # ------------------------------------------------------------------ #
    # Event hooks
    # ------------------------------------------------------------------ #
    def on_worker_added(self, worker_id: str) -> None:
        """Index an arrival on every domain already materialised."""
        worker = self._pool.get(worker_id)
        if worker is None:  # raced with an immediate removal
            return
        for domain in self._domains:
            self._reindex(worker, domain)

    def on_worker_removed(self, worker_id: str) -> None:
        """Mark a departure's entries dead (physically dropped lazily).

        A parked entry is already out of its list, so it is only forgotten.
        """
        parked_domains = self._unpark(worker_id)
        for domain in self._domains:
            recorded = self._recorded.pop((worker_id, domain), None)
            if recorded is not None and domain not in parked_domains:
                self._dead[(domain, recorded[0])] += 1

    def on_qualification_changed(self, worker_id: str, domain: str) -> None:
        """Move a worker's entry after a demotion or re-qualification."""
        if domain not in self._domains:
            return
        worker = self._pool.get(worker_id)
        if worker is not None:
            self._reindex(worker, domain)

    def on_load_changed(self, worker_id: str) -> None:
        """Re-admit a parked worker once it has spare capacity again.

        Called on every load change of a worker the pool holds, through
        whichever pool it was made — so a slot freed in another
        marketplace pool sharing the worker re-admits it here too.  Each
        parked entry goes back into its list with ``insort`` under its
        unchanged sort key, i.e. at its old rank.  Calls for a worker that
        is not parked here, or still saturated, change nothing.
        """
        parked = self._parked.get(worker_id)
        if parked is None or not parked[0].has_capacity:
            return
        for domain in self._unpark(worker_id):
            recorded = self._recorded.get((worker_id, domain))
            if recorded is not None:
                insort(self._lists[(domain, recorded[0])], (recorded[1], worker_id))

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def _ensure_domain(self, domain: str) -> None:
        """Materialise the tier lists of ``domain`` on its first route.

        Bulk build: append every worker's entry, then sort each list once.
        Going through :meth:`_reindex` here would ``insort`` into a
        growing list — O(n²) on a 100k-worker pool, which showed up as a
        10% first-route throughput tax in the serving benchmark.
        """
        if domain in self._domains:
            return
        self._domains[domain] = None
        for tier in INDEXED_TIERS:
            self._lists[(domain, tier)] = []
            self._dead[(domain, tier)] = 0
        for worker in self._pool.workers:
            tier = worker.tier_on(domain)
            if tier in INDEXED_TIERS:
                neg_estimate = affinity_rank_key(worker.estimate_on(domain), worker.worker_id)[0]
                self._lists[(domain, tier)].append((neg_estimate, worker.worker_id))
                self._recorded[(worker.worker_id, domain)] = (tier, neg_estimate)
        for tier in INDEXED_TIERS:
            self._lists[(domain, tier)].sort()

    def _reindex(self, worker: ServingWorker, domain: str) -> None:
        """Record the worker's current ``(tier, estimate)`` on ``domain``.

        A parked worker's record moves without touching the lists: its old
        entry is not in them (so nothing turns dead), and the new entry
        waits for re-admission like the old one did.
        """
        tier = worker.tier_on(domain)
        neg_estimate = affinity_rank_key(worker.estimate_on(domain), worker.worker_id)[0]
        record_key = (worker.worker_id, domain)
        previous = self._recorded.get(record_key)
        if previous == (tier, neg_estimate):
            return  # the live entry already matches; inserting would duplicate
        parked = self._parked.get(worker.worker_id)
        parked_here = parked is not None and domain in parked[1]
        if previous is not None and not parked_here:
            self._dead[(domain, previous[0])] += 1
        if tier in INDEXED_TIERS:
            if not parked_here:
                insort(self._lists[(domain, tier)], (neg_estimate, worker.worker_id))
            self._recorded[record_key] = (tier, neg_estimate)
            return
        self._recorded.pop(record_key, None)
        if parked_here:
            del parked[1][domain]
            if not parked[1]:
                self._unpark(worker.worker_id)

    def _maybe_compact(self, key: IndexKey) -> None:
        """Rebuild a list once dead entries hit the floor and half the list.

        In place, so a walk suspended over the list keeps walking the one
        the index maintains.
        """
        dead = self._dead[key]
        entries = self._lists[key]
        if dead < self._compact_floor or dead * 2 < len(entries):
            return
        domain, tier = key
        live: List[IndexEntry] = []
        for entry in entries:
            if self._live(key, entry) is not None:
                # Skip duplicates too (the departed-and-returned case): the
                # list is sorted, so a duplicate sits right behind its twin.
                if not live or live[-1] != entry:
                    live.append(entry)
            elif self._recorded.get((entry[1], domain)) == (tier, entry[0]):
                del self._recorded[(entry[1], domain)]
        entries[:] = live
        self._dead[key] = 0

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-list sizes and dead counts, keyed ``"<domain>/<tier>"``."""
        return {
            f"{domain}/{tier.name.lower()}": {
                "entries": len(self._lists[(domain, tier)]),
                "dead": self._dead[(domain, tier)],
            }
            for domain in self._domains
            for tier in INDEXED_TIERS
        }


__all__ = ["DomainIndexSet", "INDEXED_TIERS", "IndexEntry", "IndexKey"]
