"""Differential state machine: the indexed ``domain_affinity`` engine against its oracle.

Two worlds run the same random program of routes, exclusions, completions,
releases, demotions, re-qualifications, arrivals and departures.  Each world
holds two pools, ``A`` and ``B``, that share :class:`ServingWorker` objects
the way marketplace campaign pools do, so a vote charged or freed through one
pool changes the worker's capacity in the other.  One world routes with the
capacity-parking :class:`~repro.serving.index.DomainIndexSet`, the other with
``DomainAffinityRouter(engine="reference")``; every pick must agree.

Concurrency caps of 1–3 make workers saturate often, so the index really
parks them and has to re-admit them — also when the slot frees through the
other pool.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.serving.pool import ServingPool, ServingWorker
from repro.serving.qualification import DomainQualification, QualificationTier, affinity_rank_key
from repro.serving.routing import DomainAffinityRouter, NoEligibleWorkersError

DOMAINS = ("d0", "d1")
POOLS = ("A", "B")
TIERS = (QualificationTier.QUALIFIED, QualificationTier.FALLBACK, QualificationTier.UNQUALIFIED)
#: Few distinct estimates, so ranks tie and the worker id breaks them.
ESTIMATES = (0.6, 0.7, 0.8, 0.9)

#: One worker's qualification on one domain: ``(tier, estimate)``.
qualification = st.tuples(st.sampled_from(TIERS), st.sampled_from(ESTIMATES))
#: A worker spec: its cap and its qualification per domain.
worker_spec = st.tuples(st.integers(1, 3), st.tuples(*(qualification for _ in DOMAINS)))


def build_worker(worker_id: str, spec) -> ServingWorker:
    max_concurrent, per_domain = spec
    return ServingWorker(
        worker_id=worker_id,
        qualifications={
            domain: DomainQualification(worker_id, domain, estimate, 20, tier)
            for domain, (tier, estimate) in zip(DOMAINS, per_domain)
        },
        max_concurrent=max_concurrent,
    )


class World:
    """Two pools sharing worker objects, each routed by one engine."""

    def __init__(self, engine: str, specs, membership, compact_floor: int) -> None:
        self.workers = {f"w{i}": build_worker(f"w{i}", spec) for i, spec in enumerate(specs)}
        self.pools: Dict[str, ServingPool] = {}
        self.routers: Dict[str, DomainAffinityRouter] = {}
        for name in POOLS:
            members = [self.workers[wid] for wid, pools in zip(self.workers, membership) if name in pools]
            self.pools[name] = ServingPool(members)
            config = {"compact_floor": compact_floor} if engine == "indexed" else {}
            self.routers[name] = DomainAffinityRouter(self.pools[name], engine=engine, **config)

    def other(self, name: str) -> ServingPool:
        return self.pools[POOLS[1 - POOLS.index(name)]]

    def route(self, name: str, domain: str, n_votes: int, exclude=None):
        router = self.routers[name]
        try:
            if exclude is None:
                return router.route(domain, n_votes)
            return router.route_excluding(domain, n_votes, exclude)
        except NoEligibleWorkersError:
            return "exhausted"

    def changed_qualification(self, name: str, worker_id: str, domain: str) -> None:
        # Announce on every other pool holding the shared record, as the
        # marketplace does for re-qualifications.
        self.other(name).notify_qualification_changed(worker_id, domain)


class AffinityDifferential(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.worlds: Tuple[World, World] = ()
        #: In-flight votes as ``(pool name, worker id)``, identical in both worlds.
        self.in_flight: List[Tuple[str, str]] = []
        self.next_id = 0

    @initialize(
        specs=st.lists(worker_spec, min_size=2, max_size=8),
        data=st.data(),
        compact_floor=st.integers(1, 4),
    )
    def build(self, specs, data, compact_floor):
        membership = data.draw(
            st.lists(st.sampled_from(["A", "B", "AB"]), min_size=len(specs), max_size=len(specs))
        )
        # Neither pool may start empty.
        membership[0], membership[-1] = "A", "B"
        self.worlds = (
            World("indexed", specs, membership, compact_floor),
            World("reference", specs, membership, compact_floor),
        )
        self.next_id = len(specs)

    # -- helpers -------------------------------------------------------- #
    def members(self, name: str) -> List[str]:
        return self.worlds[0].pools[name].worker_ids

    def both(self, action) -> list:
        results = [action(world) for world in self.worlds]
        assert results[0] == results[1], results
        return results[0]

    # -- routing -------------------------------------------------------- #
    @rule(name=st.sampled_from(POOLS), domain=st.sampled_from(DOMAINS), n_votes=st.integers(1, 4))
    def route(self, name, domain, n_votes):
        picks = self.both(lambda world: world.route(name, domain, n_votes))
        if picks != "exhausted":
            self.in_flight.extend((name, worker_id) for worker_id in picks)

    @rule(
        name=st.sampled_from(POOLS), domain=st.sampled_from(DOMAINS), n_votes=st.integers(1, 3), data=st.data()
    )
    def route_excluding(self, name, domain, n_votes, data):
        members = self.members(name)
        exclude = data.draw(st.lists(st.sampled_from(members), max_size=3, unique=True)) if members else []
        picks = self.both(lambda world: world.route(name, domain, n_votes, exclude))
        assert not set(picks) & set(exclude)
        self.in_flight.extend((name, worker_id) for worker_id in picks)

    @rule(name=st.sampled_from(POOLS), domain=st.sampled_from(DOMAINS), tier=st.sampled_from(TIERS[:2]))
    def walk_tier(self, name, domain, tier):
        # A whole walk of the index equals the oracle's capacity-filtered ranking.
        indexed, reference = self.worlds
        walked = [w.worker_id for w in indexed.routers[name]._index.iter_tier(domain, tier)]
        ranked = sorted(
            (w for w in reference.pools[name].workers if w.tier_on(domain) is tier and w.has_capacity),
            key=lambda w: affinity_rank_key(w.estimate_on(domain), w.worker_id),
        )
        assert walked == [w.worker_id for w in ranked]

    # -- load ----------------------------------------------------------- #
    @rule(data=st.data(), complete=st.booleans())
    def free_slot(self, data, complete):
        if not self.in_flight:
            return
        name, worker_id = self.in_flight.pop(data.draw(st.integers(0, len(self.in_flight) - 1)))
        for world in self.worlds:
            pool = world.pools[name]
            (pool.complete_assignment if complete else pool.release_assignment)(worker_id)

    # -- qualification -------------------------------------------------- #
    @rule(name=st.sampled_from(POOLS), domain=st.sampled_from(DOMAINS), data=st.data())
    def demote(self, name, domain, data):
        members = self.members(name)
        if not members:
            return
        worker_id = data.draw(st.sampled_from(members))
        for world in self.worlds:
            before = world.pools[name][worker_id].tier_on(domain)
            if world.pools[name].demote(worker_id, domain) is not before:
                world.changed_qualification(name, worker_id, domain)

    @rule(name=st.sampled_from(POOLS), domain=st.sampled_from(DOMAINS), new=qualification, data=st.data())
    def set_qualification(self, name, domain, new, data):
        members = self.members(name)
        if not members:
            return
        worker_id = data.draw(st.sampled_from(members))
        tier, estimate = new
        for world in self.worlds:
            world.pools[name].set_qualification(
                worker_id, domain, DomainQualification(worker_id, domain, estimate, 20, tier)
            )
            world.changed_qualification(name, worker_id, domain)

    # -- membership ----------------------------------------------------- #
    @rule(name=st.sampled_from(POOLS), spec=worker_spec, data=st.data())
    def add_worker(self, name, spec, data):
        indexed = self.worlds[0]
        outside = [wid for wid in indexed.workers if wid not in indexed.pools[name]]
        choice = data.draw(st.sampled_from(["new"] + outside))
        if choice == "new":
            worker_id = f"w{self.next_id}"
            self.next_id += 1
        else:
            worker_id = choice
        for world in self.worlds:
            shared = worker_id in world.other(name)
            if not shared:
                # A new arrival, or a departed worker returning under its old
                # id as a fresh record (its index garbage may match exactly).
                world.workers[worker_id] = build_worker(worker_id, spec)
            world.pools[name].add_worker(world.workers[worker_id])

    @rule(name=st.sampled_from(POOLS), data=st.data())
    def remove_worker(self, name, data):
        members = self.members(name)
        if not members:
            return
        worker_id = data.draw(st.sampled_from(members))
        # Like a marketplace departure: in-flight votes are released first.
        held = [vote for vote in self.in_flight if vote == (name, worker_id)]
        self.in_flight = [vote for vote in self.in_flight if vote != (name, worker_id)]
        for world in self.worlds:
            for _ in held:
                world.pools[name].release_assignment(worker_id)
            world.pools[name].remove_worker(worker_id)

    # -- invariants ----------------------------------------------------- #
    @invariant()
    def loads_agree(self):
        if self.worlds:
            for name in POOLS:
                assert self.worlds[0].pools[name].load_snapshot() == self.worlds[1].pools[name].load_snapshot()

    @invariant()
    def parked_registrations_are_exact(self):
        if not self.worlds:
            return
        indexes = {id(router._index): router._index for router in self.worlds[0].routers.values()}
        for worker in self.worlds[0].workers.values():
            assert len(set(map(id, worker.parked_in))) == len(worker.parked_in)
            for index in worker.parked_in:
                assert id(index) in indexes
                assert index._parked[worker.worker_id][0] is worker
                assert not worker.has_capacity
        for index in indexes.values():
            for worker_id, (worker, _) in index._parked.items():
                assert index in worker.parked_in


AffinityDifferential.TestCase.settings = settings(
    AffinityDifferential.TestCase.settings, deadline=None, stateful_step_count=40
)
TestAffinityDifferential = AffinityDifferential.TestCase
