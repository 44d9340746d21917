"""State machines over two pools that share worker records, checked against oracles.

A random program of routes, exclusions, completions, releases, demotions,
re-qualifications, arrivals and departures runs on a world of two pools,
``A`` and ``B``, that share :class:`ServingWorker` objects the way
marketplace campaign pools do: a vote charged or freed, or a qualification
changed, through one pool changes the worker in the other.  Nothing in the
program announces a change on the other pool by hand; the worker's own
announcement must reach it.

* ``AffinityDifferential`` runs the program on two worlds: one routes with
  :class:`~repro.serving.routing.DomainAffinityRouter` and its
  capacity-parking :class:`~repro.serving.index.DomainIndexSet`, the other
  with the scan-and-sort ``ReferenceAffinityRouter`` oracle
  (``tests/oracles/routing.py``).  Every pick must agree, and every indexed
  tier ranking of every pool must equal the oracle's.
* ``LeastLoadedShared`` runs it on one world routed by ``least_loaded``;
  every pick must be the brute-force minimum of
  ``(active, assigned_total, worker_id)`` over the eligible workers with
  spare capacity.
* ``RoundRobinShared`` runs it on one world routed by ``round_robin``;
  every pick must be the next eligible worker with spare capacity in a
  brute-force walk of ``pool.worker_ids`` from the machine's own cursor,
  and the router's mirrored order must equal ``pool.worker_ids``.

Concurrency caps of 1–3 make workers saturate often, so the index really
parks them and has to re-admit them — also when the slot frees through the
other pool.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from oracles.routing import ReferenceAffinityRouter, affinity_ranking, least_loaded_picks, round_robin_walk
from repro.serving.index import INDEXED_TIERS
from repro.serving.pool import ServingPool, ServingWorker
from repro.serving.qualification import DomainQualification, QualificationTier
from repro.serving.routing import (
    BaseRouter,
    DomainAffinityRouter,
    LeastLoadedRouter,
    NoEligibleWorkersError,
    RoundRobinRouter,
)

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
    """Two pools sharing worker objects, each routed by its own router."""

    def __init__(self, make_router: Callable[[ServingPool], BaseRouter], specs, membership) -> None:
        self.workers = {f"w{i}": build_worker(f"w{i}", spec) for i, spec in enumerate(specs)}
        self.pools: Dict[str, ServingPool] = {}
        self.routers: Dict[str, BaseRouter] = {}
        for name in POOLS:
            members = [self.workers[wid] for wid, pools in zip(self.workers, membership) if name in pools]
            self.pools[name] = ServingPool(members)
            self.routers[name] = make_router(self.pools[name])

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


class SharedPoolMachine(RuleBasedStateMachine):
    """The shared program: load, qualification and membership changes.

    Subclasses build ``worlds`` in an ``initialize`` step and add the
    routing rules.  Every world runs every step identically, so in-flight
    votes and loads agree across worlds.
    """

    def __init__(self) -> None:
        super().__init__()
        self.worlds: Tuple[World, ...] = ()
        #: In-flight votes as ``(pool name, worker id)``, identical in every world.
        self.in_flight: List[Tuple[str, str]] = []
        self.next_id = 0

    @staticmethod
    def draw_membership(specs, data) -> List[str]:
        membership = data.draw(
            st.lists(st.sampled_from(["A", "B", "AB"]), min_size=len(specs), max_size=len(specs))
        )
        # Neither pool may start empty.
        membership[0], membership[-1] = "A", "B"
        return membership

    def members(self, name: str) -> List[str]:
        return self.worlds[0].pools[name].worker_ids

    def draw_member(self, name: str, data) -> Optional[str]:
        members = self.members(name)
        return data.draw(st.sampled_from(members)) if members else None

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
        worker_id = self.draw_member(name, data)
        if worker_id is None:
            return
        for world in self.worlds:
            world.pools[name].demote(worker_id, domain)

    @rule(name=st.sampled_from(POOLS), domain=st.sampled_from(DOMAINS), new=qualification, data=st.data())
    def set_qualification(self, name, domain, new, data):
        worker_id = self.draw_member(name, data)
        if worker_id is None:
            return
        tier, estimate = new
        for world in self.worlds:
            world.pools[name][worker_id].set_qualification(
                domain, DomainQualification(worker_id, domain, estimate, 20, tier)
            )

    # -- membership ----------------------------------------------------- #
    @rule(name=st.sampled_from(POOLS), spec=worker_spec, data=st.data())
    def add_worker(self, name, spec, data):
        first = self.worlds[0]
        outside = [wid for wid in first.workers if wid not in first.pools[name]]
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
        worker_id = self.draw_member(name, data)
        if worker_id is None:
            return
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
        for world in self.worlds[1:]:
            for name in POOLS:
                assert world.pools[name].load_snapshot() == self.worlds[0].pools[name].load_snapshot()

    @invariant()
    def pool_lists_are_exact(self):
        # Each worker record lists exactly the pools that hold it, once each.
        for world in self.worlds:
            for worker in world.workers.values():
                holding = [pool for pool in world.pools.values() if pool.get(worker.worker_id) is worker]
                assert sorted(map(id, worker.pools)) == sorted(map(id, holding))


class AffinityDifferential(SharedPoolMachine):
    """The indexed ``domain_affinity`` router against its scan-and-sort oracle."""

    @initialize(
        specs=st.lists(worker_spec, min_size=2, max_size=8),
        data=st.data(),
        compact_floor=st.integers(1, 4),
    )
    def build(self, specs, data, compact_floor):
        membership = self.draw_membership(specs, data)
        self.worlds = (
            World(lambda pool: DomainAffinityRouter(pool, compact_floor=compact_floor), specs, membership),
            World(ReferenceAffinityRouter, specs, membership),
        )
        self.next_id = len(specs)

    def both(self, action) -> list:
        results = [action(world) for world in self.worlds]
        assert results[0] == results[1], results
        return results[0]

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

    @invariant()
    def every_indexed_ranking_matches_the_oracle(self):
        # A whole walk of each index equals the oracle's capacity-filtered
        # ranking — in both pools, so a tier changed through one pool shows
        # in the other's index too.
        if not self.worlds:
            return
        indexed, reference = self.worlds
        for name in POOLS:
            for domain in DOMAINS:
                for tier in INDEXED_TIERS:
                    walked = [w.worker_id for w in indexed.routers[name]._index.iter_tier(domain, tier)]
                    ranked = [
                        w.worker_id
                        for w in affinity_ranking(reference.pools[name], domain, tier)
                        if w.has_capacity
                    ]
                    assert walked == ranked, (name, domain, tier)


class LeastLoadedShared(SharedPoolMachine):
    """``least_loaded`` heaps over shared workers against a brute-force minimum."""

    @initialize(specs=st.lists(worker_spec, min_size=2, max_size=8), data=st.data())
    def build(self, specs, data):
        self.worlds = (World(LeastLoadedRouter, specs, self.draw_membership(specs, data)),)
        self.next_id = len(specs)

    @rule(name=st.sampled_from(POOLS), domain=st.sampled_from(DOMAINS), n_votes=st.integers(1, 4))
    def route(self, name, domain, n_votes):
        world = self.worlds[0]
        expected = least_loaded_picks(world.pools[name], domain, n_votes) or "exhausted"
        assert world.route(name, domain, n_votes) == expected
        if expected != "exhausted":
            self.in_flight.extend((name, worker_id) for worker_id in expected)

    @rule(
        name=st.sampled_from(POOLS), domain=st.sampled_from(DOMAINS), n_votes=st.integers(1, 3), data=st.data()
    )
    def route_excluding(self, name, domain, n_votes, data):
        members = self.members(name)
        exclude = data.draw(st.lists(st.sampled_from(members), max_size=3, unique=True)) if members else []
        world = self.worlds[0]
        over = least_loaded_picks(world.pools[name], domain, n_votes + len(exclude))
        expected = [worker_id for worker_id in over if worker_id not in exclude][:n_votes]
        assert world.route(name, domain, n_votes, exclude) == expected
        self.in_flight.extend((name, worker_id) for worker_id in expected)


class RoundRobinShared(SharedPoolMachine):
    """``round_robin`` over shared workers against a brute-force walk of the pool order."""

    @initialize(specs=st.lists(worker_spec, min_size=2, max_size=8), data=st.data())
    def build(self, specs, data):
        self.worlds = (World(RoundRobinRouter, specs, self.draw_membership(specs, data)),)
        self.next_id = len(specs)
        self.cursors = {name: 0 for name in POOLS}

    def expect(self, name: str, domain: str, n_votes: int) -> List[str]:
        picks, self.cursors[name] = round_robin_walk(
            self.worlds[0].pools[name], domain, n_votes, self.cursors[name]
        )
        return picks

    @rule(name=st.sampled_from(POOLS), domain=st.sampled_from(DOMAINS), n_votes=st.integers(1, 4))
    def route(self, name, domain, n_votes):
        expected = self.expect(name, domain, n_votes) or "exhausted"
        assert self.worlds[0].route(name, domain, n_votes) == expected
        if expected != "exhausted":
            self.in_flight.extend((name, worker_id) for worker_id in expected)

    @rule(
        name=st.sampled_from(POOLS), domain=st.sampled_from(DOMAINS), n_votes=st.integers(1, 3), data=st.data()
    )
    def route_excluding(self, name, domain, n_votes, data):
        members = self.members(name)
        exclude = data.draw(st.lists(st.sampled_from(members), max_size=3, unique=True)) if members else []
        over = self.expect(name, domain, n_votes + len(exclude))
        expected = [worker_id for worker_id in over if worker_id not in exclude][:n_votes]
        assert self.worlds[0].route(name, domain, n_votes, exclude) == expected
        self.in_flight.extend((name, worker_id) for worker_id in expected)

    @invariant()
    def order_mirrors_the_pool(self):
        for world in self.worlds:
            for name in POOLS:
                assert world.routers[name]._order == world.pools[name].worker_ids


for machine in (AffinityDifferential, LeastLoadedShared, RoundRobinShared):
    machine.TestCase.settings = settings(machine.TestCase.settings, deadline=None, stateful_step_count=40)
TestAffinityDifferential = AffinityDifferential.TestCase
TestLeastLoadedShared = LeastLoadedShared.TestCase
TestRoundRobinShared = RoundRobinShared.TestCase
