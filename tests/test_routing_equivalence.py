"""Indexed-vs-oracle routing equivalence, index internals, and churn hooks.

The ``domain_affinity`` policy walks pre-sorted per-(domain, tier)
rankings maintained from the pool event bus; its test oracle,
``ReferenceAffinityRouter`` (``tests/oracles/routing.py``), re-sorts each
tier per task.  These tests hold the two byte-identical — per pick, per
report, and end-to-end through marketplace churn — and pin the contracts
the index relies on: the pool change-event bus, the pinned affinity
tie-break, the capacity parking and re-admission of the qualification
indexes (and the O(votes) walk it buys), and the lazy-delete/compaction
bookkeeping of both those indexes and the least-loaded heap.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from oracles.routing import ReferenceAffinityRouter
from repro.marketplace import ChurnConfig, MarketplaceConfig, MarketplaceOrchestrator
from repro.marketplace.lifecycle import CampaignSpec
from repro.platform.tasks import Task, TaskKind
from repro.serving.index import DomainIndexSet
from repro.serving.pool import ServingPool, ServingWorker, pool_event_noop
from repro.serving.qualification import (
    DomainQualification,
    QualificationTier,
    affinity_rank_key,
)
from repro.serving.quality import DriftConfig, QualityTracker
from repro.serving.routing import (
    BaseRouter,
    DomainAffinityRouter,
    NoEligibleWorkersError,
    make_router,
    register_router,
)
from repro.serving.service import AnnotationService, ServingConfig

DOMAIN = "target"
QUALIFIED = QualificationTier.QUALIFIED
FALLBACK = QualificationTier.FALLBACK

ROUTERS = ("round_robin", "least_loaded", "domain_affinity")


def worker(worker_id, estimate=0.9, tier=QUALIFIED, max_concurrent=8, questions=20):
    return ServingWorker(
        worker_id=worker_id,
        qualifications={
            DOMAIN: DomainQualification(worker_id, DOMAIN, float(estimate), questions, tier)
        },
        max_concurrent=max_concurrent,
    )


@pytest.fixture
def route_affinity_through_reference():
    """Switch every registry ``domain_affinity`` router to the scan-and-sort oracle.

    No setting selects the oracle, so end-to-end runs reach it by
    re-registering the factory; the built-in is restored after the test.
    """

    def switch():
        register_router("domain_affinity", ReferenceAffinityRouter, replace=True)

    yield switch
    register_router("domain_affinity", DomainAffinityRouter, replace=True)


def make_pool(accuracies, max_concurrent=8, tier=QUALIFIED):
    return ServingPool(
        [
            worker(f"w{index}", estimate, tier=tier, max_concurrent=max_concurrent)
            for index, estimate in enumerate(accuracies)
        ]
    )


def make_task(index, domain=DOMAIN, gold=True):
    return Task(task_id=f"t{index:04d}", domain=domain, kind=TaskKind.WORKING, gold_label=gold)


#: The indexed router and its oracle, in that order.
AFFINITY_ROUTERS = (DomainAffinityRouter, ReferenceAffinityRouter)


def paired_routers(accuracies, max_concurrent=8, tiers=None):
    """Two identical pools, one routed by the index and one by the oracle."""
    tiers = tiers or [QUALIFIED] * len(accuracies)
    pools, routers = [], []
    for router_class in AFFINITY_ROUTERS:
        pool = ServingPool(
            [
                worker(f"w{index}", estimate, tier=tier, max_concurrent=max_concurrent)
                for index, (estimate, tier) in enumerate(zip(accuracies, tiers))
            ]
        )
        pools.append(pool)
        routers.append(router_class(pool))
    return pools, routers


def churn_shape(name):
    """``(accuracies, tiers, max_concurrent, n_tasks)`` of one churn-test pool.

    ``10-workers``: ten evenly spaced estimates, all qualified.
    ``64-workers-fallback``: 64 normal(0.75, 0.1) estimates with about a
    fifth of the workers in the fallback tier, so demotions and fallback
    spill-over interleave with the churn.
    """
    if name == "10-workers":
        return [0.5 + 0.04 * index for index in range(10)], None, 3, 120
    rng = np.random.default_rng(0)
    accuracies = np.clip(rng.normal(0.75, 0.1, size=64), 0.05, 0.95).tolist()
    tiers = [FALLBACK if draw < 0.2 else QUALIFIED for draw in rng.uniform(size=64)]
    return accuracies, tiers, 8, 500


def settle(pools, picks):
    """Complete every routed assignment so capacity churns like a real run."""
    for pool, chosen in zip(pools, picks):
        for worker_id in chosen:
            pool.complete_assignment(worker_id)


class TestEngineEquivalence:
    def test_static_pool_picks_identical(self):
        accuracies = [0.62, 0.95, 0.71, 0.95, 0.55, 0.88]
        pools, (indexed, reference) = paired_routers(accuracies, max_concurrent=2)
        for task in range(40):
            picks = [indexed.route(DOMAIN, 3), reference.route(DOMAIN, 3)]
            assert picks[0] == picks[1]
            settle(pools, picks)
        assert pools[0].load_snapshot() == pools[1].load_snapshot()

    @pytest.mark.parametrize("shape", ["10-workers", "64-workers-fallback"])
    def test_equivalence_under_demotion_and_churn(self, shape):
        # Scripted churn: demotions, departures and re-admissions
        # interleaved with routing, index and oracle in lockstep.
        accuracies, tiers, max_concurrent, n_tasks = churn_shape(shape)
        pools, routers = paired_routers(accuracies, max_concurrent=max_concurrent, tiers=tiers)
        removed = {}
        next_id = len(accuracies)
        for task in range(n_tasks):
            picks = []
            for router in routers:
                try:
                    picks.append(router.route(DOMAIN, 3))
                except NoEligibleWorkersError:
                    picks.append(None)
            assert picks[0] == picks[1], f"index and oracle diverged at task {task}"
            if picks[0] is None:
                continue
            settle(pools, picks)
            if task % 7 == 3:
                for pool in pools:
                    pool.demote(picks[0][0], DOMAIN)
            if task % 11 == 5 and len(pools[0]) > 3:
                victim = picks[0][-1]
                removed[victim] = [pool.remove_worker(victim) for pool in pools]
            if task % 13 == 8:
                if removed:
                    comeback, records = removed.popitem()
                    for pool, record in zip(pools, records):
                        pool.add_worker(record)
                else:
                    estimate = 0.5 + (next_id % 7) * 0.05
                    for pool in pools:
                        pool.add_worker(worker(f"w{next_id}", estimate, max_concurrent=max_concurrent))
                    next_id += 1
        assert pools[0].load_snapshot() == pools[1].load_snapshot()

    def test_route_excluding_identical_across_engines(self):
        pools, (indexed, reference) = paired_routers([0.9, 0.8, 0.85, 0.7], max_concurrent=2)
        exclude = {"w0", "w2"}
        picks = [
            indexed.route_excluding(DOMAIN, 2, exclude),
            reference.route_excluding(DOMAIN, 2, exclude),
        ]
        assert picks[0] == picks[1] == ["w1", "w3"]
        assert pools[0].load_snapshot() == pools[1].load_snapshot()

    def test_native_route_excluding_matches_base_over_request(self):
        # The native exclusion walk must pick exactly what the base class's
        # over-request-and-release dance would have, without the surplus
        # charges ever touching the pool.
        accuracies = [0.9, 0.8, 0.85, 0.7, 0.95]
        native_pool = make_pool(accuracies, max_concurrent=2)
        base_pool = make_pool(accuracies, max_concurrent=2)
        native = make_router("domain_affinity", native_pool)
        via_base = make_router("domain_affinity", base_pool)
        exclude = {"w4", "w0"}
        native_picks = native.route_excluding(DOMAIN, 2, exclude)
        base_picks = BaseRouter.route_excluding(via_base, DOMAIN, 2, exclude)
        assert native_picks == base_picks == ["w2", "w1"]
        assert native_pool.load_snapshot() == base_pool.load_snapshot()

    def test_service_trace_byte_identical_with_mid_run_demotions(self, route_affinity_through_reference):
        # End-to-end through AnnotationService: a drifting worker forces
        # demotions mid-run, and the full serialized trace — every
        # assignment, answer, label, demotion — must not depend on which router ran.
        def run():
            pool = make_pool([0.9, 0.8, 0.7], max_concurrent=8)
            config = ServingConfig(
                router="domain_affinity",
                votes_per_task=3,
                aggregator="majority",
                drift=DriftConfig(
                    alpha=0.2, min_observations=5, demote_below=0.5, drop_tolerance=0.3, cooldown=5
                ),
                reselect_fraction=1 / 3,
            )

            def oracle(worker_id, task, _state={"count": 0}):
                _state["count"] += 1
                if worker_id == "w0" and _state["count"] > 30:
                    return not task.gold_label
                return task.gold_label

            service = AnnotationService(pool, config, answer_oracle=oracle)
            report = service.serve([make_task(i) for i in range(60)])
            assert report.demotions  # the run genuinely exercised demotion
            return type(service._router), json.dumps(report.trace_dict(), sort_keys=True)

        indexed_router, indexed = run()
        route_affinity_through_reference()
        reference_router, reference = run()
        assert (indexed_router, reference_router) == AFFINITY_ROUTERS
        assert indexed == reference

    def test_marketplace_run_identical_across_engines(self, route_affinity_through_reference):
        # Open-world churn end to end: arrivals, departures, requalification
        # and drift all flow through the event bus, and the orchestrator
        # report must be identical whichever router routed every vote.
        def run():
            orchestrator = MarketplaceOrchestrator(
                [CampaignSpec(name="alpha", dataset="S-1", selector="us", k=5, seed=1)],
                config=MarketplaceConfig(router="domain_affinity", total_tasks=30),
                churn=ChurnConfig(arrival_rate=0.8, departure_rate=0.05),
                seed=7,
            )
            report = orchestrator.run(40).to_dict()
            report.pop("elapsed_s")
            return type(orchestrator._handles[0].service._router), report

        indexed_router, indexed = run()
        route_affinity_through_reference()
        reference_router, reference = run()
        assert (indexed_router, reference_router) == AFFINITY_ROUTERS
        assert indexed == reference


class TestChurnHooks:
    """Membership mutations between and during routing, for every policy."""

    @pytest.mark.parametrize("name", ROUTERS)
    def test_added_worker_becomes_routable(self, name):
        pool = make_pool([0.9, 0.8])
        router = make_router(name, pool)
        router.route(DOMAIN, 2)
        pool.add_worker(worker("w9", 0.99))
        assert "w9" in router.route(DOMAIN, 3)

    @pytest.mark.parametrize("name", ROUTERS)
    def test_removed_worker_never_routed_again(self, name):
        pool = make_pool([0.9, 0.8, 0.7])
        router = make_router(name, pool)
        router.route(DOMAIN, 3)
        removed = pool.remove_worker("w0")
        for _ in range(4):
            assert "w0" not in router.route(DOMAIN, 2)
        pool.add_worker(removed)
        assert "w0" in router.route(DOMAIN, 3)

    @pytest.mark.parametrize("name", ROUTERS)
    def test_mid_task_removal_replacement_avoids_the_departed(self, name):
        # A vote invalidated mid-task: the departed worker's slot is
        # released, the worker leaves, and the replacement walk must skip
        # both the survivors and the departed id.
        pool = make_pool([0.9, 0.8, 0.7, 0.6], max_concurrent=1)
        router = make_router(name, pool)
        picks = router.route(DOMAIN, 2)
        victim, survivor = picks[0], picks[1]
        pool.release_assignment(victim)
        pool.remove_worker(victim)
        replacement = router.route_excluding(DOMAIN, 1, exclude=set(picks))
        assert len(replacement) == 1
        assert replacement[0] not in {victim, survivor}

    def test_demotion_reranks_affinity_mid_run(self):
        pool = make_pool([0.95, 0.9, 0.85])
        router = make_router("domain_affinity", pool)
        assert router.route(DOMAIN, 1) == ["w0"]
        pool.complete_assignment("w0")
        pool.demote("w0", DOMAIN)  # QUALIFIED -> FALLBACK
        assert pool["w0"].tier_on(DOMAIN) is FALLBACK
        # w0 now ranks behind every qualified worker despite the top estimate.
        assert router.route(DOMAIN, 3) == ["w1", "w2", "w0"]

    def test_requalification_restores_affinity_rank(self):
        pool = make_pool([0.95, 0.9])
        router = make_router("domain_affinity", pool)
        pool.demote("w0", DOMAIN)
        assert router.route(DOMAIN, 1) == ["w1"]
        pool.complete_assignment("w1")
        pool["w0"].set_qualification(
            DOMAIN, DomainQualification("w0", DOMAIN, 0.95, 20, QUALIFIED)
        )
        assert router.route(DOMAIN, 1) == ["w0"]


class TestDomainIndexSet:
    def test_iter_tier_is_pinned_affinity_order(self):
        pool = make_pool([0.7, 0.9, 0.9, 0.8])
        index = DomainIndexSet(pool)
        ranked = [w.worker_id for w in index.iter_tier(DOMAIN, QUALIFIED)]
        expected = sorted(
            pool.worker_ids, key=lambda wid: affinity_rank_key(pool[wid].estimate_on(DOMAIN), wid)
        )
        assert ranked == expected == ["w1", "w2", "w3", "w0"]

    def test_lazy_delete_counts_then_drops_on_read(self):
        pool = make_pool([0.9, 0.8, 0.7])
        index = DomainIndexSet(pool)
        pool.add_listener(index)
        list(index.iter_tier(DOMAIN, QUALIFIED))  # materialise
        pool.remove_worker("w1")
        stats = index.stats()[f"{DOMAIN}/qualified"]
        assert stats == {"entries": 3, "dead": 1}
        assert [w.worker_id for w in index.iter_tier(DOMAIN, QUALIFIED)] == ["w0", "w2"]
        stats = index.stats()[f"{DOMAIN}/qualified"]
        assert stats == {"entries": 2, "dead": 0}

    def test_compaction_sweeps_garbage_at_the_floor(self):
        pool = make_pool([0.5 + 0.01 * i for i in range(8)])
        index = DomainIndexSet(pool, compact_floor=2)
        pool.add_listener(index)
        list(index.iter_tier(DOMAIN, QUALIFIED))
        for victim in ("w0", "w1", "w2", "w3", "w4", "w5"):
            pool.remove_worker(victim)
        assert index.stats()[f"{DOMAIN}/qualified"] == {"entries": 8, "dead": 6}
        # The next route compacts (dead >= floor and >= half the list)
        # before walking a single entry.
        assert [w.worker_id for w in index.iter_tier(DOMAIN, QUALIFIED)] == ["w7", "w6"]
        assert index.stats()[f"{DOMAIN}/qualified"] == {"entries": 2, "dead": 0}

    def test_compact_floor_must_be_positive(self):
        with pytest.raises(ValueError):
            DomainIndexSet(make_pool([0.9]), compact_floor=0)

    def test_qualification_change_moves_entry_between_tiers(self):
        pool = make_pool([0.9, 0.8])
        index = DomainIndexSet(pool)
        pool.add_listener(index)
        list(index.iter_tier(DOMAIN, QUALIFIED))
        pool.demote("w0", DOMAIN)
        assert [w.worker_id for w in index.iter_tier(DOMAIN, QUALIFIED)] == ["w1"]
        assert [w.worker_id for w in index.iter_tier(DOMAIN, FALLBACK)] == ["w0"]

    def test_estimate_change_rewrites_rank(self):
        pool = make_pool([0.9, 0.8])
        index = DomainIndexSet(pool)
        pool.add_listener(index)
        list(index.iter_tier(DOMAIN, QUALIFIED))
        pool["w1"].set_qualification(
            DOMAIN, DomainQualification("w1", DOMAIN, 0.99, 20, QUALIFIED)
        )
        assert [w.worker_id for w in index.iter_tier(DOMAIN, QUALIFIED)] == ["w1", "w0"]

    def test_arrival_indexed_on_every_materialised_domain(self):
        pool = make_pool([0.9])
        index = DomainIndexSet(pool)
        pool.add_listener(index)
        list(index.iter_tier(DOMAIN, QUALIFIED))
        pool.add_worker(worker("w9", 0.95))
        assert [w.worker_id for w in index.iter_tier(DOMAIN, QUALIFIED)] == ["w9", "w0"]

    def test_saturated_worker_is_parked_not_yielded(self):
        pool = make_pool([0.9, 0.8, 0.7], max_concurrent=1)
        index = DomainIndexSet(pool)
        list(index.iter_tier(DOMAIN, QUALIFIED))
        pool.begin_assignment("w0")
        assert [w.worker_id for w in index.iter_tier(DOMAIN, QUALIFIED)] == ["w1", "w2"]
        # Parked, not dead: the entry left the list without turning garbage.
        assert index.stats()[f"{DOMAIN}/qualified"] == {"entries": 2, "dead": 0}
        assert list(index._parked) == ["w0"]
        assert [w.worker_id for w in index.iter_tier(DOMAIN, QUALIFIED)] == ["w1", "w2"]

    @pytest.mark.parametrize("free", ["complete_assignment", "release_assignment"])
    def test_parked_worker_returns_at_its_rank_when_a_slot_frees(self, free):
        pool = make_pool([0.9, 0.8, 0.7], max_concurrent=2)
        index = DomainIndexSet(pool)
        pool.add_listener(index)
        pool.begin_assignment("w1")
        pool.begin_assignment("w1")
        assert [w.worker_id for w in index.iter_tier(DOMAIN, QUALIFIED)] == ["w0", "w2"]
        getattr(pool, free)("w1")
        assert index._parked == {}
        assert [w.worker_id for w in index.iter_tier(DOMAIN, QUALIFIED)] == ["w0", "w1", "w2"]
        assert index.stats()[f"{DOMAIN}/qualified"] == {"entries": 3, "dead": 0}

    def test_slot_freed_through_another_pool_readmits(self):
        # Marketplace pools share ServingWorker objects: a slot freed in
        # pool A must re-admit the worker in pool B's index.
        shared = [worker(f"w{i}", estimate, max_concurrent=1) for i, estimate in enumerate([0.9, 0.8])]
        pool_a, pool_b = ServingPool(shared), ServingPool(shared)
        index_b = DomainIndexSet(pool_b)
        pool_b.add_listener(index_b)
        pool_a.begin_assignment("w0")
        assert [w.worker_id for w in index_b.iter_tier(DOMAIN, QUALIFIED)] == ["w1"]
        pool_a.complete_assignment("w0")
        assert [w.worker_id for w in index_b.iter_tier(DOMAIN, QUALIFIED)] == ["w0", "w1"]

    def test_parked_worker_demoted_moves_its_record(self):
        pool = make_pool([0.9, 0.8], max_concurrent=1)
        index = DomainIndexSet(pool)
        pool.add_listener(index)
        list(index.iter_tier(DOMAIN, FALLBACK))
        pool.begin_assignment("w0")
        assert [w.worker_id for w in index.iter_tier(DOMAIN, QUALIFIED)] == ["w1"]
        pool.demote("w0", DOMAIN)
        assert index.stats()[f"{DOMAIN}/qualified"] == {"entries": 1, "dead": 0}
        assert list(index.iter_tier(DOMAIN, FALLBACK)) == []
        pool.complete_assignment("w0")
        assert [w.worker_id for w in index.iter_tier(DOMAIN, QUALIFIED)] == ["w1"]
        assert [w.worker_id for w in index.iter_tier(DOMAIN, FALLBACK)] == ["w0"]

    def test_parked_worker_departing_is_forgotten(self):
        shared = [worker(f"w{i}", estimate, max_concurrent=1) for i, estimate in enumerate([0.9, 0.8])]
        pool_a, pool_b = ServingPool(shared), ServingPool(shared)
        index_b = DomainIndexSet(pool_b)
        pool_b.add_listener(index_b)
        pool_a.begin_assignment("w0")
        list(index_b.iter_tier(DOMAIN, QUALIFIED))
        pool_b.remove_worker("w0")
        assert index_b._parked == {}
        assert shared[0].pools == [pool_a]
        assert index_b.stats()[f"{DOMAIN}/qualified"] == {"entries": 1, "dead": 0}
        pool_a.complete_assignment("w0")
        assert [w.worker_id for w in index_b.iter_tier(DOMAIN, QUALIFIED)] == ["w1"]

    def test_readmission_during_a_suspended_walk(self):
        pool = make_pool([0.9, 0.8, 0.7, 0.6], max_concurrent=1)
        index = DomainIndexSet(pool)
        pool.add_listener(index)
        pool.begin_assignment("w3")
        list(index.iter_tier(DOMAIN, QUALIFIED))  # parks w3
        pool.begin_assignment("w0")
        walk = index.iter_tier(DOMAIN, QUALIFIED)
        assert next(walk).worker_id == "w1"  # w0 parked on the way
        # w0 re-enters behind the walk, w3 ahead of it: like the live
        # capacity check of the scan-and-sort oracle, the walk neither repeats
        # nor revisits what it passed, and reaches what lies ahead.
        pool.complete_assignment("w0")
        pool.complete_assignment("w3")
        assert [w.worker_id for w in walk] == ["w2", "w3"]
        assert [w.worker_id for w in index.iter_tier(DOMAIN, QUALIFIED)] == ["w0", "w1", "w2", "w3"]


class TestWalkCost:
    """A route validates O(votes) entries, not every saturated worker ranked first."""

    @staticmethod
    def count_lookups(pool):
        calls = []
        lookup = pool.get

        def counting_get(worker_id):
            calls.append(worker_id)
            return lookup(worker_id)

        pool.get = counting_get
        return calls

    def test_saturated_top_half_is_not_walked(self):
        n_workers, votes = 200, 3
        pool = make_pool([0.999 - 0.001 * i for i in range(n_workers)], max_concurrent=1)
        router = DomainAffinityRouter(pool)
        for _ in range(n_workers // 2):
            router.route(DOMAIN, 1)  # saturates the top-ranked half, one worker per task
        assert all(not pool[f"w{i}"].has_capacity for i in range(n_workers // 2))
        calls = self.count_lookups(pool)
        # The last single-vote pick is parked on the way, then one entry per vote.
        assert router.route(DOMAIN, votes) == ["w100", "w101", "w102"]
        assert calls == ["w99", "w100", "w101", "w102"]
        del calls[:]
        # The previous route's picks, the excluded worker, then one entry per vote.
        assert router.route_excluding(DOMAIN, votes, ["w103"]) == ["w104", "w105", "w106"]
        assert len(calls) == votes + 1 + votes

    def test_freed_workers_are_walked_again(self):
        pool = make_pool([0.9 - 0.01 * i for i in range(50)], max_concurrent=1)
        router = DomainAffinityRouter(pool)
        picks = [router.route(DOMAIN, 5) for _ in range(5)]
        for chosen in picks:
            for worker_id in chosen:
                pool.complete_assignment(worker_id)
        calls = self.count_lookups(pool)
        assert router.route(DOMAIN, 5) == ["w0", "w1", "w2", "w3", "w4"]
        assert len(calls) == 5


class TestPoolEventBus:
    class Recorder:
        def __init__(self):
            self.events = []

        def on_worker_added(self, worker_id):
            self.events.append(("added", worker_id))

        def on_worker_removed(self, worker_id):
            self.events.append(("removed", worker_id))

        def on_qualification_changed(self, worker_id, domain):
            self.events.append(("qualification", worker_id, domain))

        def on_load_changed(self, worker_id):
            self.events.append(("load", worker_id))

    def test_every_mutation_reaches_the_bus(self):
        pool = make_pool([0.9, 0.8])
        recorder = self.Recorder()
        pool.add_listener(recorder)
        pool.begin_assignment("w0")
        pool.complete_assignment("w0")
        pool.begin_assignment("w1")
        pool.release_assignment("w1")
        pool.demote("w0", DOMAIN)
        pool.add_worker(worker("w9"))
        pool.remove_worker("w9")
        assert recorder.events == [
            ("load", "w0"),
            ("load", "w0"),
            ("load", "w1"),
            ("load", "w1"),
            ("qualification", "w0", DOMAIN),
            ("added", "w9"),
            ("removed", "w9"),
        ]

    def test_qualification_event_requires_a_real_change(self):
        pool = make_pool([0.9])
        recorder = self.Recorder()
        pool.add_listener(recorder)
        # Same tier, same estimate: set_qualification stays silent.
        pool["w0"].set_qualification(
            DOMAIN, DomainQualification("w0", DOMAIN, 0.9, 20, QUALIFIED)
        )
        assert recorder.events == []
        pool["w0"].set_qualification(
            DOMAIN, DomainQualification("w0", DOMAIN, 0.95, 20, QUALIFIED)
        )
        assert recorder.events == [("qualification", "w0", DOMAIN)]

    def test_noop_marked_hooks_are_never_called(self):
        calls = []

        class Listener:
            @pool_event_noop
            def on_load_changed(self, worker_id):
                calls.append(worker_id)

            def on_worker_added(self, worker_id):
                calls.append(("added", worker_id))

        pool = make_pool([0.9])
        pool.add_listener(Listener())
        pool.begin_assignment("w0")
        pool.add_worker(worker("w9"))
        assert calls == [("added", "w9")]

    def test_discard_listener_stops_dispatch(self):
        pool = make_pool([0.9])
        recorder = self.Recorder()
        pool.add_listener(recorder)
        pool.discard_listener(recorder)
        pool.begin_assignment("w0")
        pool.add_worker(worker("w9"))
        assert recorder.events == []


class TestSharedWorkers:
    """Pools sharing one worker record all hear its load and qualification changes."""

    def test_demotion_through_one_pool_reranks_the_other(self):
        picks = {}
        for router_class in AFFINITY_ROUTERS:
            shared = [worker("w0", 0.9), worker("w1", 0.8)]
            pool_a, pool_b = ServingPool(shared), ServingPool(shared)
            router_b = router_class(pool_b)
            router_b.route(DOMAIN, 1)  # materialises B's index
            pool_b.complete_assignment("w0")
            pool_a.demote("w0", DOMAIN)  # QUALIFIED -> FALLBACK, through A only
            pool_a.demote("w1", DOMAIN)
            try:
                picks[router_class] = router_b.route(DOMAIN, 2)
            except NoEligibleWorkersError:
                picks[router_class] = "exhausted"
        assert picks == {DomainAffinityRouter: ["w0", "w1"], ReferenceAffinityRouter: ["w0", "w1"]}

    def test_worker_write_reaches_every_pool_holding_it(self):
        recorders = [TestPoolEventBus.Recorder() for _ in range(3)]
        shared = worker("w0")
        pools = [ServingPool([shared]), ServingPool([shared]), ServingPool([worker("w1")])]
        for pool, recorder in zip(pools, recorders):
            pool.add_listener(recorder)
        shared.set_qualification(DOMAIN, DomainQualification("w0", DOMAIN, 0.5, 20, FALLBACK))
        pools[1].begin_assignment("w0")
        expected = [("qualification", "w0", DOMAIN), ("load", "w0")]
        assert [recorder.events for recorder in recorders] == [expected, expected, []]

    def test_pool_list_follows_membership(self):
        shared = worker("w0")
        with pytest.raises(ValueError):
            ServingPool([shared, worker("w0")])  # rejected pools never link
        assert shared.pools == []
        pool_a = ServingPool([shared])
        pool_b = ServingPool([worker("w1")])
        pool_b.add_worker(shared)
        assert shared.pools == [pool_a, pool_b]
        pool_a.remove_worker("w0")
        assert shared.pools == [pool_b]

    def test_retired_pool_hears_nothing_and_still_removes(self):
        shared = worker("w0")
        pool_a, pool_b = ServingPool([shared]), ServingPool([shared])
        recorder = TestPoolEventBus.Recorder()
        pool_a.add_listener(recorder)
        pool_a.retire()
        assert shared.pools == [pool_b] and "w0" in pool_a
        pool_b.begin_assignment("w0")
        pool_b.demote("w0", DOMAIN)
        assert recorder.events == []
        pool_a.remove_worker("w0")
        assert recorder.events == [("removed", "w0")]
        assert shared.pools == [pool_b]


class TestLeastLoadedCompaction:
    @staticmethod
    def churn_script(router, pool):
        """Routes interleaved with heavy departures; returns every pick."""
        picks = []
        next_id = len(pool)
        for step in range(60):
            chosen = router.route(DOMAIN, 2)
            picks.append(chosen)
            for worker_id in chosen:
                pool.complete_assignment(worker_id)
            if step % 2 == 0 and len(pool) > 3:
                standing = [wid for wid in pool.worker_ids if wid not in chosen]
                pool.remove_worker(standing[step % len(standing)])
            if step % 3 == 0:
                pool.add_worker(worker(f"w{next_id}", 0.8, max_concurrent=8))
                next_id += 1
        return picks

    def test_compaction_does_not_change_routing_output(self):
        compacting_pool = make_pool([0.9] * 8)
        lazy_pool = make_pool([0.9] * 8)
        compacting = make_router("least_loaded", compacting_pool)
        lazy = make_router("least_loaded", lazy_pool)
        lazy._maybe_compact = lambda: None  # garbage only ever popped lazily
        assert self.churn_script(compacting, compacting_pool) == self.churn_script(lazy, lazy_pool)
        assert compacting_pool.load_snapshot() == lazy_pool.load_snapshot()

    def test_heap_garbage_stays_bounded_under_churn(self):
        pool = make_pool([0.9] * 8)
        router = make_router("least_loaded", pool)
        self.churn_script(router, pool)
        # Entries can never outrun live workers 2:1 (plus the constant
        # floor) past the next route: the compaction trigger fires first.
        router.route(DOMAIN, 1)
        assert len(router._heap) <= 2 * len(pool) + 16 + 1


class TestPinnedTieBreak:
    def test_load_never_participates_in_affinity_ranking(self):
        # Equal estimates: worker id alone breaks the tie, even when the
        # lexically-first worker is far more loaded.
        pool = make_pool([0.9, 0.9, 0.9], max_concurrent=8)
        for _ in range(5):
            pool.begin_assignment("w0")
        router = make_router("domain_affinity", pool)
        assert router.route(DOMAIN, 3) == ["w0", "w1", "w2"]

    def test_ranking_frozen_across_the_votes_of_one_task(self):
        # Charging the first vote must not re-rank the remaining votes —
        # the ranking is a pure function of qualification state.
        for router_class in AFFINITY_ROUTERS:
            fresh = make_pool([0.9, 0.9], max_concurrent=8)
            router = router_class(fresh)
            assert router.route(DOMAIN, 2) == ["w0", "w1"]

    def test_saturated_top_worker_spills_to_next_rank(self):
        pool = make_pool([0.95, 0.9], max_concurrent=1)
        router = make_router("domain_affinity", pool)
        assert router.route(DOMAIN, 1) == ["w0"]
        assert router.route(DOMAIN, 1) == ["w1"]


class TestTrackerForget:
    def test_forget_worker_drops_streams_not_history(self):
        tracker = QualityTracker(DriftConfig(min_observations=2))
        for _ in range(4):
            tracker.observe("w0", DOMAIN, True)
        assert tracker.ewma("w0", DOMAIN) is not None
        tracker.forget_worker("w0")
        assert tracker.ewma("w0", DOMAIN) is None
        assert tracker.baseline("w0", DOMAIN) is None
        assert tracker.snapshot() == {}

    def test_service_forgets_departed_workers(self):
        pool = make_pool([0.9, 0.8, 0.7])
        service = AnnotationService(
            pool,
            ServingConfig(
                router="round_robin",
                votes_per_task=3,
                drift=DriftConfig(min_observations=2),
            ),
        )
        for index in range(3):
            assignment = service.submit(make_task(index))
            for worker_id in assignment.worker_ids:
                service.record_answer(assignment.task_id, worker_id, True)
        assert service.tracker.ewma("w0", DOMAIN) is not None
        pool.remove_worker("w0")
        assert service.tracker.ewma("w0", DOMAIN) is None


class TestEngineConfiguration:
    """The library ships one ranking; the scan-and-sort oracle stays in the tests."""

    def test_router_rejects_unknown_engine(self):
        for engine in ("bogus", "reference", "indexed"):
            with pytest.raises(TypeError, match="invalid configuration"):
                make_router("domain_affinity", make_pool([0.9]), engine=engine)

    def test_reference_engine_carries_no_index(self):
        # The oracle must not share the index it is held against.
        oracle = ReferenceAffinityRouter(make_pool([0.9]))
        assert not hasattr(oracle, "_index")
        indexed = make_router("domain_affinity", make_pool([0.9]))
        assert isinstance(indexed._index, DomainIndexSet)
