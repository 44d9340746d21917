"""Tests for the serving layer: qualification, pool, routing, service, drift."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaign import Campaign
from repro.platform.session import BudgetExceededError
from repro.platform.tasks import Task, TaskKind, generate_task_bank
from repro.serving.pool import ServingPool, ServingWorker
from repro.serving.qualification import (
    DomainQualification,
    QualificationPolicy,
    QualificationTier,
    qualification_for,
)
from repro.serving.quality import DriftConfig, QualityTracker
from repro.serving.routing import (
    GLOBAL_ROUTER_REGISTRY,
    BaseRouter,
    NoEligibleWorkersError,
    make_router,
    register_router,
    resolve_router_name,
    router_exists,
    router_names,
)
from repro.serving.service import (
    AnnotationService,
    ServingConfig,
    working_task_stream,
)

DOMAIN = "target"


def make_pool(accuracies, max_concurrent=8, tier=QualificationTier.QUALIFIED):
    """A serving pool of workers qualified on DOMAIN with the given estimates."""
    workers = []
    for index, estimate in enumerate(accuracies):
        worker_id = f"w{index}"
        workers.append(
            ServingWorker(
                worker_id=worker_id,
                qualifications={
                    DOMAIN: DomainQualification(worker_id, DOMAIN, float(estimate), 20, tier)
                },
                max_concurrent=max_concurrent,
            )
        )
    return ServingPool(workers)


def make_task(index, domain=DOMAIN, gold=True):
    return Task(task_id=f"t{index:04d}", domain=domain, kind=TaskKind.WORKING, gold_label=gold)


class TestQualification:
    def test_tiers_from_thresholds(self):
        policy = QualificationPolicy(threshold=0.7, fallback_threshold=0.5, min_questions=5)
        assert policy.qualify(0.8, 10) is QualificationTier.QUALIFIED
        assert policy.qualify(0.6, 10) is QualificationTier.FALLBACK
        assert policy.qualify(0.4, 10) is QualificationTier.UNQUALIFIED

    def test_insufficient_questions_cap_at_fallback(self):
        policy = QualificationPolicy(threshold=0.7, fallback_threshold=0.5, min_questions=5)
        assert policy.qualify(0.95, 4) is QualificationTier.FALLBACK
        assert policy.qualify(0.4, 4) is QualificationTier.UNQUALIFIED

    def test_fallback_tier_can_be_disabled(self):
        policy = QualificationPolicy(threshold=0.7, fallback_threshold=0.5, allow_fallback=False)
        assert policy.qualify(0.6, 20) is QualificationTier.UNQUALIFIED
        assert policy.qualify(0.9, 1) is QualificationTier.UNQUALIFIED

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            QualificationPolicy(threshold=0.5, fallback_threshold=0.6)
        with pytest.raises(ValueError):
            QualificationPolicy(min_questions=-1)

    def test_demotion_walks_down_and_saturates(self):
        qualification = qualification_for(QualificationPolicy(), "w", DOMAIN, 0.9, 50)
        assert qualification.tier is QualificationTier.QUALIFIED
        once = qualification.demoted()
        assert once.tier is QualificationTier.FALLBACK
        twice = once.demoted()
        assert twice.tier is QualificationTier.UNQUALIFIED
        assert twice.demoted().tier is QualificationTier.UNQUALIFIED


class TestServingPool:
    def test_from_selection_qualifies_target_and_prior_domains(self):
        from tests.conftest import make_profile

        profiles = {
            "w0": make_profile("w0", {"a": 0.9, "b": 0.4}, {"a": 30, "b": 30}),
            "w1": make_profile("w1", {"a": 0.7}, {"a": 3}),
        }
        pool = ServingPool.from_selection(
            worker_ids=["w0", "w1"],
            target_domain=DOMAIN,
            target_estimates={"w0": 0.85, "w1": 0.55},
            training_questions={"w0": 20, "w1": 20},
            profiles=profiles,
            policy=QualificationPolicy(threshold=0.7, fallback_threshold=0.5, min_questions=5),
        )
        assert pool["w0"].tier_on(DOMAIN) is QualificationTier.QUALIFIED
        assert pool["w1"].tier_on(DOMAIN) is QualificationTier.FALLBACK
        assert pool["w0"].tier_on("a") is QualificationTier.QUALIFIED
        assert pool["w0"].tier_on("b") is QualificationTier.UNQUALIFIED
        # Too few prior questions on "a" for w1 -> fallback despite 0.7.
        assert pool["w1"].tier_on("a") is QualificationTier.FALLBACK
        # No record at all -> unqualified.
        assert pool["w1"].tier_on("b") is QualificationTier.UNQUALIFIED

    def test_concurrency_cap_enforced(self):
        pool = make_pool([0.8], max_concurrent=2)
        pool.begin_assignment("w0")
        pool.begin_assignment("w0")
        with pytest.raises(RuntimeError):
            pool.begin_assignment("w0")
        pool.complete_assignment("w0")
        pool.begin_assignment("w0")  # capacity released

    def test_complete_without_assignment_rejected(self):
        pool = make_pool([0.8])
        with pytest.raises(RuntimeError):
            pool.complete_assignment("w0")

    def test_demote_changes_eligibility(self):
        pool = make_pool([0.8, 0.9])
        assert pool.eligible(DOMAIN, QualificationTier.QUALIFIED) == ["w0", "w1"]
        assert pool.demote("w0", DOMAIN) is QualificationTier.FALLBACK
        assert pool.eligible(DOMAIN, QualificationTier.QUALIFIED) == ["w1"]
        assert pool.eligible(DOMAIN) == ["w0", "w1"]

    def test_demotion_skips_fallback_when_policy_disallows_it(self):
        policy = QualificationPolicy(allow_fallback=False)
        worker = ServingWorker(
            "w0",
            {DOMAIN: DomainQualification("w0", DOMAIN, 0.9, 20, QualificationTier.QUALIFIED)},
        )
        pool = ServingPool([worker], policy=policy)
        # A pool that never routes to fallback must not demote into it.
        assert pool.demote("w0", DOMAIN) is QualificationTier.UNQUALIFIED

    def test_duplicate_and_empty_pools_rejected(self):
        worker = ServingWorker(worker_id="w0")
        with pytest.raises(ValueError):
            ServingPool([worker, ServingWorker(worker_id="w0")])
        with pytest.raises(ValueError):
            ServingPool([])


class TestRouterRegistry:
    def test_builtins_registered(self):
        assert {"round_robin", "least_loaded", "domain_affinity"} <= set(router_names())

    def test_aliases_and_case(self):
        assert resolve_router_name("LL") == "least_loaded"
        assert resolve_router_name("Domain-Affinity") == "domain_affinity"
        assert router_exists("rr")

    def test_unknown_router_rejected_with_choices(self):
        with pytest.raises(KeyError, match="least_loaded"):
            resolve_router_name("nope")

    def test_custom_router_plugs_in(self):
        @register_router("always-first")
        class AlwaysFirst(BaseRouter):
            name = "always_first"

            def route(self, domain, n_votes):
                worker_id = self.pool.worker_ids[0]
                self.pool.begin_assignment(worker_id)
                return [worker_id]

        try:
            router = make_router("always-first", make_pool([0.5, 0.9]))
            assert router.route(DOMAIN, 3) == ["w0"]
        finally:
            GLOBAL_ROUTER_REGISTRY.unregister("always-first")
        assert not router_exists("always_first")

    def test_double_registration_rejected(self):
        with pytest.raises(ValueError):
            register_router("round_robin", lambda pool: None)


class TestRouters:
    def test_round_robin_cycles_evenly(self):
        pool = make_pool([0.9, 0.8, 0.7, 0.6])
        router = make_router("round_robin", pool)
        for index in range(8):
            (worker_id,) = router.route(DOMAIN, 1)
            assert worker_id == f"w{index % 4}"
            pool.complete_assignment(worker_id)

    def test_routers_pick_distinct_workers_per_task(self):
        for policy in router_names():
            pool = make_pool([0.9, 0.8, 0.7, 0.6])
            chosen = make_router(policy, pool).route(DOMAIN, 3)
            assert len(set(chosen)) == 3

    def test_least_loaded_prefers_idle_workers(self):
        pool = make_pool([0.9, 0.8, 0.7])
        router = make_router("least_loaded", pool)
        first = router.route(DOMAIN, 2)
        # The two routed workers are busy; the third must be next.
        (third,) = router.route(DOMAIN, 1)
        assert third not in first

    def test_least_loaded_sees_externally_released_load(self):
        pool = make_pool([0.9, 0.8], max_concurrent=1)
        router = make_router("least_loaded", pool)
        busy = router.route(DOMAIN, 2)
        assert sorted(busy) == ["w0", "w1"]
        with pytest.raises(NoEligibleWorkersError):
            router.route(DOMAIN, 1)
        pool.complete_assignment("w1")  # released outside the router
        assert router.route(DOMAIN, 1) == ["w1"]

    def test_least_loaded_never_repeats_a_worker_within_one_task(self):
        # Regression: with one worker pre-loaded, the idle worker's
        # re-pushed heap key stayed minimal and it was chosen twice.
        pool = make_pool([0.9, 0.8])
        pool.begin_assignment("w1")
        router = make_router("least_loaded", pool)
        chosen = router.route(DOMAIN, 3)
        assert sorted(chosen) == ["w0", "w1"]

    def test_domain_affinity_ranks_by_estimate(self):
        pool = make_pool([0.6, 0.95, 0.8])
        chosen = make_router("domain_affinity", pool).route(DOMAIN, 2)
        assert chosen == ["w1", "w2"]

    def test_domain_affinity_spills_into_fallback_tier(self):
        workers = [
            ServingWorker("q0", {DOMAIN: DomainQualification("q0", DOMAIN, 0.9, 20, QualificationTier.QUALIFIED)}, max_concurrent=1),
            ServingWorker("f0", {DOMAIN: DomainQualification("f0", DOMAIN, 0.99, 20, QualificationTier.FALLBACK)}),
        ]
        pool = ServingPool(workers)
        chosen = make_router("domain_affinity", pool).route(DOMAIN, 2)
        # Qualified first despite the fallback worker's higher estimate.
        assert chosen == ["q0", "f0"]

    def test_unqualified_workers_never_routed(self):
        pool = make_pool([0.9, 0.8], tier=QualificationTier.UNQUALIFIED)
        for policy in router_names():
            with pytest.raises(NoEligibleWorkersError):
                make_router(policy, pool).route(DOMAIN, 1)

    def test_invalid_votes_rejected(self):
        pool = make_pool([0.9])
        with pytest.raises(ValueError):
            make_router("round_robin", pool).route(DOMAIN, 0)


class TestAnnotationService:
    def answer_all_yes(self, worker_id, task):
        return True

    def test_submit_and_record_roundtrip(self):
        pool = make_pool([0.9, 0.8, 0.7])
        service = AnnotationService(pool, ServingConfig(router="round_robin", votes_per_task=2))
        assignment = service.submit(make_task(0))
        assert len(assignment.worker_ids) == 2
        for worker_id in assignment.worker_ids:
            service.record_answer(assignment.task_id, worker_id, True)
        report = service.report()
        assert report.labels == {"t0000": True}
        assert report.n_tasks_routed == 1
        assert report.n_answers == 2

    def test_record_answer_validates_assignment(self):
        pool = make_pool([0.9, 0.8])
        service = AnnotationService(pool, ServingConfig(router="round_robin", votes_per_task=1))
        assignment = service.submit(make_task(0))
        with pytest.raises(KeyError):
            service.record_answer("missing", assignment.worker_ids[0], True)
        other = [w for w in pool.worker_ids if w not in assignment.worker_ids][0]
        with pytest.raises(KeyError):
            service.record_answer(assignment.task_id, other, True)
        service.record_answer(assignment.task_id, assignment.worker_ids[0], True)
        with pytest.raises(KeyError):  # task finalized and no longer pending
            service.record_answer(assignment.task_id, assignment.worker_ids[0], True)

    def test_budget_enforced_before_routing(self):
        pool = make_pool([0.9, 0.8, 0.7])
        config = ServingConfig(router="round_robin", votes_per_task=3, max_assignments=4)
        service = AnnotationService(pool, config, answer_oracle=self.answer_all_yes)
        service.process(make_task(0))
        # One vote left: the second task is routed with a single vote.
        assignment = service.process(make_task(1))
        assert len(assignment.worker_ids) == 1
        with pytest.raises(BudgetExceededError):
            service.submit(make_task(2))
        assert service.spent_assignments == 4

    def test_serve_stops_gracefully_on_budget(self):
        pool = make_pool([0.9, 0.8, 0.7])
        config = ServingConfig(router="round_robin", votes_per_task=3, max_assignments=7)
        service = AnnotationService(pool, config, answer_oracle=self.answer_all_yes)
        report = service.serve([make_task(i) for i in range(10)])
        assert report.budget_exhausted
        assert report.spent_assignments == 7
        assert report.n_tasks_routed == 3

    def test_label_accuracy_against_captured_gold(self):
        pool = make_pool([0.9, 0.8, 0.7])
        service = AnnotationService(
            pool,
            ServingConfig(router="round_robin", votes_per_task=3, aggregator="majority"),
            answer_oracle=lambda worker_id, task: task.gold_label,
        )
        report = service.serve([make_task(i, gold=bool(i % 2)) for i in range(10)])
        assert report.label_accuracy == 1.0

    def test_capacity_exhaustion_recorded_in_report(self):
        pool = make_pool([0.9, 0.8], max_concurrent=1)
        service = AnnotationService(
            pool,
            ServingConfig(router="round_robin", votes_per_task=2),
            answer_oracle=self.answer_all_yes,
        )
        # submit() without record_answer keeps both workers at their cap,
        # so the next serve() call finds no capacity and must say so.
        service.submit(make_task(0))
        report = service.serve([make_task(1)])
        assert report.capacity_exhausted
        assert not report.budget_exhausted

    def test_n_answers_counts_recorded_answers_not_routed_votes(self):
        pool = make_pool([0.9, 0.8, 0.7])
        service = AnnotationService(pool, ServingConfig(router="round_robin", votes_per_task=3))
        assignment = service.submit(make_task(0))
        service.record_answer(assignment.task_id, assignment.worker_ids[0], True)
        report = service.report()
        assert report.spent_assignments == 3
        assert report.n_answers == 1

    def test_process_requires_oracle(self):
        service = AnnotationService(make_pool([0.9]))
        with pytest.raises(RuntimeError):
            service.process(make_task(0))

    def test_duplicate_submission_rejected_while_pending(self):
        service = AnnotationService(make_pool([0.9, 0.8]), ServingConfig(votes_per_task=2))
        service.submit(make_task(0))
        with pytest.raises(ValueError):
            service.submit(make_task(0))


class TestDrift:
    def test_warmup_mean_seeds_both_averages(self):
        tracker = QualityTracker(DriftConfig(min_observations=4))
        for value in (True, True, False, True):
            assert tracker.observe("w", DOMAIN, value) is None
        assert tracker.ewma("w", DOMAIN) == pytest.approx(0.75)
        assert tracker.baseline("w", DOMAIN) == pytest.approx(0.75)

    def test_stable_mediocre_worker_never_alarms(self):
        tracker = QualityTracker(DriftConfig(min_observations=10))
        rng = np.random.default_rng(0)
        for _ in range(500):
            event = tracker.observe("w", DOMAIN, bool(rng.uniform() < 0.62))
            assert event is None

    def test_degraded_worker_demoted_within_window(self):
        config = DriftConfig(alpha=0.1, min_observations=10, demote_below=0.45, drop_tolerance=0.25, cooldown=5)
        tracker = QualityTracker(config)
        for _ in range(60):
            assert tracker.observe("w", DOMAIN, True) is None
        fired_after = None
        for step in range(1, 4 * int(1 / config.alpha)):
            if tracker.observe("w", DOMAIN, False) is not None:
                fired_after = step
                break
        assert fired_after is not None
        # Detection within a few detection windows (1/alpha answers each).
        assert fired_after <= 3 * int(1 / config.alpha)

    def test_cooldown_suppresses_immediate_re_alarm(self):
        config = DriftConfig(alpha=0.5, min_observations=2, demote_below=0.6, drop_tolerance=0.1, cooldown=10)
        tracker = QualityTracker(config)
        tracker.observe("w", DOMAIN, True)
        tracker.observe("w", DOMAIN, True)
        fired = [bool(tracker.observe("w", DOMAIN, False)) for _ in range(8)]
        assert sum(fired) == 1  # one event, then cooldown silence

    def test_service_demotes_and_raises_reselection_signal(self):
        pool = make_pool([0.9, 0.8, 0.7], max_concurrent=8)
        config = ServingConfig(
            router="round_robin",
            votes_per_task=3,
            aggregator="majority",
            drift=DriftConfig(alpha=0.2, min_observations=5, demote_below=0.5, drop_tolerance=0.3, cooldown=5),
            reselect_fraction=1 / 3,
        )
        # w0 always disagrees with the (majority) label after a clean warm-up.
        def oracle(worker_id, task, _state={"count": 0}):
            _state["count"] += 1
            if worker_id == "w0" and _state["count"] > 30:
                return not task.gold_label
            return task.gold_label

        service = AnnotationService(pool, config, answer_oracle=oracle)
        report = service.serve([make_task(i) for i in range(60)])
        assert any(d["worker_id"] == "w0" for d in report.demotions)
        assert pool["w0"].tier_on(DOMAIN) < QualificationTier.QUALIFIED
        assert report.reselection_recommended
        assert all(event.worker_id == "w0" for event in report.drift_events)


class TestWorkingTaskStream:
    def test_default_length_is_bank_size(self):
        bank = generate_task_bank("d", 4, 6, rng=0)
        stream = working_task_stream(bank)
        assert [t.task_id for t in stream] == [t.task_id for t in bank.working_tasks]

    def test_cycling_creates_distinct_replica_ids(self):
        bank = generate_task_bank("d", 2, 3, rng=0)
        stream = working_task_stream(bank, n_tasks=8)
        ids = [t.task_id for t in stream]
        assert len(set(ids)) == 8
        assert ids[3] == f"{ids[0]}#r1"
        assert stream[3].gold_label == stream[0].gold_label

    def test_empty_bank_rejected(self):
        bank = generate_task_bank("d", 3, 0, rng=0)
        with pytest.raises(ValueError):
            working_task_stream(bank)


class TestServingDeterminism:
    def test_same_seed_and_policy_byte_identical(self):
        def trace(router):
            campaign = Campaign(dataset="S-1", selector="us", k=5, seed=3)
            report = campaign.serve(n_tasks=80, router=router, votes_per_task=3)
            return json.dumps(report.trace_dict(), sort_keys=True)

        for router in ("round_robin", "least_loaded", "domain_affinity"):
            assert trace(router) == trace(router)

    def test_different_serving_seed_changes_answers(self):
        def labels(serving_seed):
            campaign = Campaign(dataset="S-1", selector="us", k=5, seed=3)
            return campaign.serve(n_tasks=80, router="round_robin", seed=serving_seed).labels

        assert labels(0) != labels(1)

    def test_campaign_serve_config_and_overrides_exclusive(self):
        campaign = Campaign(dataset="S-1", selector="us", k=5, seed=3)
        with pytest.raises(ValueError):
            campaign.serving_service(ServingConfig(), router="round_robin")


def qualified(worker_id, estimate=0.9):
    """A ServingWorker qualified on DOMAIN (for mutation tests)."""
    return ServingWorker(
        worker_id=worker_id,
        qualifications={
            DOMAIN: DomainQualification(worker_id, DOMAIN, estimate, 20, QualificationTier.QUALIFIED)
        },
    )


class TestPoolMutation:
    def test_add_and_remove_worker(self):
        pool = make_pool([0.9, 0.8])
        newcomer = qualified("w9")
        pool.add_worker(newcomer)
        assert "w9" in pool
        with pytest.raises(ValueError):
            pool.add_worker(ServingWorker(worker_id="w9"))
        assert pool.remove_worker("w9") is newcomer
        with pytest.raises(KeyError):
            pool.remove_worker("w9")

    def test_membership_listeners_notified(self):
        events = []

        class Listener:
            def on_worker_added(self, worker_id):
                events.append(("added", worker_id))

            def on_worker_removed(self, worker_id):
                events.append(("removed", worker_id))

        pool = make_pool([0.9, 0.8])
        pool.add_listener(Listener())
        pool.add_worker(qualified("w9"))
        pool.remove_worker("w0")
        assert events == [("added", "w9"), ("removed", "w0")]

    def test_release_assignment_refunds_capacity_and_load(self):
        pool = make_pool([0.9], max_concurrent=1)
        pool.begin_assignment("w0")
        pool.release_assignment("w0")
        assert pool["w0"].active == 0
        assert pool["w0"].assigned_total == 0
        pool.begin_assignment("w0")  # capacity genuinely released
        pool.complete_assignment("w0")
        with pytest.raises(RuntimeError):  # nothing in flight any more
            pool.release_assignment("w0")

    def test_least_loaded_never_routes_to_removed_worker(self):
        # Regression: the least-loaded heap used to keep entries for removed
        # workers and hand them straight back out of route().
        pool = make_pool([0.9, 0.8, 0.7])
        router = make_router("least_loaded", pool)
        router.route(DOMAIN, 3)  # heap now holds all three workers
        pool.remove_worker("w1")
        for _ in range(4):
            assert "w1" not in router.route(DOMAIN, 2)

    def test_least_loaded_routes_to_added_worker(self):
        pool = make_pool([0.9, 0.8])
        router = make_router("least_loaded", pool)
        pool.add_worker(qualified("w9"))
        assert "w9" in router.route(DOMAIN, 3)

    def test_route_excluding_releases_surplus_assignments(self):
        pool = make_pool([0.9, 0.8, 0.7])
        router = make_router("round_robin", pool)
        picks = router.route_excluding(DOMAIN, 1, exclude={"w0", "w1"})
        assert picks == ["w2"]
        assert pool["w2"].active == 1
        assert pool["w0"].active == 0 and pool["w1"].active == 0

    def test_route_excluding_with_nobody_left_returns_empty(self):
        pool = make_pool([0.9])
        router = make_router("round_robin", pool)
        assert router.route_excluding(DOMAIN, 1, exclude={"w0"}) == []
        assert pool["w0"].active == 0


class TestVoteInvalidation:
    def test_invalidate_worker_reassigns_pending_votes(self):
        pool = make_pool([0.9, 0.8, 0.7, 0.6])
        service = AnnotationService(pool, ServingConfig(router="round_robin", votes_per_task=2))
        assignment = service.submit(make_task(0))
        victim = assignment.worker_ids[0]
        survivor = assignment.worker_ids[1]
        records = service.invalidate_worker(victim)
        assert len(records) == 1
        record = records[0]
        assert record["task_id"] == assignment.task_id
        assert record["worker_id"] == victim
        assert len(record["replacements"]) == 1
        replacement = record["replacements"][0]
        assert replacement not in assignment.worker_ids
        assert not service.is_awaiting(assignment.task_id, victim)
        assert service.is_awaiting(assignment.task_id, survivor)
        assert service.is_awaiting(assignment.task_id, replacement)
        assert pool[victim].active == 0
        # The task still finalizes with the reassigned vote.
        service.record_answer(assignment.task_id, survivor, True)
        service.record_answer(assignment.task_id, replacement, True)
        assert service.report().labels == {assignment.task_id: True}

    def test_invalidation_does_not_leak_budget(self):
        pool = make_pool([0.9, 0.8, 0.7])
        config = ServingConfig(router="round_robin", votes_per_task=2, max_assignments=4)
        service = AnnotationService(pool, config)
        assignment = service.submit(make_task(0))
        spent = service.spent_assignments
        service.invalidate_worker(assignment.worker_ids[0])
        # Released vote + one replacement vote: net spend is unchanged.
        assert service.spent_assignments == spent

    def test_invalidation_shrinks_task_when_no_replacement_exists(self):
        pool = make_pool([0.9, 0.8])
        service = AnnotationService(pool, ServingConfig(router="round_robin", votes_per_task=2))
        assignment = service.submit(make_task(0))
        # Both workers hold a vote already, so the exclusion set (old expected
        # set plus the victim) covers the whole pool: no replacement exists.
        victim, survivor = assignment.worker_ids
        records = service.invalidate_worker(victim)
        assert records[0]["replacements"] == []
        # The shrunken task finalizes from the one remaining vote.
        service.record_answer(assignment.task_id, survivor, False)
        assert service.report().labels == {assignment.task_id: False}

    def test_abandon_pending_releases_charges_and_budget(self):
        pool = make_pool([0.9, 0.8, 0.7])
        config = ServingConfig(router="round_robin", votes_per_task=3, max_assignments=6)
        service = AnnotationService(pool, config)
        assignment = service.submit(make_task(0))
        service.record_answer(assignment.task_id, assignment.worker_ids[0], True)
        abandoned = service.abandon_pending()
        assert abandoned == [assignment.task_id]
        assert service.pending_task_ids == []
        # The two unanswered votes are refunded; the recorded one stays spent.
        assert service.spent_assignments == 1
        assert all(pool[worker_id].active == 0 for worker_id in pool.worker_ids)


class TestServingSchemaVersion:
    def test_report_payloads_carry_schema_version(self):
        from repro.serving.service import SERVING_SCHEMA_VERSION

        campaign = Campaign(dataset="S-1", selector="us", k=5, seed=3)
        report = campaign.serve(n_tasks=10, router="round_robin")
        assert report.trace_dict()["schema_version"] == SERVING_SCHEMA_VERSION
        assert report.to_dict()["schema_version"] == SERVING_SCHEMA_VERSION
