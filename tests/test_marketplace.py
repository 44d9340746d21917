"""Tests for the marketplace layer: churn, journal, lifecycle, orchestration."""

from __future__ import annotations

import hashlib
import json
from collections import Counter, deque

import pytest

from repro.marketplace import (
    JOURNAL_SCHEMA_VERSION,
    CampaignPhase,
    CampaignSpec,
    ChurnConfig,
    ChurnModel,
    EventJournal,
    JournalCorruptionError,
    JournalFingerprintError,
    MarketplaceConfig,
    MarketplaceOrchestrator,
    encode_record,
)
from repro.marketplace.lifecycle import CampaignHandle
from repro.marketplace.orchestrator import Marketplace
from repro.serving.quality import DriftConfig


def make_orchestrator(journal_path=None, seed=7):
    """Two fast campaigns over a churning marketplace (the reference setup)."""
    specs = [
        CampaignSpec(name="alpha", dataset="S-1", selector="us", k=5, seed=1),
        CampaignSpec(name="beta", dataset="S-2", selector="us", k=5, seed=2),
    ]
    return MarketplaceOrchestrator(
        specs,
        config=MarketplaceConfig(total_tasks=30),
        churn=ChurnConfig(arrival_rate=0.8, departure_rate=0.05),
        journal_path=journal_path,
        seed=seed,
    )


def stress_orchestrator(journal_path=None, router="least_loaded"):
    """Four campaigns (least_loaded by default) under heavy churn, bursts and drift.

    Zero answer delay and a concurrency cap of 3 keep the shared workers
    contended, so stalls, invalidations, re-selections and
    re-qualification all land inside a short run.
    """
    specs = [
        CampaignSpec(name=f"s{index}", dataset="S-1" if index % 2 == 0 else "S-2", k=4, seed=11 + index)
        for index in range(4)
    ]
    config = MarketplaceConfig(
        total_tasks=60,
        tasks_per_tick=3,
        answer_delay=0,
        max_concurrent=3,
        drift=DriftConfig(
            alpha=0.3,
            baseline_alpha=0.05,
            min_observations=4,
            demote_below=0.75,
            drop_tolerance=0.05,
            cooldown=3,
        ),
        reselect_fraction=0.3,
        max_reselections=2,
        requalify_ticks=2,
        router=router,
    )
    return MarketplaceOrchestrator(
        specs,
        config=config,
        churn=ChurnConfig(arrival_rate=1.5, departure_rate=0.12, bursts={5: 3, 20: 4}),
        journal_path=journal_path,
        seed=9,
    )


def pinned_orchestrator(journal_path=None):
    """Three campaigns (one drifting) under churn, bursts and re-selection.

    The journal of its 96-tick run is pinned by hash: every answer,
    prestudy, departure and re-qualification draws into those bytes.
    """
    specs = [
        CampaignSpec(name="p0", dataset="S-1", selector="us", k=5, seed=21),
        CampaignSpec(name="p1", dataset="S-2", selector="us", k=5, seed=22),
        CampaignSpec(name="p2", dataset="S-1:drift40", selector="us", k=6, seed=23),
    ]
    config = MarketplaceConfig(
        router="domain_affinity",
        total_tasks=120,
        tasks_per_tick=3,
        max_concurrent=4,
        drift=DriftConfig(alpha=0.25, min_observations=4, demote_below=0.6, drop_tolerance=0.2, cooldown=4),
        reselect_fraction=0.3,
        max_reselections=2,
        requalify_ticks=2,
    )
    return MarketplaceOrchestrator(
        specs,
        config=config,
        churn=ChurnConfig(arrival_rate=1.2, departure_rate=0.06, bursts={10: 3}),
        journal_path=journal_path,
        seed=5,
    )


#: sha256 of the pinned run's journal (96 ticks, tick_batch 8).
PINNED_JOURNAL_SHA256 = "088456a6cbffd53e2fd508ec02511211ca7401275de5f05847a0baaa65b086fb"


#: ``(orchestrator factory, ticks)`` pairs the journal-determinism tests run.
def assert_journal_bytes_invariant_under_tick_batch_size(tmp_path, make, n_ticks):
    digests = set()
    for tick_batch in (1, 7, 64):
        path = tmp_path / f"batch{tick_batch}.jsonl"
        make(journal_path=path).run(n_ticks, tick_batch=tick_batch)
        digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
    assert len(digests) == 1


def assert_resume_from_any_prefix_replays_to_identical_bytes(tmp_path, make, n_ticks):
    full = tmp_path / "full.jsonl"
    make(journal_path=full).run(n_ticks, tick_batch=5)
    reference = full.read_bytes()
    lines = reference.decode("utf-8").splitlines(keepends=True)
    assert len(lines) == n_ticks + 1  # header + one record per tick
    for keep in (1, 5, 17, len(lines)):
        partial = tmp_path / f"keep{keep}.jsonl"
        partial.write_text("".join(lines[:keep]), encoding="utf-8")
        make(journal_path=partial).run(n_ticks, tick_batch=5, resume=True)
        assert partial.read_bytes() == reference


class TestChurn:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(arrival_rate=-1.0)
        with pytest.raises(ValueError):
            ChurnConfig(departure_rate=1.5)
        with pytest.raises(ValueError):
            ChurnConfig(arrival_rate=9.0, max_arrivals_per_tick=4)
        with pytest.raises(ValueError):
            ChurnConfig(bursts={3: -1})

    def test_arrival_counts_are_pure_functions_of_the_tick(self):
        config = ChurnConfig(arrival_rate=1.0)
        counts = [ChurnModel(config, seed=3).arrivals_at(tick) for tick in range(50)]
        again = [ChurnModel(config, seed=3).arrivals_at(tick) for tick in range(50)]
        assert counts == again
        assert any(counts)
        assert max(counts) <= config.max_arrivals_per_tick

    def test_bursts_add_deterministic_arrivals(self):
        base = ChurnModel(ChurnConfig(arrival_rate=0.5), seed=3)
        burst = ChurnModel(ChurnConfig(arrival_rate=0.5, bursts={7: 5}), seed=3)
        assert burst.arrivals_at(7) == base.arrivals_at(7) + 5
        assert burst.arrivals_at(8) == base.arrivals_at(8)

    def test_departure_decisions_independent_of_cohort(self):
        # A worker's fate at a tick must not depend on who else is present,
        # or the trace would depend on campaign count and examination order.
        model = ChurnModel(ChurnConfig(departure_rate=0.5), seed=3)
        worker_ids = [f"w{index}" for index in range(20)]
        departed = set(model.departures_among(worker_ids, 4))
        assert 0 < len(departed) < len(worker_ids)
        for worker_id in worker_ids:
            alone = model.departures_among([worker_id], 4)
            assert (alone == [worker_id]) == (worker_id in departed)

    def test_burst_config_round_trips_through_to_dict(self):
        config = ChurnConfig(arrival_rate=0.5, bursts={7: 5, 2: 0})
        payload = config.to_dict()
        assert payload["bursts"] == {"7": 5}  # zero bursts dropped, keys stringified
        json.dumps(payload)  # journal fingerprints must be JSON-serialisable


class TestEventJournal:
    FINGERPRINT = {"seed": 1, "campaigns": ["alpha"]}

    def test_begin_append_read_roundtrip(self, tmp_path):
        journal = EventJournal(tmp_path / "run.jsonl")
        journal.begin(self.FINGERPRINT)
        journal.append_ticks([{"type": "tick", "tick": 0}, {"type": "tick", "tick": 1}])
        header, ticks = journal.read()
        assert header["schema_version"] == JOURNAL_SCHEMA_VERSION
        assert header["fingerprint"] == self.FINGERPRINT
        assert [record["tick"] for record in ticks] == [0, 1]
        assert journal.check_fingerprint(self.FINGERPRINT) == ticks

    def test_encode_record_is_key_order_independent(self):
        assert encode_record({"b": 1, "a": [2]}) == encode_record({"a": [2], "b": 1})

    def test_torn_final_line_tolerated_and_truncated_before_append(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = EventJournal(path)
        journal.begin(self.FINGERPRINT)
        journal.append_ticks([{"type": "tick", "tick": 0}])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "tick", "ti')  # interrupted append
        _, ticks = EventJournal(path).read()
        assert [record["tick"] for record in ticks] == [0]
        fresh = EventJournal(path)
        fresh.append_ticks([{"type": "tick", "tick": 1}])
        _, ticks = fresh.read()
        assert [record["tick"] for record in ticks] == [0, 1]

    def test_mid_file_corruption_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = EventJournal(path)
        journal.begin(self.FINGERPRINT)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(encode_record({"type": "tick", "tick": 0}))
        with pytest.raises(JournalCorruptionError):
            journal.read()

    def test_missing_empty_and_headerless_journals_rejected(self, tmp_path):
        with pytest.raises(JournalCorruptionError):
            EventJournal(tmp_path / "absent.jsonl").read()
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(JournalCorruptionError):
            EventJournal(empty).read()
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text(encode_record({"type": "tick", "tick": 0}))
        with pytest.raises(JournalCorruptionError):
            EventJournal(headerless).read()

    def test_foreign_schema_version_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            encode_record(
                {"type": "header", "schema_version": JOURNAL_SCHEMA_VERSION + 1, "fingerprint": {}}
            )
        )
        with pytest.raises(JournalCorruptionError):
            EventJournal(path).read()

    def test_fingerprint_mismatch_refused(self, tmp_path):
        journal = EventJournal(tmp_path / "run.jsonl")
        journal.begin(self.FINGERPRINT)
        with pytest.raises(JournalFingerprintError):
            journal.check_fingerprint({"seed": 2, "campaigns": ["alpha"]})

    def test_fingerprint_mismatch_names_each_differing_path(self, tmp_path):
        journal = EventJournal(tmp_path / "run.jsonl")
        journal.begin({"seed": 1, "campaigns": [{"k": 5}], "config": {"router": "rr"}})
        with pytest.raises(JournalFingerprintError) as excinfo:
            journal.check_fingerprint({"seed": 2, "campaigns": [{"k": 6}, {"k": 5}], "config": {}})
        message = str(excinfo.value)
        assert "campaigns.0.k: stored 5, current 6" in message
        assert 'campaigns.1: stored <absent>, current {"k": 5}' in message
        assert 'config.router: stored "rr", current <absent>' in message
        # Only the first MAX_REPORTED_DIFFERENCES paths are spelled out.
        assert "seed:" not in message
        assert "; and 1 more)" in message


class TestLifecycle:
    def test_spec_rejects_scenario_separator_in_name(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="a:b", dataset="S-1")

    def test_phase_progression_order(self):
        assert [phase.value for phase in CampaignPhase] == [
            "selecting",
            "serving",
            "reselecting",
            "done",
        ]


class TestOrchestrator:
    def test_journal_bytes_invariant_under_tick_batch_size(self, tmp_path):
        assert_journal_bytes_invariant_under_tick_batch_size(tmp_path, make_orchestrator, 40)

    def test_journal_bytes_invariant_under_tick_batch_size_stress(self, tmp_path):
        assert_journal_bytes_invariant_under_tick_batch_size(tmp_path, stress_orchestrator, 80)

    def test_resume_from_any_prefix_replays_to_identical_bytes(self, tmp_path):
        assert_resume_from_any_prefix_replays_to_identical_bytes(tmp_path, make_orchestrator, 40)

    def test_resume_from_any_prefix_replays_to_identical_bytes_stress(self, tmp_path):
        assert_resume_from_any_prefix_replays_to_identical_bytes(tmp_path, stress_orchestrator, 80)

    def test_resume_after_torn_tail_replays_to_identical_bytes(self, tmp_path):
        full = tmp_path / "full.jsonl"
        make_orchestrator(journal_path=full).run(40, tick_batch=5)
        reference = full.read_bytes()
        lines = reference.decode("utf-8").splitlines(keepends=True)
        crashed = tmp_path / "crashed.jsonl"
        crashed.write_text("".join(lines[:10]) + lines[10][:-25], encoding="utf-8")
        make_orchestrator(journal_path=crashed).run(40, tick_batch=5, resume=True)
        assert crashed.read_bytes() == reference

    def test_resume_refuses_a_foreign_fingerprint(self, tmp_path):
        path = tmp_path / "run.jsonl"
        make_orchestrator(journal_path=path, seed=7).run(5, tick_batch=1)
        with pytest.raises(JournalFingerprintError):
            make_orchestrator(journal_path=path, seed=99).run(5, resume=True)

    def test_resume_refusal_names_a_retired_config_key(self, tmp_path):
        # A journal written before a config field was retired still carries
        # the key in its header; resume must name it and leave the file be.
        path = tmp_path / "run.jsonl"
        make_orchestrator(journal_path=path).run(5, tick_batch=1)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        header = json.loads(lines[0])
        header["fingerprint"]["config"]["routing_engine"] = "indexed"
        path.write_text(encode_record(header) + "".join(lines[1:]), encoding="utf-8")
        before = path.read_bytes()
        with pytest.raises(JournalFingerprintError) as excinfo:
            make_orchestrator(journal_path=path).run(10, resume=True)
        message = str(excinfo.value)
        assert 'config.routing_engine: stored "indexed", current <absent>' in message
        assert message.count(": stored ") == 1
        assert path.read_bytes() == before

    def test_resume_requires_a_journal(self):
        with pytest.raises(ValueError):
            make_orchestrator().run(5, resume=True)

    def test_pinned_journal_bytes(self, tmp_path):
        # Byte-identity of the whole event stream: a change to how answers,
        # prestudies or re-qualifications are computed must not move a byte.
        path = tmp_path / "pinned.jsonl"
        report = pinned_orchestrator(journal_path=path).run(96, tick_batch=8)
        assert all(campaign["reselections"] >= 1 for campaign in report.campaigns)
        assert report.marketplace["arrivals_rejected"] > 0
        assert report.marketplace["departures"] > 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_JOURNAL_SHA256

    def test_repeated_due_votes_are_answered_once(self, tmp_path, monkeypatch):
        # Every due vote scheduled twice: the copy finds the vote already
        # answered and is dropped, so the journal stays the pinned one.
        deliver = CampaignHandle._deliver_due_answers

        def doubled(handle, tick):
            due = [entry for entry in handle._scheduled if entry[0] <= tick]
            rest = [entry for entry in handle._scheduled if entry[0] > tick]
            handle._scheduled = deque(due + due + rest)
            return deliver(handle, tick)

        monkeypatch.setattr(CampaignHandle, "_deliver_due_answers", doubled)
        path = tmp_path / "doubled.jsonl"
        pinned_orchestrator(journal_path=path).run(96, tick_batch=8)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_JOURNAL_SHA256

    def test_same_seed_runs_are_identical(self):
        first = make_orchestrator().run(40).to_dict()
        second = make_orchestrator().run(40).to_dict()
        first.pop("elapsed_s")
        second.pop("elapsed_s")
        assert first == second

    def test_churn_is_exercised_and_arrivals_are_shared_objects(self):
        orchestrator = make_orchestrator()
        report = orchestrator.run(40)
        market = report.marketplace
        assert market["arrivals_admitted"] > 0
        assert market["departures"] > 0
        # An admitted arrival joins every serving campaign's pool as the SAME
        # ServingWorker instance, so max_concurrent genuinely spans campaigns.
        pools = [handle.pool for handle in orchestrator.handles]
        shared = [
            worker_id
            for worker_id in pools[0].worker_ids
            if worker_id.startswith("mkt-") and worker_id in pools[1]
        ]
        assert shared
        assert pools[0][shared[0]] is pools[1][shared[0]]

    def test_departures_invalidate_in_flight_votes(self):
        report = make_orchestrator().run(40)
        assert sum(campaign["invalidated_votes"] for campaign in report.campaigns) > 0

    def test_campaigns_run_to_completion(self):
        report = make_orchestrator().run(60)
        for campaign in report.campaigns:
            assert campaign["phase"] == "done"
            assert campaign["n_labels"] == 30
            assert 0.0 <= campaign["label_accuracy"] <= 1.0

    def test_drift_triggers_checkpointed_reselection(self):
        # 40% drifting workers + an aggressive detector: the serving phase
        # must hit the re-selection signal, checkpoint through
        # Campaign.state_dict(), re-qualify, and still finish the stream.
        spec = CampaignSpec(name="drifty", dataset="S-1:drift40", selector="us", k=6, seed=3)
        config = MarketplaceConfig(
            total_tasks=120,
            tasks_per_tick=4,
            drift=DriftConfig(
                alpha=0.2, min_observations=5, demote_below=0.5, drop_tolerance=0.3, cooldown=5
            ),
            reselect_fraction=0.3,
            max_reselections=2,
            requalify_ticks=2,
        )
        orchestrator = MarketplaceOrchestrator(
            [spec],
            config=config,
            churn=ChurnConfig(arrival_rate=1.0, departure_rate=0.01),
            seed=11,
        )
        report = orchestrator.run(120, tick_batch=8)
        campaign = report.campaigns[0]
        assert campaign["reselections"] >= 1
        assert campaign["phase"] == "done"
        assert campaign["n_labels"] == 120

    def test_shared_workers_never_stall_least_loaded_while_idle(self, monkeypatch):
        # Shared arrivals sit in several campaigns' least_loaded pools at
        # once.  A load change made through one pool must reach the other
        # pools' heaps, or those heaps drop the worker as stale and their
        # campaign stalls although the worker is idle.
        submit = CampaignHandle._submit_tasks
        stalls = []

        def probe(handle, tick):
            submitted, stalled = submit(handle, tick)
            if stalled:
                stalls.append((tick, handle.spec.name, handle.pool.available(handle.target_domain)))
            return submitted, stalled

        monkeypatch.setattr(CampaignHandle, "_submit_tasks", probe)
        specs = [
            CampaignSpec(name=name, dataset=dataset, selector="us", k=5, seed=seed)
            for name, dataset, seed in (("alpha", "S-1", 1), ("beta", "S-2", 2), ("gamma", "S-1", 3))
        ]
        orchestrator = MarketplaceOrchestrator(
            specs,
            config=MarketplaceConfig(router="least_loaded", total_tasks=120),
            churn=ChurnConfig(arrival_rate=1.0, departure_rate=0.02),
            seed=0,
        )
        orchestrator.run(100)
        pools = [handle.pool for handle in orchestrator.handles]
        assert any(
            worker_id in other for worker_id in pools[0].worker_ids for other in pools[1:]
        ), "the campaigns must share workers"
        assert [stall for stall in stalls if stall[2]] == []

    @pytest.mark.parametrize("router", ["least_loaded", "domain_affinity"])
    def test_shared_workers_link_only_live_pools(self, monkeypatch, router):
        # A worker record lists exactly the serving pools holding it: a
        # campaign that re-selects or finishes retires its old pool, which
        # then hears none of the worker's later changes.  Under
        # domain_affinity every live index also records each worker under
        # its current tier, whichever pool demoted or re-qualified it.
        orchestrator = stress_orchestrator(router=router)
        tick = MarketplaceOrchestrator._tick
        checked = []

        def checked_tick(self, tick_index):
            record = tick(self, tick_index)
            live = [h.pool for h in self.handles if h.phase is CampaignPhase.SERVING]
            for market_worker in self.marketplace.workers.values():
                serving = market_worker.serving
                holding = [pool for pool in live if pool.get(serving.worker_id) is serving]
                assert sorted(map(id, serving.pools)) == sorted(map(id, holding)), tick_index
            for handle in self.handles:
                index = getattr(handle.service._router, "_index", None) if handle.service else None
                if handle.phase is not CampaignPhase.SERVING or index is None:
                    continue
                for (worker_id, domain), (tier, _) in index._recorded.items():
                    assert handle.pool[worker_id].tier_on(domain) is tier, (tick_index, worker_id)
            checked.append(tick_index)
            return record

        monkeypatch.setattr(MarketplaceOrchestrator, "_tick", checked_tick)
        report = orchestrator.run(80)
        assert len(checked) == 80
        assert sum(campaign["reselections"] for campaign in report.campaigns) >= 1
        assert any(campaign["phase"] == "done" for campaign in report.campaigns)

    def test_shared_capacity_matches_open_votes(self, monkeypatch):
        # A shared arrival is one ServingWorker in every pool, so its
        # in-flight count spans campaigns: after every tick it must equal
        # the votes routed to it that are still open in any campaign's
        # service, and stay within its concurrency cap.
        orchestrator = stress_orchestrator()
        tick = MarketplaceOrchestrator._tick
        checked = []

        def checked_tick(self, tick_index):
            record = tick(self, tick_index)
            open_votes = Counter()
            for handle in self.handles:
                if handle.service is None:
                    continue
                for pending in handle.service._pending.values():
                    open_votes.update(w for w in pending.expected if w not in pending.answers)
            busy_shared = 0
            for worker_id, market_worker in self.marketplace.workers.items():
                serving = market_worker.serving
                assert 0 <= serving.active <= serving.max_concurrent, (tick_index, worker_id)
                assert serving.active == open_votes[worker_id], (tick_index, worker_id)
                busy_shared += market_worker.origin == "arrival" and serving.active > 0
            checked.append(busy_shared)
            return record

        monkeypatch.setattr(MarketplaceOrchestrator, "_tick", checked_tick)
        orchestrator.run(80)
        assert len(checked) == 80
        assert max(checked) > 0  # shared workers did hold open votes

    def test_requalification_credits_each_completion_once(self, monkeypatch):
        # A re-qualification adds the completions since the previous one on
        # the same domain; completions an earlier one credited never count
        # again.  s0:s-1-038 enters with 80 questions and has 6 completions
        # at tick 6 and 14 at tick 12: 80 + 6 = 86, then 86 + 8 = 94.
        requalify = Marketplace.requalify
        seen = []

        def probe(self, handle, tick):
            members = requalify(self, handle, tick)
            worker = self.workers.get("s0:s-1-038")
            if handle.spec.name == "s0" and worker is not None:
                qualification = worker.serving.qualifications[handle.target_domain]
                seen.append((tick, qualification.questions, worker.serving.completed_total))
            return members

        monkeypatch.setattr(Marketplace, "requalify", probe)
        stress_orchestrator().run(80)
        assert seen[:2] == [(6, 86, 6), (12, 94, 14)]

    def test_duplicate_campaign_names_rejected(self):
        spec = CampaignSpec(name="same", dataset="S-1", selector="us", k=5, seed=1)
        with pytest.raises(ValueError):
            MarketplaceOrchestrator([spec, spec])
        with pytest.raises(ValueError):
            MarketplaceOrchestrator([])
