"""The three benchmark workloads: ``select``, ``serve`` and ``market``.

Each workload runs the library through its public API in *units*: one unit
is a fixed amount of work on inputs derived from the run seed and the unit
index.  :meth:`setup` builds a unit's inputs and objects (timed as
set-up); :meth:`run` does the unit's work and returns a :class:`UnitResult`
with the timed parts, per-op latencies, quality, correctness checks and an
output digest.  The harness (:mod:`perfbench.harness`) repeats units until
the run's time is up.

select
    The paper's pipeline: ``Campaign(dataset, "ours")`` driven to completion
    one ``step()`` at a time over a fixed dataset mix.  Op = one campaign.
serve
    A generated 10k-worker pool over 4 domains served through
    ``AnnotationService`` as a closed loop with a fixed number of tasks
    outstanding: a task's answers are returned once the window is full.
    Op = one task; op latency = one ``submit()``.
market
    Four campaigns on one churning, journaled ``MarketplaceOrchestrator``,
    then a fresh orchestrator resuming from the first half of the journal.
    Op = one tick (fresh or resumed); op latency = the interval between two
    durable journal commits of the fresh run (``MARKET_TICK_BATCH`` ticks each).
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.campaign import Campaign
from repro.marketplace import CampaignSpec, ChurnConfig, MarketplaceConfig, MarketplaceOrchestrator
from repro.marketplace.journal import EventJournal
from repro.obs import create_telemetry
from repro.platform.session import BudgetExceededError
from repro.platform.tasks import Task, TaskKind
from repro.serving.pool import ServingPool, ServingWorker
from repro.serving.qualification import DomainQualification, QualificationTier
from repro.serving.routing import NoEligibleWorkersError
from repro.serving.service import AnnotationService, ServingConfig, TaskAssignment


@dataclass
class UnitResult:
    """What one unit of a workload did and how long it took."""

    #: Durations of the unit's timed parts, always the same parts in the same
    #: order (campaigns, blocks of tasks, run and resume).
    segments: List[float]
    ops: int
    attempted: int
    failed: int
    #: Per-op latencies in seconds.
    latencies: List[float]
    #: The unit's quality: mean selected accuracy or aggregated-label accuracy.
    accuracy: float
    digest: str
    checks: Dict[str, bool]
    #: Workload-specific figures printed under their own names.
    named: Dict[str, float] = field(default_factory=dict)
    setup_s: float = 0.0
    #: Set-up plus run, filled in by the harness.
    wall_s: float = 0.0

    @property
    def timed_s(self) -> float:
        return sum(self.segments)


def unit_seed(seed: int, workload: str, unit: int) -> int:
    """Input seed of one unit, mixed from the run seed, the workload and the unit index."""
    tag = int.from_bytes(hashlib.sha256(workload.encode("utf-8")).digest()[:4], "little")
    return int(np.random.SeedSequence([seed, tag, unit]).generate_state(1)[0])


def _sha256(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _telemetry(enabled: bool):
    return create_telemetry() if enabled else None


# ---------------------------------------------------------------------- #
# select
# ---------------------------------------------------------------------- #
#: The paper's pipeline over small real-world pools, larger synthetic pools
#: and a contaminated one.
SELECT_MIX = ("RW-1", "RW-2", "S-3", "S-4", "S-4:mixed20")


class SelectWorkload:
    """Campaigns of the paper's ``ours`` selector, stepped round by round."""

    name = "select"

    def __init__(self, mix: Sequence[str] = SELECT_MIX) -> None:
        self.mix = tuple(mix)

    def setup(self, seed: int, telemetry: bool = False) -> List[Campaign]:
        seeds = np.random.SeedSequence(seed).generate_state(len(self.mix))
        return [Campaign(dataset, "ours", seed=int(s)) for dataset, s in zip(self.mix, seeds)]

    def run(self, campaigns: List[Campaign], tracer=None) -> UnitResult:
        campaign_times: List[float] = []
        rounds: List[float] = []
        failed = 0
        reports = []
        accuracies: List[float] = []
        precisions: List[float] = []
        checks = {"selection_size_is_k": True, "spend_within_budget": True}
        for index, campaign in enumerate(campaigns):
            if tracer is not None:
                tracer.op_id = index
            start = perf_counter()
            try:
                while True:
                    begin = perf_counter()
                    event = campaign.step()
                    end = perf_counter()
                    if event is None:
                        break
                    rounds.append(end - begin)
            except Exception:  # a campaign that raises is a failed op; the run goes on
                campaign_times.append(perf_counter() - start)
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            campaign_times.append(perf_counter() - start)
            report = campaign.report()
            right_size = len(report.selected_worker_ids) == report.k
            within_budget = report.spent_budget <= report.total_budget
            checks["selection_size_is_k"] &= right_size
            checks["spend_within_budget"] &= within_budget
            failed += not (right_size and within_budget)
            reports.append(report.to_dict())
            accuracies.append(report.mean_accuracy)
            precisions.append(report.precision_at_k)
        return UnitResult(
            segments=campaign_times,
            ops=len(campaigns),
            attempted=len(campaigns),
            failed=failed,
            latencies=campaign_times,
            accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
            digest=_sha256(reports),
            checks=checks,
            named={
                "precision_at_k": float(np.mean(precisions)) if precisions else 0.0,
                "round_ms_p50": 1000.0 * float(np.median(rounds)) if rounds else 0.0,
            },
        )


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #
SERVE_DOMAINS = 4
SERVE_VOTES = 3
SERVE_MAX_CONCURRENT = 4
SERVE_FALLBACK_SHARE = 0.2
#: Drifters answer at ``SERVE_DRIFTED_ACCURACY`` after ``SERVE_DRIFT_AFTER`` answers.
SERVE_DRIFTER_SHARE = 0.05
SERVE_DRIFT_AFTER = 10
SERVE_DRIFTED_ACCURACY = 0.2
#: Tasks per timed block of the closed loop.
SERVE_BLOCK = 1_000


@dataclass
class _ServeState:
    pool: ServingPool
    service: AnnotationService
    tasks: List[Task]
    accuracy: np.ndarray
    drifter: np.ndarray
    index_of: Dict[str, int]
    uniforms: np.ndarray
    answers: np.ndarray
    draws: int = 0


class ServeWorkload:
    """A closed loop of working tasks through ``AnnotationService`` on a large pool."""

    name = "serve"

    def __init__(
        self, n_workers: int = 10_000, n_tasks: int = 12_000, window: int = 1_500, warmup_per_domain: int = 8
    ) -> None:
        self.n_workers = n_workers
        self.n_tasks = n_tasks
        self.window = window
        self.warmup = warmup_per_domain * SERVE_DOMAINS

    def setup(self, seed: int, telemetry: bool = False) -> _ServeState:
        rng = np.random.default_rng(seed)
        n = self.n_workers
        estimates = np.clip(rng.normal(0.8, 0.08, size=n), 0.5, 0.99)
        accuracy = np.clip(estimates + rng.normal(0.0, 0.05, size=n), 0.5, 0.99)
        # Two distinct qualified domains per worker.
        domains = np.argsort(rng.random((n, SERVE_DOMAINS)), axis=1)[:, :2]
        fallback = rng.random(n) < SERVE_FALLBACK_SHARE
        drifter = rng.random(n) < SERVE_DRIFTER_SHARE
        workers = []
        index_of = {}
        for i in range(n):
            worker_id = f"w{i:05d}"
            index_of[worker_id] = i
            tier = QualificationTier.FALLBACK if fallback[i] else QualificationTier.QUALIFIED
            qualifications = {
                f"d{d}": DomainQualification(worker_id, f"d{d}", float(estimates[i]), 20, tier)
                for d in domains[i]
            }
            workers.append(ServingWorker(worker_id, qualifications, max_concurrent=SERVE_MAX_CONCURRENT))
        n_total = self.warmup + self.n_tasks
        task_domains = np.concatenate(
            [np.arange(self.warmup) % SERVE_DOMAINS, rng.integers(SERVE_DOMAINS, size=self.n_tasks)]
        )
        gold = rng.random(n_total) < 0.5
        tasks = [
            Task(f"t{j:06d}", f"d{task_domains[j]}", TaskKind.WORKING, bool(gold[j])) for j in range(n_total)
        ]
        pool = ServingPool(workers)
        service = AnnotationService(
            pool,
            ServingConfig(
                router="domain_affinity",
                aggregator="dawid_skene",
                votes_per_task=SERVE_VOTES,
                max_concurrent=SERVE_MAX_CONCURRENT,
            ),
            telemetry=_telemetry(telemetry),
        )
        state = _ServeState(
            pool=pool,
            service=service,
            tasks=tasks,
            accuracy=accuracy,
            drifter=drifter,
            index_of=index_of,
            uniforms=rng.random(n_total * SERVE_VOTES),
            answers=np.zeros(n, dtype=np.int64),
        )
        # Warm-up prefix: the first route on each domain builds its index.
        for j in range(self.warmup):
            self._answer(state, state.service.submit(tasks[j]))
        return state

    @staticmethod
    def _answer(state: _ServeState, assignment: TaskAssignment) -> None:
        """Return every answer of one task (drifters decay after ``SERVE_DRIFT_AFTER`` answers)."""
        task = state.tasks[int(assignment.task_id[1:])]
        for worker_id in assignment.worker_ids:
            i = state.index_of[worker_id]
            given = state.answers[i]
            state.answers[i] = given + 1
            drifted = state.drifter[i] and given >= SERVE_DRIFT_AFTER
            correct = state.uniforms[state.draws] < (SERVE_DRIFTED_ACCURACY if drifted else state.accuracy[i])
            state.draws += 1
            state.service.record_answer(task.task_id, worker_id, task.gold_label if correct else not task.gold_label)

    def run(self, state: _ServeState, tracer=None) -> UnitResult:
        service = state.service
        submit = service.submit
        latencies: List[float] = []
        blocks: List[float] = []
        window: Deque[TaskAssignment] = deque()
        failed = 0

        def answer_oldest() -> None:
            held = window.popleft()
            if tracer is not None:
                tracer.op_id = int(held.task_id[1:])
            self._answer(state, held)

        block_start = perf_counter()
        for j in range(self.warmup, len(state.tasks)):
            if (j - self.warmup) % SERVE_BLOCK == 0 and j > self.warmup:
                now = perf_counter()
                blocks.append(now - block_start)
                block_start = now
            if tracer is not None:
                tracer.op_id = j
            begin = perf_counter()
            try:
                assignment = submit(state.tasks[j])
            except (NoEligibleWorkersError, BudgetExceededError):
                failed += 1
                continue
            latencies.append(perf_counter() - begin)
            window.append(assignment)
            if len(window) >= self.window:
                answer_oldest()
        while window:
            answer_oldest()
        blocks.append(perf_counter() - block_start)
        report = service.report()
        submitted = len(state.tasks) - failed
        checks = {
            "every_task_finalized": not service.pending_task_ids and len(report.labels) == submitted,
            "load_back_to_zero": all(worker.active == 0 for worker in state.pool.workers),
        }
        digest = _sha256(
            {
                "assignments": [[a.task_id, list(a.worker_ids)] for a in report.assignments],
                "labels": report.labels,
                "demotions": report.demotions,
            }
        )
        return UnitResult(
            segments=blocks,
            ops=self.n_tasks - failed,
            attempted=self.n_tasks,
            failed=failed,
            latencies=latencies,
            accuracy=float(report.label_accuracy or 0.0),
            digest=digest,
            checks=checks,
            named={"drift_demotions": float(len(report.demotions))},
        )


# ---------------------------------------------------------------------- #
# market
# ---------------------------------------------------------------------- #
#: Campaigns sharing the churning marketplace, all on the synthetic target
#: domain the arrivals qualify on (a real-world campaign's pool would drain
#: for good under churn and stall every tick after).
MARKET_MIX = ("S-1", "S-2", "S-1:drift40", "S-3")
#: Ticks per durable journal commit.  A larger batch than the usual 8 keeps
#: the fsync share small: on a shared 2-core host fsync latency swung from
#: ~1 ms to ~10 ms for minutes at a time, which at 8 ticks per commit moved
#: the whole workload's throughput by a third.
MARKET_TICK_BATCH = 64
#: Arrival 1.0 rather than 0.5: at 0.5 the pools thin out enough that about
#: one unit in forty stalls a few campaign ticks.
MARKET_CHURN = ChurnConfig(arrival_rate=1.0, departure_rate=0.02)


@contextmanager
def _commit_clock(stamps: List[float]):
    """Time-stamp every durable journal commit (one clock read per commit)."""
    append = EventJournal.__dict__["append_ticks"]

    def append_ticks(journal, records):
        append(journal, records)
        stamps.append(perf_counter())

    EventJournal.append_ticks = append_ticks
    try:
        yield
    finally:
        EventJournal.append_ticks = append


@dataclass
class _MarketState:
    seed: int
    telemetry: bool
    orchestrator: MarketplaceOrchestrator


class MarketWorkload:
    """A journaled multi-campaign marketplace run, then a resume from half its journal."""

    name = "market"

    def __init__(self, out_dir: Path, mix: Sequence[str] = MARKET_MIX, n_ticks: int = 12 * MARKET_TICK_BATCH) -> None:
        self.out_dir = Path(out_dir)
        self.mix = tuple(mix)
        self.n_ticks = n_ticks

    def _orchestrator(self, seed: int, journal: Optional[str], telemetry: bool) -> MarketplaceOrchestrator:
        seeds = np.random.SeedSequence(seed).generate_state(len(self.mix))
        specs = [
            CampaignSpec(name=f"c{index}", dataset=dataset, selector="us", seed=int(s))
            for index, (dataset, s) in enumerate(zip(self.mix, seeds))
        ]
        # domain_affinity, not the default least_loaded: a least_loaded heap
        # drops the keys of shared workers whose load another campaign's pool
        # changed, and its campaign then stalls with idle workers.
        config = MarketplaceConfig(router="domain_affinity", tasks_per_tick=2, total_tasks=2 * self.n_ticks)
        return MarketplaceOrchestrator(
            specs,
            config=config,
            churn=MARKET_CHURN,
            journal_path=None if journal is None else self.out_dir / journal,
            seed=seed,
            telemetry=_telemetry(telemetry),
        )

    def setup(self, seed: int, telemetry: bool = False) -> _MarketState:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # The orchestrator builds its campaigns inside run(); set-up is a
        # run(0) on an identical orchestrator, unjournaled so that set-up
        # time holds no fsync.
        self._orchestrator(seed, None, telemetry).run(0)
        return _MarketState(seed, telemetry, self._orchestrator(seed, "fresh.jsonl", telemetry))

    def run(self, state: _MarketState, tracer=None) -> UnitResult:
        stamps: List[float] = []
        run_start = perf_counter()
        with _commit_clock(stamps):
            report = state.orchestrator.run(self.n_ticks, tick_batch=MARKET_TICK_BATCH)
        run_s = perf_counter() - run_start
        fresh = (self.out_dir / "fresh.jsonl").read_bytes()
        lines = fresh.splitlines(keepends=True)
        resumed_path = self.out_dir / "resumed.jsonl"
        resumed_path.write_bytes(b"".join(lines[: 1 + self.n_ticks // 2]))
        resumer = self._orchestrator(state.seed, "resumed.jsonl", state.telemetry)
        start = perf_counter()
        resumer.run(self.n_ticks, tick_batch=MARKET_TICK_BATCH, resume=True)
        resume_s = perf_counter() - start
        attempted = failed = 0
        for line in lines[1:]:
            for event in json.loads(line)["campaigns"]:
                if "submitted" in event:
                    attempted += 1
                    failed += bool(event["stalled"])
        accuracies = [c["label_accuracy"] for c in report.campaigns if c["label_accuracy"] is not None]
        return UnitResult(
            segments=[run_s, resume_s],
            ops=2 * self.n_ticks,
            attempted=attempted,
            failed=failed,
            latencies=list(np.diff([run_start] + stamps)),
            accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
            digest=hashlib.sha256(fresh).hexdigest(),
            checks={
                "resumed_journal_identical": resumed_path.read_bytes() == fresh,
                "journal_complete": len(lines) == 1 + self.n_ticks,
            },
            named={"ticks_per_s": self.n_ticks / run_s, "resume_s": resume_s},
        )


WORKLOAD_NAMES = ("select", "serve", "market")


def make_workload(name: str, out_dir: Path):
    """The full-size workload registered under ``name``."""
    if name == "select":
        return SelectWorkload()
    if name == "serve":
        return ServeWorkload()
    if name == "market":
        return MarketWorkload(out_dir / "market")
    raise KeyError(f"unknown workload {name!r}")
