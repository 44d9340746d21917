"""The marketplace orchestrator: N campaigns, one churning worker pool.

:class:`Marketplace` is the shared worker registry.  Workers enter it two
ways: a finished campaign selection registers its workers (namespaced
``"<campaign>:<worker>"``, serving their home campaign only), and the
open-world churn model delivers **arrivals** — fresh workers sampled from
the population recipe who must pass a prestudy qualification (the
potato-style entrance exam: ``prestudy_questions`` golden questions,
qualified per the existing :class:`~repro.serving.qualification.QualificationPolicy`
tiers) before they may serve.  Admitted arrivals are *shared*: the same
:class:`~repro.serving.pool.ServingWorker` object joins every serving
campaign's pool, so one worker's concurrency cap genuinely spans
campaigns — capacity one campaign consumes is capacity another loses.

Departures invalidate the departing worker's unanswered in-flight votes
in every campaign (reassigning them through the routing policy) before
the worker leaves the pools, so no vote is silently lost and no router
ever routes to a ghost.

:class:`MarketplaceOrchestrator` drives everything under a deterministic
batched-tick event loop.  Per tick, in fixed order: departures (over the
sorted present workers), arrivals, then each campaign handle in spec
order.  Every random draw is counter-based (churn, prestudy, answers), so
the tick trace is a pure function of the configuration — which the
append-only :class:`~repro.marketplace.journal.EventJournal` exploits:
journals are byte-identical at any tick batch size, and a crashed run
resumes by replaying its deterministic prefix against the journal and
continuing where the file ends.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.marketplace.churn import ChurnConfig, ChurnModel
from repro.marketplace.journal import (
    EventJournal,
    JournalCorruptionError,
    encode_record,
)
from repro.marketplace.lifecycle import CampaignHandle, CampaignPhase, CampaignSpec
from repro.campaign import SelectionManifest
from repro.obs.timing import perf_counter
from repro.platform.answers import behavior_accuracy_matrix
from repro.platform.tasks import Task
from repro.serving.pool import ServingWorker
from repro.serving.qualification import (
    QualificationPolicy,
    QualificationTier,
    qualification_for,
)
from repro.serving.quality import DriftConfig
from repro.serving.routing import resolve_router_name
from repro.stats.rng import counter_draws, counter_uniforms, derive_seed, stream_seeds, token_hashes
from repro.workers.behavior import WorkerBehavior
from repro.workers.population import PopulationConfig, sample_arrival_block

#: ``id_prefix`` of workers minted by the arrival sampler.
ARRIVAL_PREFIX = "mkt"

#: Arrival indices drawn ahead at a time: one stacked population draw each.
ARRIVAL_BLOCK = 64


@dataclass(frozen=True)
class MarketplaceConfig:
    """Orchestrator-wide configuration (shared by every campaign).

    Attributes
    ----------
    router / votes_per_task / max_concurrent / aggregator / drift /
    reselect_fraction:
        Passed through to each campaign's
        :class:`~repro.serving.service.ServingConfig`.
    qualification:
        Policy qualifying selected workers, prestudy arrivals and
        re-qualified candidates.
    tasks_per_tick:
        Working tasks each serving campaign submits per tick.
    answer_delay:
        Ticks between routing a vote and its answer arriving.
    prestudy_questions:
        Golden questions an arrival answers before admission.
    selection_rounds_per_tick:
        Campaign elimination rounds advanced per tick while SELECTING.
    requalify_ticks:
        Ticks a campaign spends re-qualifying before re-selection.
    max_reselections:
        Cap on drift-triggered re-selections per campaign.
    total_tasks:
        Length of each campaign's working-task stream (``None`` = the
        dataset's full working bank).
    """

    router: str = "least_loaded"
    votes_per_task: int = 3
    tasks_per_tick: int = 2
    answer_delay: int = 1
    max_concurrent: int = 8
    aggregator: str = "majority"
    drift: DriftConfig = field(default_factory=DriftConfig)
    reselect_fraction: float = 0.5
    qualification: QualificationPolicy = field(default_factory=QualificationPolicy)
    prestudy_questions: int = 12
    selection_rounds_per_tick: int = 1
    requalify_ticks: int = 1
    max_reselections: int = 2
    total_tasks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tasks_per_tick <= 0:
            raise ValueError("tasks_per_tick must be positive")
        if self.answer_delay < 0:
            raise ValueError("answer_delay must be non-negative")
        if self.prestudy_questions <= 0:
            raise ValueError("prestudy_questions must be positive")
        if self.selection_rounds_per_tick <= 0:
            raise ValueError("selection_rounds_per_tick must be positive")
        if self.requalify_ticks < 0:
            raise ValueError("requalify_ticks must be non-negative")
        if self.max_reselections < 0:
            raise ValueError("max_reselections must be non-negative")
        if self.total_tasks is not None and self.total_tasks <= 0:
            raise ValueError("total_tasks must be positive when given")
        resolve_router_name(self.router)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (part of the journal fingerprint)."""
        return {
            "router": self.router,
            "votes_per_task": self.votes_per_task,
            "tasks_per_tick": self.tasks_per_tick,
            "answer_delay": self.answer_delay,
            "max_concurrent": self.max_concurrent,
            "aggregator": self.aggregator,
            "drift": asdict(self.drift),
            "reselect_fraction": self.reselect_fraction,
            "qualification": asdict(self.qualification),
            "prestudy_questions": self.prestudy_questions,
            "selection_rounds_per_tick": self.selection_rounds_per_tick,
            "requalify_ticks": self.requalify_ticks,
            "max_reselections": self.max_reselections,
            "total_tasks": self.total_tasks,
        }


@dataclass
class MarketWorker:
    """One worker as the marketplace registry sees it.

    ``behavior`` is the worker's target-domain behaviour curve (the
    scenario engine's :class:`~repro.workers.behavior.WorkerBehavior`):
    when present, target-domain answers follow
    ``behavior.accuracy_at(exposure_offset + answer_count)`` — a learner
    keeps improving, a drifter decays past its drift exposure — which is
    what makes drift-triggered re-selection observable end to end.
    Non-target domains (and workers without a curve) answer at the static
    ``accuracies`` entry, 0.5 when unknown.

    ``answer_seeds`` caches the seed of each per-campaign answer stream (a
    pure function of the marketplace answer seed, the worker id and the
    campaign), next to ``answer_counts``, the stream's draw counter.
    ``credited`` holds, per domain, the ``completed_total`` already counted
    into a re-qualification's questions.
    """

    worker_id: str
    serving: ServingWorker
    origin: str  # "selected" | "arrival"
    home: Optional[str]  # campaign name for selected workers, None for arrivals
    accuracies: Dict[str, float]
    target_domain: str = "target"
    behavior: Optional[object] = None
    exposure_offset: float = 0.0
    present: bool = True
    answer_counts: Dict[str, int] = field(default_factory=dict)
    answer_seeds: Dict[str, int] = field(default_factory=dict)
    credited: Dict[str, int] = field(default_factory=dict)
    arrived_tick: int = 0
    departed_tick: Optional[int] = None


class Marketplace:
    """Shared worker registry with open-world churn and answer streams.

    Arrival workers are drawn ahead in blocks of ``ARRIVAL_BLOCK`` indices
    (see :meth:`admit_arrivals`); the registry holds only admitted ones.
    """

    def __init__(self, config: MarketplaceConfig, population: PopulationConfig, seed: int = 0) -> None:
        self._config = config
        self._population = population
        self._seed = int(seed)
        self._workers: Dict[str, MarketWorker] = {}
        self._handles: List[CampaignHandle] = []
        self._arrival_index = 0
        # Workers of arrival indices _arrival_index, _arrival_index + 1, ...
        # drawn ahead (each is a pure function of the seed and its index).
        self._drawn_arrivals: List[WorkerBehavior] = []
        self._answer_seed = derive_seed(self._seed, "marketplace", "answers")
        self._prestudy_seed = derive_seed(self._seed, "marketplace", "prestudy")
        self.arrivals_admitted = 0
        self.arrivals_rejected = 0
        self.departures = 0

    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> Dict[str, MarketWorker]:
        """The registry (live view; do not mutate)."""
        return self._workers

    def attach(self, handle: CampaignHandle) -> None:
        """Register a campaign handle for churn notifications."""
        self._handles.append(handle)

    def present_ids(self) -> List[str]:
        """Ids of present workers, sorted (the deterministic churn order)."""
        return sorted(gid for gid, worker in self._workers.items() if worker.present)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register_selected(
        self,
        handle: CampaignHandle,
        manifest: SelectionManifest,
        tick: int,
        behaviors: Optional[Mapping[str, object]] = None,
    ) -> List[ServingWorker]:
        """Register a finished selection's workers for their home campaign.

        Worker ids are namespaced ``"<campaign>:<worker>"`` so two
        campaigns selecting positionally identical ids never collide.
        Returns the campaign's initial pool members: the selected workers
        followed by the shared arrivals already qualified on its domain.
        """
        policy = self._config.qualification
        members: List[ServingWorker] = []
        for worker_id in manifest.worker_ids:
            gid = f"{handle.spec.name}:{worker_id}"
            if gid in self._workers:
                raise ValueError(f"worker {gid!r} is already registered")
            qualifications = {
                manifest.target_domain: qualification_for(
                    policy,
                    gid,
                    manifest.target_domain,
                    estimate=manifest.target_estimates[worker_id],
                    questions=manifest.training_questions[worker_id],
                )
            }
            accuracies = {manifest.target_domain: float(manifest.final_accuracies[worker_id])}
            profile = manifest.profiles.get(worker_id)
            if profile is not None:
                for domain in profile.domains:
                    qualifications[domain] = qualification_for(
                        policy,
                        gid,
                        domain,
                        estimate=profile.accuracies[domain],
                        questions=profile.task_counts[domain],
                    )
                    accuracies[domain] = float(profile.accuracies[domain])
            serving = ServingWorker(
                worker_id=gid,
                qualifications=qualifications,
                max_concurrent=self._config.max_concurrent,
            )
            self._workers[gid] = MarketWorker(
                worker_id=gid,
                serving=serving,
                origin="selected",
                home=handle.spec.name,
                accuracies=accuracies,
                target_domain=manifest.target_domain,
                behavior=(behaviors or {}).get(worker_id),
                exposure_offset=float(manifest.training_questions[worker_id]),
                arrived_tick=tick,
            )
            members.append(serving)
        exclude = {worker.worker_id for worker in members}
        members.extend(self.shared_candidates(manifest.target_domain, exclude))
        return members

    def shared_candidates(self, domain: str, exclude: Sequence[str] = ()) -> List[ServingWorker]:
        """Present shared arrivals qualified on ``domain``, in arrival order."""
        excluded = set(exclude)
        return [
            worker.serving
            for worker in self._workers.values()
            if worker.present
            and worker.origin == "arrival"
            and worker.worker_id not in excluded
            and worker.serving.tier_on(domain) > QualificationTier.UNQUALIFIED
        ]

    # ------------------------------------------------------------------ #
    # Churn
    # ------------------------------------------------------------------ #
    def admit_arrivals(self, tick: int, count: int) -> List[Dict[str, object]]:
        """Sample ``count`` arrivals, prestudy-qualify them, admit the worthy.

        Each arrival answers ``prestudy_questions`` golden questions on
        the population's target domain (counter-based draws, learning from
        each revealed answer); the observed accuracy feeds the
        qualification policy.  A worker landing in the unqualified tier is
        turned away; an admitted worker joins the pool of every *serving*
        campaign whose domain it qualifies on.

        Arrival ``i``'s worker is a pure function of the population, the
        seed and ``i``: a one-worker pool drawn with its own per-index
        generator.  The workers are taken in index order from a buffer
        that :func:`~repro.workers.population.sample_arrival_block` refills
        ``ARRIVAL_BLOCK`` indices at a time, sharing the linear algebra of
        the whole block; drawing ahead changes no worker, so a resumed run
        (a fresh marketplace) needs nothing of the buffer.  The tick's
        prestudy is drawn in one block: one stream seed per arrival, one
        ``(arrivals x questions)`` uniform matrix, and one accuracy matrix
        over exposures ``0 .. questions`` whose last column is the admitted
        worker's target accuracy.
        """
        if count <= 0:
            return []
        policy = self._config.qualification
        n_questions = self._config.prestudy_questions
        target = self._population.target_domain
        while len(self._drawn_arrivals) < count:
            first = self._arrival_index + len(self._drawn_arrivals)
            seeds = [
                derive_seed(self._seed, "marketplace", "arrival", index)
                for index in range(first, first + ARRIVAL_BLOCK)
            ]
            self._drawn_arrivals.extend(
                sample_arrival_block(self._population, seeds, id_prefix=ARRIVAL_PREFIX, id_offset=first)
            )
        behaviors = self._drawn_arrivals[:count]
        del self._drawn_arrivals[:count]
        self._arrival_index += count
        gids = [behavior.profile.worker_id for behavior in behaviors]
        uniforms = counter_uniforms(stream_seeds(self._prestudy_seed, token_hashes(gids)), n_questions)
        exposures = np.broadcast_to(np.arange(n_questions + 1, dtype=float), (count, n_questions + 1))
        curve = behavior_accuracy_matrix(behaviors, exposures)
        hits = (uniforms < curve[:, :n_questions]).sum(axis=1)
        events: List[Dict[str, object]] = []
        for row, (behavior, gid) in enumerate(zip(behaviors, gids)):
            observed = int(hits[row]) / n_questions
            tier = policy.qualify(observed, n_questions)
            admitted = tier > QualificationTier.UNQUALIFIED
            events.append(
                {
                    "worker_id": gid,
                    "observed": observed,
                    "tier": tier.name.lower(),
                    "admitted": admitted,
                }
            )
            if not admitted:
                self.arrivals_rejected += 1
                continue
            self.arrivals_admitted += 1
            qualifications = {
                target: qualification_for(policy, gid, target, estimate=observed, questions=n_questions)
            }
            accuracies = {target: float(curve[row, n_questions])}
            profile = behavior.profile
            for domain in profile.domains:
                qualifications[domain] = qualification_for(
                    policy,
                    gid,
                    domain,
                    estimate=profile.accuracies[domain],
                    questions=profile.task_counts[domain],
                )
                accuracies[domain] = float(profile.accuracies[domain])
            serving = ServingWorker(
                worker_id=gid,
                qualifications=qualifications,
                max_concurrent=self._config.max_concurrent,
            )
            self._workers[gid] = MarketWorker(
                worker_id=gid,
                serving=serving,
                origin="arrival",
                home=None,
                accuracies=accuracies,
                target_domain=target,
                behavior=behavior,
                exposure_offset=float(n_questions),
                arrived_tick=tick,
            )
            # The SAME ServingWorker object joins every serving pool, so
            # its concurrency cap is shared across campaigns by identity.
            for handle in self._handles:
                if (
                    handle.phase is CampaignPhase.SERVING
                    and handle.pool is not None
                    and serving.tier_on(handle.target_domain) > QualificationTier.UNQUALIFIED
                ):
                    handle.pool.add_worker(serving)
        return events

    def depart(self, worker_id: str, tick: int) -> List[Dict[str, object]]:
        """Process one departure: invalidate in-flight votes, leave the pools.

        Invalidation happens *before* pool removal so replacement votes
        can be routed while membership is still consistent; the routers'
        membership hooks then drop any derived state for the worker.
        Returns the invalidation records (annotated with the campaign).
        """
        worker = self._workers[worker_id]
        worker.present = False
        worker.departed_tick = tick
        self.departures += 1
        invalidations: List[Dict[str, object]] = []
        for handle in self._handles:
            if handle.pool is None or worker_id not in handle.pool:
                continue
            if handle.phase is CampaignPhase.SERVING and handle.service is not None:
                records = handle.service.invalidate_worker(worker_id)
                handle.on_invalidations(records, tick)
                for record in records:
                    invalidations.append({"campaign": handle.spec.name, **record})
            handle.pool.remove_worker(worker_id)
        return invalidations

    # ------------------------------------------------------------------ #
    # Answering and re-qualification
    # ------------------------------------------------------------------ #
    def answer(self, campaign: str, due: Sequence[Tuple[str, Task]]) -> List[bool]:
        """One campaign-tick's answers to ``due`` ``(worker_id, task)`` votes, in order.

        Answer streams are keyed per ``(campaign, worker)`` — the stream
        seed mixes in the campaign name (computed once per pair and cached
        on the :class:`MarketWorker`) and the draw counter advances per
        campaign — so one campaign's answer schedule never perturbs
        another's.  A worker due twice in one call takes consecutive
        draws.  Target-domain accuracy follows the worker's behaviour curve
        at its current per-campaign exposure when one is registered (so
        drifters decay and learners improve mid-serving); other domains use
        the static registered accuracy, 0.5 when unknown.  All accuracies
        come from one :func:`~repro.platform.answers.behavior_accuracy_matrix`
        call and all uniforms from one :func:`~repro.stats.rng.counter_draws`
        call, each draw a pure function of its stream and counter.
        """
        seeds = np.empty(len(due), dtype=np.uint64)
        counters = np.empty(len(due), dtype=np.uint64)
        accuracies = np.empty(len(due))
        curve_rows: List[int] = []
        curve_workers: List[object] = []
        curve_exposures: List[float] = []
        for row, (worker_id, task) in enumerate(due):
            worker = self._workers[worker_id]
            seed = worker.answer_seeds.get(campaign)
            if seed is None:
                salt = int(token_hashes([campaign])[0])
                seed = int(stream_seeds(self._answer_seed, token_hashes([worker_id]), salt)[0])
                worker.answer_seeds[campaign] = seed
            count = worker.answer_counts.get(campaign, 0)
            worker.answer_counts[campaign] = count + 1
            seeds[row] = seed
            counters[row] = count
            if worker.behavior is not None and task.domain == worker.target_domain:
                curve_rows.append(row)
                curve_workers.append(worker.behavior)
                curve_exposures.append(worker.exposure_offset + count)
            else:
                accuracies[row] = worker.accuracies.get(task.domain, 0.5)
        if curve_rows:
            exposures = np.asarray(curve_exposures, dtype=float)[:, None]
            accuracies[curve_rows] = behavior_accuracy_matrix(curve_workers, exposures)[:, 0]
        correct = (counter_draws(seeds, counters) < accuracies).tolist()
        return [bool(task.gold_label) == hit for (_, task), hit in zip(due, correct)]

    def requalify(self, handle: CampaignHandle, tick: int) -> List[ServingWorker]:
        """Re-qualify a campaign's candidates from live serving evidence.

        Candidates are the campaign's own present selected workers plus
        the present shared arrivals.  Each candidate's estimate is its
        drift tracker EWMA when warmed up (the live agreement signal),
        falling back to its standing qualification estimate; its question
        count grows by the assignments it completed since its last
        re-qualification on the domain.  The re-qualified
        top-``k`` (ties broken by worker id) above the unqualified tier
        become the new pool — may be empty when churn has drained the
        marketplace, in which case the campaign stays re-selecting.
        """
        domain = handle.target_domain
        policy = self._config.qualification
        candidates: List[tuple] = []
        for gid, worker in self._workers.items():
            if not worker.present:
                continue
            if worker.home is not None and worker.home != handle.spec.name:
                continue
            standing = worker.serving.qualifications.get(domain)
            base_estimate = standing.estimate if standing is not None else 0.0
            # Only the completions no earlier re-qualification on this
            # domain has counted yet.
            completed = worker.serving.completed_total
            fresh = completed - worker.credited.get(domain, 0)
            worker.credited[domain] = completed
            questions = (standing.questions if standing is not None else 0) + fresh
            ewma = handle.service.tracker.ewma(gid, domain) if handle.service is not None else None
            estimate = float(ewma) if ewma is not None else float(base_estimate)
            requalified = qualification_for(policy, gid, domain, estimate=estimate, questions=questions)
            # Announced on every pool holding the shared worker.
            worker.serving.set_qualification(domain, requalified)
            if requalified.tier > QualificationTier.UNQUALIFIED:
                candidates.append((-estimate, gid))
        candidates.sort()
        k = handle.campaign.k
        return [self._workers[gid].serving for _, gid in candidates[:k]]


@dataclass(frozen=True)
class MarketplaceReport:
    """Outcome of one orchestrator run (JSON-serialisable via ``to_dict``)."""

    n_ticks: int
    campaigns: List[Dict[str, object]]
    marketplace: Dict[str, object]
    elapsed_s: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_ticks": self.n_ticks,
            "campaigns": [dict(campaign) for campaign in self.campaigns],
            "marketplace": dict(self.marketplace),
            "elapsed_s": self.elapsed_s,
        }


class _OrchestratorMetrics:
    """Pre-bound orchestrator metric children (one attribute bump per event)."""

    __slots__ = (
        "ticks",
        "admitted",
        "rejected",
        "departures",
        "invalidations",
        "campaign_events",
        "journal_events",
        "journal_flushes",
        "elapsed",
    )

    def __init__(self, registry) -> None:
        self.ticks = registry.counter("marketplace.ticks", "marketplace ticks executed")
        self.admitted = registry.counter(
            "marketplace.arrivals.admitted", "churn arrivals admitted into the marketplace"
        )
        self.rejected = registry.counter(
            "marketplace.arrivals.rejected", "churn arrivals turned away by the prestudy qualification"
        )
        self.departures = registry.counter(
            "marketplace.departures", "workers departed from the marketplace"
        )
        self.invalidations = registry.counter(
            "marketplace.invalidations", "in-flight vote invalidations caused by departures"
        )
        self.campaign_events = registry.counter(
            "marketplace.campaign.events",
            "per-campaign lifecycle events journaled each tick",
            ("type",),
        )
        self.journal_events = registry.counter(
            "marketplace.journal.events", "events appended to the tick journal"
        )
        self.journal_flushes = registry.counter(
            "marketplace.journal.flushes",
            "journal flush batches (depends on tick_batch; excluded from stable snapshots)",
            volatile=True,
        )
        self.elapsed = registry.gauge(
            "marketplace.run.elapsed_seconds",
            "wall-clock duration of the last orchestrator run",
            volatile=True,
        )


class MarketplaceOrchestrator:
    """Drive N campaigns against one churning marketplace, tick by tick.

    ``telemetry`` is deliberately *not* part of :class:`MarketplaceConfig`:
    the config is the journal fingerprint, and observing a run must never
    change what the run is.
    """

    def __init__(
        self,
        specs: Sequence[CampaignSpec],
        config: Optional[MarketplaceConfig] = None,
        churn: Optional[ChurnConfig] = None,
        journal_path: Optional[object] = None,
        population: Optional[PopulationConfig] = None,
        seed: int = 0,
        telemetry=None,
    ) -> None:
        specs = list(specs)
        if not specs:
            raise ValueError("the orchestrator needs at least one campaign spec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"campaign names must be unique, got {names}")
        self._specs = specs
        self._config = config or MarketplaceConfig()
        self._churn_config = churn or ChurnConfig()
        self._journal = EventJournal(journal_path) if journal_path is not None else None
        self._population = population
        self._seed = int(seed)
        self._marketplace: Optional[Marketplace] = None
        self._handles: List[CampaignHandle] = []
        self._telemetry = telemetry if telemetry is not None and telemetry.enabled else None
        self._metrics = (
            _OrchestratorMetrics(self._telemetry.registry) if self._telemetry is not None else None
        )

    # ------------------------------------------------------------------ #
    @property
    def journal(self) -> Optional[EventJournal]:
        return self._journal

    @property
    def telemetry(self):
        """The telemetry bundle this run reports through (``None`` when off)."""
        return self._telemetry

    @property
    def marketplace(self) -> Optional[Marketplace]:
        """The registry of the most recent :meth:`run` (``None`` before one)."""
        return self._marketplace

    @property
    def handles(self) -> List[CampaignHandle]:
        """The campaign handles of the most recent :meth:`run`."""
        return list(self._handles)

    def fingerprint(self) -> Dict[str, object]:
        """The configuration fingerprint embedded in the journal header."""
        return {
            "seed": self._seed,
            "campaigns": [spec.to_dict() for spec in self._specs],
            "churn": self._churn_config.to_dict(),
            "config": self._config.to_dict(),
        }

    # ------------------------------------------------------------------ #
    def _setup(self) -> None:
        """Build fresh run state (registry, churn model, handles)."""
        self._handles = [CampaignHandle(spec, self._config, None) for spec in self._specs]
        # The population recipe defaults to the first campaign's dataset
        # population — arrivals are drawn from the same worker universe
        # the campaigns select from.
        population = self._population
        if population is None:
            population = self._handles[0].campaign.instance.spec.population
        self._marketplace = Marketplace(self._config, population, self._seed)
        for handle in self._handles:
            handle._marketplace = self._marketplace
            handle._telemetry = self._telemetry
            self._marketplace.attach(handle)
        self._churn = ChurnModel(self._churn_config, self._seed)

    def _tick(self, tick: int) -> Dict[str, object]:
        """One deterministic tick: departures, arrivals, campaign steps."""
        assert self._marketplace is not None
        departing = self._churn.departures_among(self._marketplace.present_ids(), tick)
        invalidations: List[Dict[str, object]] = []
        for worker_id in departing:
            invalidations.extend(self._marketplace.depart(worker_id, tick))
        arrivals = self._marketplace.admit_arrivals(tick, self._churn.arrivals_at(tick))
        campaigns = [handle.step(tick) for handle in self._handles]
        metrics = self._metrics
        if metrics is not None:
            metrics.ticks.inc()
            metrics.departures.inc(len(departing))
            metrics.invalidations.inc(len(invalidations))
            for event in arrivals:
                (metrics.admitted if event["admitted"] else metrics.rejected).inc()
            for event in campaigns:
                metrics.campaign_events.labels(str(event["phase"])).inc()
        return {
            "type": "tick",
            "tick": tick,
            "departures": list(departing),
            "invalidations": invalidations,
            "arrivals": arrivals,
            "campaigns": campaigns,
        }

    def run(self, n_ticks: int, tick_batch: int = 1, resume: bool = False) -> MarketplaceReport:
        """Run ``n_ticks`` ticks, journaling in batches of ``tick_batch``.

        With ``resume=True`` (requires a journal) the run first validates
        the journal's fingerprint, then replays the deterministic event
        loop against the stored tick records — any divergence raises
        :class:`~repro.marketplace.journal.JournalCorruptionError` — and
        finally continues appending where the journal ends.  Because the
        loop is a pure function of the configuration, resuming from *any*
        journal prefix reproduces the identical final journal.
        """
        if n_ticks < 0:
            raise ValueError("n_ticks must be non-negative")
        if tick_batch <= 0:
            raise ValueError("tick_batch must be positive")
        start = perf_counter()
        self._setup()
        self._journal_loop(n_ticks, tick_batch, resume)
        elapsed_s = perf_counter() - start
        if self._metrics is not None:
            self._metrics.elapsed.set(elapsed_s)
        return self._report(n_ticks, elapsed_s)

    def _journal_loop(self, n_ticks: int, tick_batch: int, resume: bool) -> None:
        """Drive :meth:`_tick` over ``n_ticks`` with replay + batched journaling."""
        replayed: List[Dict[str, object]] = []
        if self._journal is not None:
            if resume:
                replayed = self._journal.check_fingerprint(self.fingerprint())
            else:
                self._journal.begin(self.fingerprint())
        elif resume:
            raise ValueError("resume=True requires a journal path")
        buffer: List[Dict[str, object]] = []
        for tick in range(n_ticks):
            record = self._tick(tick)
            if tick < len(replayed):
                if encode_record(record) != encode_record(replayed[tick]):
                    raise JournalCorruptionError(
                        f"{self._journal.path}: replay diverged from the journal at tick {tick}; "
                        "the journal does not belong to this configuration's event stream"
                    )
                continue
            if self._journal is not None:
                buffer.append(record)
                if len(buffer) >= tick_batch:
                    self._flush(buffer)
                    buffer = []
        if self._journal is not None and buffer:
            self._flush(buffer)

    def _flush(self, buffer: List[Dict[str, object]]) -> None:
        """Append one batch of tick records to the journal."""
        assert self._journal is not None
        self._journal.append_ticks(buffer)
        if self._metrics is not None:
            self._metrics.journal_events.inc(len(buffer))
            self._metrics.journal_flushes.inc()

    def _report(self, n_ticks: int, elapsed_s: float) -> MarketplaceReport:
        assert self._marketplace is not None
        present = self._marketplace.present_ids()
        return MarketplaceReport(
            n_ticks=n_ticks,
            campaigns=[handle.summary() for handle in self._handles],
            marketplace={
                "arrivals_admitted": self._marketplace.arrivals_admitted,
                "arrivals_rejected": self._marketplace.arrivals_rejected,
                "departures": self._marketplace.departures,
                "workers_total": len(self._marketplace.workers),
                "workers_present": len(present),
            },
            elapsed_s=elapsed_s,
        )


__all__ = [
    "ARRIVAL_PREFIX",
    "MarketplaceConfig",
    "MarketWorker",
    "Marketplace",
    "MarketplaceReport",
    "MarketplaceOrchestrator",
]
