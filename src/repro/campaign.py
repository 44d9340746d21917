"""High-level annotation-campaign facade: one selection run as a first-class object.

The experiment harness answers *"how do the methods compare over many
repetitions?"* — a production platform instead serves *one campaign at a
time*: pick ``k`` workers for a new target domain under a task budget.
:class:`Campaign` packages that unit behind a builder-style API on top of
the dataset and selector registries:

>>> from repro import Campaign
>>> campaign = Campaign(dataset="S-1", selector="ours", k=5, seed=0)
>>> report = campaign.run()
>>> len(report.selected_worker_ids)
5

Three usage modes, all yielding bit-identical selections for one seed:

* **one-shot** — :meth:`Campaign.run` drives everything and returns a
  JSON-round-trippable :class:`CampaignReport`;
* **streaming** — :meth:`Campaign.steps` yields one :class:`CampaignEvent`
  per elimination round (survivors, CPE/LGE estimates, budget spent) so a
  caller can render progress or stop consuming between rounds;
* **checkpoint/resume** — :meth:`Campaign.state_dict` captures a paused
  campaign, :meth:`Campaign.from_state_dict` restores it.  Every source of
  randomness is derived from the campaign seed, so restoration replays the
  completed rounds deterministically and then continues; the resumed
  campaign's final selection is identical to an uninterrupted run.

A finished campaign hands off to the serving layer: :meth:`Campaign.serve`
streams the dataset's working tasks through the selected pool (routing,
online aggregation, drift detection) and returns a
:class:`~repro.serving.service.ServingReport`; :meth:`Campaign.serving_service`
returns the configured :class:`~repro.serving.service.AnnotationService`
itself for callers that drive the stream manually.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Generator, Iterator, List, Mapping, Optional

from repro.core.pipeline import RoundDiagnostics
from repro.core.registry import make_selector, resolve_selector_name
from repro.core.selector import BaseWorkerSelector, SelectionResult
from repro.datasets.registry import load_dataset
from repro.evaluation.metrics import precision_at_k
from repro.platform.session import AnnotationEnvironment
from repro.serving.pool import ServingPool
from repro.serving.qualification import QualificationPolicy
from repro.serving.service import (
    AnnotationService,
    AnswerOracle,
    ServingConfig,
    ServingReport,
    working_task_stream,
)
from repro.stats.rng import as_generator, derive_seed
from repro.workers.profile import WorkerProfile

_STATE_VERSION = 1


@dataclass(frozen=True)
class SelectionManifest:
    """Everything the serving/marketplace layer needs from a finished selection.

    Produced by :meth:`Campaign.selection_manifest`; consumed by
    :meth:`Campaign.serving_service` and by the marketplace orchestrator,
    which registers the selected workers into its shared registry instead
    of building a pool directly.

    Attributes
    ----------
    target_domain:
        The campaign's target domain.
    worker_ids:
        The selected workers, in selection order.
    target_estimates:
        The selector's final accuracy estimate per selected worker (falls
        back to the observed training accuracy, or 0.5 for a worker the
        selector never tested).
    training_questions:
        Golden learning tasks each selected worker answered during selection.
    final_accuracies:
        Each selected worker's fully trained latent accuracy on the target
        domain (drives the simulated answer oracles).
    profiles:
        Historical cross-domain profiles of the selected workers.
    """

    target_domain: str
    worker_ids: List[str]
    target_estimates: Dict[str, float]
    training_questions: Dict[str, int]
    final_accuracies: Dict[str, float]
    profiles: Dict[str, WorkerProfile]


@dataclass(frozen=True)
class CampaignEvent:
    """One elimination round of a running campaign, as observed by the caller.

    Attributes
    ----------
    round_index:
        1-based index of the round.
    n_rounds:
        Total rounds the campaign schedule prescribes.
    worker_ids:
        Workers that entered the round.
    survivors:
        Workers kept after the round's elimination decision.
    tasks_per_worker:
        Learning tasks each participating worker answered this round.
    observed_accuracies / cpe_estimates / lge_estimates:
        Per-worker observables and model estimates for the round (empty for
        estimate kinds the selector does not produce).
    spent_budget / remaining_budget:
        Budget state *after* the round was charged.
    """

    round_index: int
    n_rounds: int
    worker_ids: List[str]
    survivors: List[str]
    tasks_per_worker: int
    observed_accuracies: Dict[str, float] = field(default_factory=dict)
    cpe_estimates: Dict[str, float] = field(default_factory=dict)
    lge_estimates: Dict[str, float] = field(default_factory=dict)
    spent_budget: int = 0
    remaining_budget: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "round_index": self.round_index,
            "n_rounds": self.n_rounds,
            "worker_ids": list(self.worker_ids),
            "survivors": list(self.survivors),
            "tasks_per_worker": self.tasks_per_worker,
            "observed_accuracies": dict(self.observed_accuracies),
            "cpe_estimates": dict(self.cpe_estimates),
            "lge_estimates": dict(self.lge_estimates),
            "spent_budget": self.spent_budget,
            "remaining_budget": self.remaining_budget,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CampaignEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            round_index=int(payload["round_index"]),
            n_rounds=int(payload["n_rounds"]),
            worker_ids=list(payload["worker_ids"]),
            survivors=list(payload["survivors"]),
            tasks_per_worker=int(payload["tasks_per_worker"]),
            observed_accuracies=dict(payload.get("observed_accuracies", {})),
            cpe_estimates=dict(payload.get("cpe_estimates", {})),
            lge_estimates=dict(payload.get("lge_estimates", {})),
            spent_budget=int(payload.get("spent_budget", 0)),
            remaining_budget=int(payload.get("remaining_budget", 0)),
        )


@dataclass(frozen=True)
class CampaignReport:
    """Final outcome of a campaign, JSON-round-trippable via ``to_dict``/``from_dict``.

    ``mean_accuracy`` is the *evaluated* working-task accuracy of the
    selected workers (the paper's headline metric), ``estimated_accuracies``
    the selector's own final estimates, and ``ground_truth_accuracy`` the
    mean accuracy of the truly best ``k`` workers of this pool draw.
    """

    dataset: str
    selector: str
    k: int
    seed: int
    selected_worker_ids: List[str]
    estimated_accuracies: Dict[str, float]
    mean_accuracy: float
    per_worker_accuracy: Dict[str, float]
    precision_at_k: float
    ground_truth_accuracy: float
    spent_budget: int
    total_budget: int
    n_rounds: int
    events: List[CampaignEvent] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (events included)."""
        return {
            "dataset": self.dataset,
            "selector": self.selector,
            "k": self.k,
            "seed": self.seed,
            "selected_worker_ids": list(self.selected_worker_ids),
            "estimated_accuracies": dict(self.estimated_accuracies),
            "mean_accuracy": self.mean_accuracy,
            "per_worker_accuracy": dict(self.per_worker_accuracy),
            "precision_at_k": self.precision_at_k,
            "ground_truth_accuracy": self.ground_truth_accuracy,
            "spent_budget": self.spent_budget,
            "total_budget": self.total_budget,
            "n_rounds": self.n_rounds,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CampaignReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            dataset=str(payload["dataset"]),
            selector=str(payload["selector"]),
            k=int(payload["k"]),
            seed=int(payload["seed"]),
            selected_worker_ids=list(payload["selected_worker_ids"]),
            estimated_accuracies=dict(payload["estimated_accuracies"]),
            mean_accuracy=float(payload["mean_accuracy"]),
            per_worker_accuracy=dict(payload["per_worker_accuracy"]),
            precision_at_k=float(payload["precision_at_k"]),
            ground_truth_accuracy=float(payload["ground_truth_accuracy"]),
            spent_budget=int(payload["spent_budget"]),
            total_budget=int(payload["total_budget"]),
            n_rounds=int(payload["n_rounds"]),
            events=[CampaignEvent.from_dict(event) for event in payload.get("events", [])],
        )


class Campaign:
    """One annotation campaign: dataset + selector + budget, run to a selection.

    Parameters
    ----------
    dataset:
        Name of a registered dataset (``repro.DATASET_NAMES``).
    selector:
        Name of a registered selector (``repro.selector_names()``).
    k:
        Number of workers to select (default: the dataset's canonical ``k``).
    seed:
        Single root seed; the pool draw, the simulated answer stream and the
        selector's randomness are all derived from it, which is what makes
        checkpoint/resume deterministic.
    tasks_per_batch:
        Override of the dataset's per-batch learning-task count ``Q``.
    selector_config:
        Extra keyword configuration for the selector factory (must be
        JSON-serialisable so it can travel through :meth:`state_dict`);
        keyword arguments beyond the named parameters are merged into it.
    """

    def __init__(
        self,
        dataset: str = "S-1",
        selector: str = "ours",
        *,
        k: Optional[int] = None,
        seed: int = 0,
        tasks_per_batch: Optional[int] = None,
        selector_config: Optional[Mapping[str, object]] = None,
        **extra_selector_config: object,
    ) -> None:
        self._dataset_name = dataset
        # Canonicalise eagerly (raises KeyError on unknown names) so aliases
        # and case variants derive the same selector seed — and the same
        # selection — as the canonical spelling.
        self._selector_name = resolve_selector_name(selector)
        self._requested_k = k
        self._seed = int(seed)
        self._tasks_per_batch = tasks_per_batch
        self._selector_config: Dict[str, object] = dict(selector_config or {})
        self._selector_config.update(extra_selector_config)

        self._instance = load_dataset(
            dataset,
            seed=derive_seed(self._seed, "campaign", "instance"),
            k=k,
            tasks_per_batch=tasks_per_batch,
        )
        # Built eagerly so invalid selector configuration fails at
        # construction time, not on the first step.
        self._selector: BaseWorkerSelector = make_selector(
            self._selector_name,
            seed=derive_seed(self._seed, "campaign", "selector", self._selector_name),
            **self._selector_config,
        )
        self._environment: Optional[AnnotationEnvironment] = None
        self._generator: Optional[Generator[object, None, SelectionResult]] = None
        self._events: List[CampaignEvent] = []
        self._result: Optional[SelectionResult] = None
        self._report: Optional[CampaignReport] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def dataset_name(self) -> str:
        return self._instance.name

    @property
    def selector_name(self) -> str:
        return self._selector_name

    @property
    def k(self) -> int:
        """The resolved selection size."""
        return self._instance.schedule.k

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def instance(self):
        """The loaded dataset instance this campaign runs against."""
        return self._instance

    @property
    def n_rounds(self) -> int:
        """Elimination rounds the schedule prescribes."""
        return self._instance.schedule.n_rounds

    @property
    def rounds_completed(self) -> int:
        return len(self._events)

    @property
    def finished(self) -> bool:
        return self._result is not None

    @property
    def events(self) -> List[CampaignEvent]:
        """Events of the rounds completed so far (copies on every access)."""
        return list(self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Campaign(dataset={self.dataset_name!r}, selector={self._selector_name!r}, "
            f"k={self.k}, seed={self._seed}, rounds={self.rounds_completed}/{self.n_rounds})"
        )

    # ------------------------------------------------------------------ #
    # Stepwise execution
    # ------------------------------------------------------------------ #
    def _ensure_started(self) -> Generator[object, None, SelectionResult]:
        if self._generator is None:
            self._environment = self._instance.environment(
                run_seed=derive_seed(self._seed, "campaign", "answers"),
            )
            self._generator = self._selector.stepwise(self._environment, self._requested_k)
        return self._generator

    def _event_from(self, raw: object) -> CampaignEvent:
        environment = self._environment
        assert environment is not None
        spent = environment.spent_budget
        remaining = environment.remaining_budget
        if isinstance(raw, RoundDiagnostics):
            return CampaignEvent(
                round_index=raw.round_index,
                n_rounds=self.n_rounds,
                worker_ids=list(raw.worker_ids),
                survivors=list(raw.survivors),
                tasks_per_worker=raw.tasks_per_worker,
                observed_accuracies=dict(raw.observed_accuracies),
                cpe_estimates=dict(raw.cpe_estimates),
                lge_estimates=dict(raw.lge_estimates),
                spent_budget=spent,
                remaining_budget=remaining,
            )
        # A selector may yield something other than RoundDiagnostics; expose
        # what is generically known so streaming still works.
        return CampaignEvent(
            round_index=len(self._events) + 1,
            n_rounds=self.n_rounds,
            worker_ids=list(environment.worker_ids),
            survivors=list(environment.worker_ids),
            tasks_per_worker=0,
            spent_budget=spent,
            remaining_budget=remaining,
        )

    def step(self) -> Optional[CampaignEvent]:
        """Advance by one elimination round; ``None`` once the run finished."""
        if self._result is not None:
            return None
        generator = self._ensure_started()
        try:
            raw = next(generator)
        except StopIteration as stop:
            result = stop.value
            if not isinstance(result, SelectionResult):
                raise TypeError("a stepwise selector generator must return a SelectionResult")
            self._result = result
            return None
        event = self._event_from(raw)
        self._events.append(event)
        return event

    def steps(self) -> Iterator[CampaignEvent]:
        """Iterate the remaining rounds, yielding one event per round."""
        while True:
            event = self.step()
            if event is None:
                return
            yield event

    def run(self) -> CampaignReport:
        """Drive the campaign to completion and return its report."""
        for _ in self.steps():
            pass
        return self.report()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def result(self) -> SelectionResult:
        """The raw :class:`SelectionResult` (runs to completion if needed)."""
        if self._result is None:
            self.run()
        assert self._result is not None
        return self._result

    def report(self) -> CampaignReport:
        """The evaluated :class:`CampaignReport` (runs to completion if needed)."""
        if self._report is not None:
            return self._report
        result = self.result()
        environment = self._environment
        assert environment is not None
        outcome = environment.evaluate_selection(result.selected_worker_ids)
        self._report = CampaignReport(
            dataset=self.dataset_name,
            selector=self._selector_name,
            k=self.k,
            seed=self._seed,
            selected_worker_ids=list(result.selected_worker_ids),
            estimated_accuracies=dict(result.estimated_accuracies),
            mean_accuracy=outcome.mean_accuracy,
            per_worker_accuracy=dict(outcome.per_worker_accuracy),
            precision_at_k=precision_at_k(environment, result, k=self.k),
            ground_truth_accuracy=self._instance.ground_truth_mean_accuracy(self.k),
            spent_budget=result.spent_budget,
            total_budget=self._instance.schedule.total_budget,
            n_rounds=result.n_rounds,
            events=self.events,
        )
        return self._report

    # ------------------------------------------------------------------ #
    # Serving handoff
    # ------------------------------------------------------------------ #
    def serving_service(
        self,
        config: Optional[ServingConfig] = None,
        *,
        qualification: Optional[QualificationPolicy] = None,
        answer_oracle: Optional[AnswerOracle] = None,
        telemetry=None,
        **overrides: object,
    ) -> AnnotationService:
        """Build the serving layer from this campaign's finished selection.

        Runs the campaign to completion if needed, qualifies the selected
        workers per domain (target domain from the selector's final
        estimates and training history, prior domains from the historical
        profiles) and returns a ready
        :class:`~repro.serving.service.AnnotationService`.

        Parameters
        ----------
        config:
            Full :class:`~repro.serving.service.ServingConfig`; keyword
            ``overrides`` (e.g. ``router="least_loaded"``) patch the
            default config instead.
        qualification:
            Qualification policy (thresholds, fallback tier).
        answer_oracle:
            Override how routed workers answer; the default simulates each
            worker at its fully trained latent accuracy, drawing from a
            stream derived from the campaign seed and the serving seed —
            same seed and routing policy ⇒ identical trace and labels.
        telemetry:
            Optional :class:`repro.obs.Telemetry` bundle the service
            reports metrics through (kept out of ``ServingConfig`` so
            observing a run never changes its trace).
        """
        if config is not None and overrides:
            raise ValueError("pass either a full ServingConfig or keyword overrides, not both")
        resolved = config if config is not None else replace(ServingConfig(), **overrides)  # type: ignore[arg-type]
        manifest = self.selection_manifest()
        pool = ServingPool.from_selection(
            worker_ids=manifest.worker_ids,
            target_domain=manifest.target_domain,
            target_estimates=manifest.target_estimates,
            training_questions=manifest.training_questions,
            profiles=manifest.profiles,
            policy=qualification,
            max_concurrent=resolved.max_concurrent,
        )
        if answer_oracle is None:
            generator = as_generator(
                derive_seed(self._seed, "campaign", "serving", resolved.seed)
            )
            final_accuracies = manifest.final_accuracies

            def answer_oracle(worker_id, task):  # noqa: F811 - deliberate default binding
                correct = bool(generator.uniform() < final_accuracies[worker_id])
                return task.gold_label if correct else not task.gold_label

        return AnnotationService(pool, resolved, answer_oracle=answer_oracle, telemetry=telemetry)

    def selection_manifest(self) -> SelectionManifest:
        """Summarise the finished selection for the serving/marketplace layer.

        Runs the campaign to completion if needed.
        """
        result = self.result()
        environment = self._environment
        assert environment is not None
        history = environment.history

        def observed_accuracy(worker_id: str) -> float:
            total = 0
            correct = 0
            for record in history.rounds_for_worker(worker_id):
                total += record.tasks_per_worker
                correct += int(record.correctness[worker_id].sum())
            # A worker the selector never tested is "unknown", which the
            # qualification policy maps to the fallback tier — not to
            # unqualified, and not to fully qualified either.
            return correct / total if total else 0.5

        selected = list(result.selected_worker_ids)
        profiles = {w.worker_id: w.profile for w in self._instance.pool}
        return SelectionManifest(
            target_domain=self._instance.target_domain,
            worker_ids=selected,
            target_estimates={
                worker_id: float(
                    result.estimated_accuracies.get(worker_id, observed_accuracy(worker_id))
                )
                for worker_id in selected
            },
            training_questions={
                worker_id: history.cumulative_exposure(worker_id) for worker_id in selected
            },
            final_accuracies={
                worker_id: environment.final_accuracy(worker_id) for worker_id in selected
            },
            profiles={worker_id: profiles[worker_id] for worker_id in selected if worker_id in profiles},
        )

    def serve(
        self,
        n_tasks: Optional[int] = None,
        config: Optional[ServingConfig] = None,
        *,
        qualification: Optional[QualificationPolicy] = None,
        answer_oracle: Optional[AnswerOracle] = None,
        telemetry=None,
        **overrides: object,
    ) -> ServingReport:
        """Serve ``n_tasks`` working tasks through the selected pool.

        Convenience wrapper over :meth:`serving_service`: streams the
        dataset's working tasks (cycled deterministically when ``n_tasks``
        exceeds the bank) and returns the resulting
        :class:`~repro.serving.service.ServingReport`.
        """
        service = self.serving_service(
            config,
            qualification=qualification,
            answer_oracle=answer_oracle,
            telemetry=telemetry,
            **overrides,
        )
        tasks = working_task_stream(self._instance.task_bank, n_tasks)
        return service.serve(tasks)

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, object]:
        """JSON-serialisable checkpoint of the campaign's progress.

        The checkpoint stores the campaign *recipe* plus the number of
        completed rounds; because every random stream is derived from the
        campaign seed, :meth:`from_state_dict` replays those rounds
        deterministically and the resumed campaign is indistinguishable
        from one that never paused.
        """
        return {
            "version": _STATE_VERSION,
            "dataset": self._dataset_name,
            "selector": self._selector_name,
            "k": self._requested_k,
            "seed": self._seed,
            "tasks_per_batch": self._tasks_per_batch,
            "selector_config": dict(self._selector_config),
            "rounds_completed": self.rounds_completed,
            "finished": self.finished,
        }

    @classmethod
    def from_state_dict(cls, state: Mapping[str, object]) -> "Campaign":
        """Restore a campaign checkpointed with :meth:`state_dict`."""
        version = state.get("version")
        if version != _STATE_VERSION:
            raise ValueError(f"unsupported campaign state version {version!r} (expected {_STATE_VERSION})")
        campaign = cls(
            dataset=str(state["dataset"]),
            selector=str(state["selector"]),
            k=state.get("k"),
            seed=int(state["seed"]),
            tasks_per_batch=state.get("tasks_per_batch"),
            selector_config=dict(state.get("selector_config", {})),
        )
        rounds_completed = int(state.get("rounds_completed", 0))
        for _ in range(rounds_completed):
            if campaign.step() is None:
                break
        if state.get("finished"):
            campaign.run()
        return campaign


__all__ = [
    "Campaign",
    "CampaignEvent",
    "CampaignReport",
    "SelectionManifest",
    "ServingConfig",
    "ServingReport",
]
