"""The full cross-domain-aware worker selection pipeline (Algorithm 4).

Each elimination round the pipeline

1. assigns every remaining worker the shared batch of learning tasks and
   collects the answers (worker training, Definition 3);
2. updates the CPE model with the observed correct/wrong counts and predicts
   every remaining worker's target-domain accuracy (Algorithm 1);
3. refits every worker's learning curve and projects the accuracy to the end
   of the current round (Algorithm 2);
4. keeps the best half of the workers (Algorithm 3).

After ``n = ceil(log2(|W| / k))`` rounds, the ``k`` workers with the highest
final estimate are returned.  The two estimation components can be switched
off independently, which yields the paper's ablation variants:

* ``use_cpe=False, use_lge=False`` — plain budgeted Median Elimination;
* ``use_cpe=True,  use_lge=False`` — the ME-CPE ablation;
* ``use_cpe=True,  use_lge=True``  — the full proposed method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

import numpy as np

from repro.core.cpe import CPEConfig, CrossDomainPerformanceEstimator
from repro.core.elimination import median_eliminate
from repro.core.lge import LGEConfig, LearningGainEstimator
from repro.core.registry import register_selector
from repro.core.selector import BaseWorkerSelector, SelectionResult, run_stepwise, top_k_by_score
from repro.platform.session import AnnotationEnvironment
from repro.stats.rng import SeedLike, as_generator


@dataclass
class RoundDiagnostics:
    """Per-round record of what the pipeline observed and decided."""

    round_index: int
    worker_ids: List[str]
    tasks_per_worker: int
    observed_accuracies: Dict[str, float] = field(default_factory=dict)
    cpe_estimates: Dict[str, float] = field(default_factory=dict)
    lge_estimates: Dict[str, float] = field(default_factory=dict)
    survivors: List[str] = field(default_factory=list)


class CrossDomainWorkerSelector(BaseWorkerSelector):
    """The paper's proposed selector (and, via flags, its ablations)."""

    def __init__(
        self,
        cpe_config: Optional[CPEConfig] = None,
        lge_config: Optional[LGEConfig] = None,
        use_cpe: bool = True,
        use_lge: bool = True,
        rng: SeedLike = None,
        name: Optional[str] = None,
    ) -> None:
        self._cpe_config = cpe_config or CPEConfig()
        self._lge_config = lge_config or LGEConfig()
        self._use_cpe = use_cpe
        self._use_lge = use_lge
        self._rng = as_generator(rng)
        if name is not None:
            self.name = name
        elif use_cpe and use_lge:
            self.name = "ours"
        elif use_cpe:
            self.name = "me-cpe"
        else:
            self.name = "me"

    # ------------------------------------------------------------------ #
    @property
    def use_cpe(self) -> bool:
        return self._use_cpe

    @property
    def use_lge(self) -> bool:
        return self._use_lge

    # ------------------------------------------------------------------ #
    def select(self, environment: AnnotationEnvironment, k: Optional[int] = None) -> SelectionResult:
        _, result = run_stepwise(self.stepwise(environment, k))
        return result

    def stepwise(
        self, environment: AnnotationEnvironment, k: Optional[int] = None
    ) -> Generator[RoundDiagnostics, None, SelectionResult]:
        """One elimination round per ``next()``; returns the final result.

        Yields the :class:`RoundDiagnostics` of every round *after* its
        elimination decision, so a caller that stops consuming between
        yields observes a consistent mid-run state (survivors decided,
        budget charged).  :meth:`select` is exactly this generator driven
        to completion.
        """
        k = self.resolve_k(environment, k)
        schedule = environment.schedule
        prior_domains = environment.prior_domains
        all_ids = environment.worker_ids
        accuracy_matrix, count_matrix = environment.historical_profiles()
        row_of: Dict[str, int] = {worker_id: index for index, worker_id in enumerate(all_ids)}

        cpe: Optional[CrossDomainPerformanceEstimator] = None
        if self._use_cpe:
            cpe = CrossDomainPerformanceEstimator(prior_domains, self._cpe_config, rng=self._rng)
            cpe.initialize(accuracy_matrix)

        lge: Optional[LearningGainEstimator] = None
        if self._use_lge:
            prior_means = [
                float(np.nanmean(accuracy_matrix[:, column]))
                if np.any(~np.isnan(accuracy_matrix[:, column]))
                else 0.5
                for column in range(accuracy_matrix.shape[1])
            ]
            lge = LearningGainEstimator(prior_domains, prior_means, self._lge_config)

        remaining: List[str] = list(all_ids)
        cpe_histories: Dict[str, List[float]] = {worker_id: [] for worker_id in all_ids}
        cumulative_exposures: List[float] = [0.0]
        diagnostics: List[RoundDiagnostics] = []
        previous_round_estimates: Dict[str, float] = {}
        last_estimates: Dict[str, float] = {}

        for round_index in range(1, schedule.n_rounds + 1):
            tasks_per_worker = schedule.round_budget // max(len(remaining), 1)
            record = environment.run_learning_round(remaining, tasks_per_worker, round_index=round_index)
            correct_by_id = record.correct_counts()
            wrong_by_id = record.wrong_counts()
            observed_accuracy = record.accuracies()

            rows = np.asarray([row_of[worker_id] for worker_id in remaining], dtype=int)
            round_accuracy_matrix = accuracy_matrix[rows]
            round_count_matrix = count_matrix[rows]
            correct = np.asarray([correct_by_id[worker_id] for worker_id in remaining], dtype=float)
            wrong = np.asarray([wrong_by_id[worker_id] for worker_id in remaining], dtype=float)

            # --- Worker quality estimation: CPE (Algorithm 1). ---
            if tasks_per_worker == 0:
                # Degenerate round: the per-round budget cannot cover even one
                # task per remaining worker, so the round observed nothing.
                # Feeding the all-zero counts into the CPE update would drag
                # the model towards the count-free likelihood optimum, so the
                # update is skipped and the freshest existing estimates carry
                # over (prior-only CPE prediction on the first round).
                if cpe is not None:
                    cpe_estimates = cpe.predict(round_accuracy_matrix)
                else:
                    cpe_estimates = np.asarray(
                        [last_estimates.get(worker_id, 0.5) for worker_id in remaining], dtype=float
                    )
            elif cpe is not None:
                cpe.update(round_accuracy_matrix, correct, wrong)
                cpe_estimates = cpe.predict(round_accuracy_matrix, correct, wrong)
            else:
                cpe_estimates = correct / (correct + wrong)
            for worker_id, estimate in zip(remaining, cpe_estimates):
                cpe_histories[worker_id].append(float(estimate))

            cumulative_exposures.append(cumulative_exposures[-1] + tasks_per_worker)

            # --- Worker quality estimation: LGE (Algorithm 2). ---
            if lge is not None:
                lge_estimates = lge.estimate(
                    worker_ids=remaining,
                    historical_accuracies=round_accuracy_matrix,
                    historical_counts=round_count_matrix,
                    cpe_histories=cpe_histories,
                    cumulative_exposures=cumulative_exposures,
                )
            else:
                lge_estimates = np.asarray(cpe_estimates, dtype=float)

            estimates_by_id = {
                worker_id: float(estimate) for worker_id, estimate in zip(remaining, lge_estimates)
            }

            # --- Worker selection: Median Elimination (Algorithm 3). ---
            survivors = median_eliminate(remaining, [estimates_by_id[w] for w in remaining])
            round_diagnostics = RoundDiagnostics(
                round_index=round_index,
                worker_ids=list(remaining),
                tasks_per_worker=tasks_per_worker,
                observed_accuracies={w: float(observed_accuracy[w]) for w in remaining},
                cpe_estimates={w: float(p) for w, p in zip(remaining, cpe_estimates)},
                lge_estimates=dict(estimates_by_id),
                survivors=list(survivors),
            )
            diagnostics.append(round_diagnostics)
            previous_round_estimates = last_estimates
            last_estimates = estimates_by_id
            remaining = survivors
            yield round_diagnostics

        # --- Final selection (Algorithm 4, line 17). ---
        if len(remaining) >= k:
            final_scores = {worker_id: last_estimates[worker_id] for worker_id in remaining}
        else:
            # Fewer survivors than k: fall back to the last round's entrants.
            # Every worker in that pool was (re-)estimated in the final round,
            # so prefer those fresh estimates and only reach back to the
            # penultimate round for workers that somehow lack one.
            fallback_pool = diagnostics[-1].worker_ids if diagnostics else list(all_ids)
            final_scores = {
                worker_id: last_estimates.get(
                    worker_id, previous_round_estimates.get(worker_id, 0.0)
                )
                for worker_id in fallback_pool
            }
        selected = top_k_by_score(final_scores, k)

        result_diagnostics: Dict[str, object] = {
            "rounds": diagnostics,
            "cumulative_exposures": list(cumulative_exposures),
        }
        if cpe is not None:
            result_diagnostics["estimated_correlations"] = cpe.estimated_correlations()
            result_diagnostics["cpe_model_mean"] = cpe.model.mean.tolist()
        if lge is not None:
            result_diagnostics["fitted_alphas"] = lge.fitted_alphas

        return SelectionResult(
            method=self.name,
            selected_worker_ids=selected,
            estimated_accuracies={worker_id: final_scores.get(worker_id, 0.0) for worker_id in selected},
            spent_budget=environment.spent_budget,
            n_rounds=schedule.n_rounds,
            diagnostics=result_diagnostics,
        )


@register_selector("cross-domain", aliases=("pipeline",))
def _build_cross_domain(
    seed: SeedLike = None,
    use_cpe: bool = True,
    use_lge: bool = True,
    target_initial_accuracy: Optional[float] = None,
    cpe_epochs: Optional[int] = None,
    cpe_config: Optional[CPEConfig] = None,
    lge_config: Optional[LGEConfig] = None,
    name: Optional[str] = None,
) -> CrossDomainWorkerSelector:
    """The configurable pipeline itself, ablation flags exposed."""
    return CrossDomainWorkerSelector(
        cpe_config=cpe_config or build_cpe_config(target_initial_accuracy, cpe_epochs),
        lge_config=lge_config or build_lge_config(target_initial_accuracy),
        use_cpe=use_cpe,
        use_lge=use_lge,
        rng=seed,
        name=name,
    )


def build_cpe_config(
    target_initial_accuracy: Optional[float] = None, cpe_epochs: Optional[int] = None
) -> CPEConfig:
    """A :class:`CPEConfig` with only the explicitly provided knobs overridden."""
    overrides: Dict[str, object] = {}
    if target_initial_accuracy is not None:
        overrides["initial_target_mean"] = target_initial_accuracy
    if cpe_epochs is not None:
        overrides["n_epochs"] = cpe_epochs
    return CPEConfig(**overrides)


def build_lge_config(target_initial_accuracy: Optional[float] = None) -> LGEConfig:
    """A :class:`LGEConfig` with only the explicitly provided knobs overridden."""
    if target_initial_accuracy is not None:
        return LGEConfig(target_initial_accuracy=target_initial_accuracy)
    return LGEConfig()


__all__ = ["CrossDomainWorkerSelector", "RoundDiagnostics", "build_cpe_config", "build_lge_config"]
