"""The paper's primary contribution: cross-domain-aware worker selection with training.

Modules
-------
:mod:`repro.core.selector`
    The common selector interface and the :class:`SelectionResult` record
    shared by the proposed method and every baseline.
:mod:`repro.core.cpe`
    Cross-domain-aware Performance Estimation (Algorithm 1): an online
    maximum-likelihood multivariate-normal model over per-domain accuracies.
:mod:`repro.core.lge`
    Learning Gain Estimation (Algorithm 2): per-worker learning-curve fits
    that project each worker's accuracy to the end of training.
:mod:`repro.core.elimination`
    Budgeted Median Elimination (Algorithm 3) plus the round/budget
    bookkeeping.
:mod:`repro.core.pipeline`
    The full selection pipeline (Algorithm 4) combining worker training,
    CPE, LGE and ME; configurable ablations (``use_cpe`` / ``use_lge``).
:mod:`repro.core.bounds`
    The theoretical guarantees of Theorems 1-2 (per-round epsilon and the
    overall error bound) as checkable functions.
:mod:`repro.core.registry`
    The selector registry: every strategy is string-addressable via
    ``make_selector(name, **config)`` and new ones plug in with the
    ``@register_selector`` decorator.
"""

from repro.core.bounds import delta_schedule, epsilon_for_round, required_tasks_per_worker, round_error_bound
from repro.core.cpe import CPEConfig, CrossDomainPerformanceEstimator, RoundData
from repro.core.elimination import median_eliminate
from repro.core.lge import LGEConfig, LearningGainEstimator
from repro.core.pipeline import CrossDomainWorkerSelector, RoundDiagnostics
from repro.core.registry import (
    describe_selector,
    make_selector,
    register_selector,
    selector_exists,
    selector_names,
)
from repro.core.selector import BaseWorkerSelector, SelectionResult, run_stepwise
from repro.registry import Registry

__all__ = [
    "BaseWorkerSelector",
    "SelectionResult",
    "run_stepwise",
    "Registry",
    "register_selector",
    "make_selector",
    "selector_names",
    "selector_exists",
    "describe_selector",
    "CPEConfig",
    "RoundData",
    "CrossDomainPerformanceEstimator",
    "LGEConfig",
    "LearningGainEstimator",
    "median_eliminate",
    "CrossDomainWorkerSelector",
    "RoundDiagnostics",
    "epsilon_for_round",
    "required_tasks_per_worker",
    "round_error_bound",
    "delta_schedule",
]
