"""repro — Cross-domain-aware worker selection with training (ICDE 2024 reproduction).

A production-quality Python reproduction of *"Cross-domain-aware Worker
Selection with Training for Crowdsourced Annotation"* (Sun et al., ICDE
2024).  The package contains the paper's proposed selection pipeline (CPE +
LGE + budgeted Median Elimination), every baseline it compares against, a
crowdsourcing-platform simulator, the six evaluation datasets and an
experiment harness that regenerates every table and figure of the paper's
evaluation section.

Quickstart
----------
The :class:`~repro.campaign.Campaign` facade runs one annotation campaign —
dataset, selector and budget protocol — end to end:

>>> from repro import Campaign
>>> report = Campaign(dataset="S-1", selector="ours", k=5, seed=0).run()
>>> len(report.selected_worker_ids)
5
>>> 0.0 <= report.mean_accuracy <= 1.0
True

Every selection strategy is string-addressable through the selector
registry (``repro.selector_names()`` lists them), and new strategies plug
in with the ``@register_selector`` decorator:

>>> from repro import make_selector
>>> make_selector("me", seed=7).name
'me'

A finished campaign hands off to the serving layer — routing policies,
online aggregation and drift detection over the selected pool:

>>> from repro import Campaign
>>> serving = Campaign(dataset="S-1", selector="ours", k=5, seed=0).serve(n_tasks=50)
>>> serving.n_tasks_routed
50

Routing policies are registry-addressable too (``repro.router_names()``)
and extend with the ``@register_router`` decorator.

Above single-campaign serving sits the marketplace layer
(:mod:`repro.marketplace`): a :class:`~repro.marketplace.MarketplaceOrchestrator`
runs several campaigns concurrently against one shared, churning worker
marketplace under a deterministic, crash-recoverable journaled tick loop.

Both layers emit into a deterministic telemetry core (:mod:`repro.obs`):
pass ``create_telemetry()`` into ``serve``/the orchestrator and read back
byte-stable, schema-versioned metrics snapshots (``repro-crowd metrics``
lists the catalog).  Telemetry is off by default and never changes a
run's outputs.

Worker *behaviours* have their own registry (``repro.behavior_names()``,
``@register_behavior``): beyond the paper's learning workers, pools can be
contaminated with spammers, adversarial, fatigued, sleeper and drifting
workers via scenario-qualified dataset names:

>>> report = Campaign(dataset="S-1:spam10", selector="ours", k=5, seed=0).run()
>>> len(report.selected_worker_ids)
5

The lower-level objects (datasets, environments, selector classes) remain
available for harness-style use:

>>> from repro import load_dataset, OursSelector
>>> dataset = load_dataset("S-1", seed=0)
>>> environment = dataset.environment(run_seed=0)
>>> result = OursSelector(rng=0).select(environment)
>>> outcome = environment.evaluate_selection(result.selected_worker_ids)
>>> 0.0 <= outcome.mean_accuracy <= 1.0
True
"""

from repro.baselines import (
    LiRegressionSelector,
    MeCpeSelector,
    MedianEliminationSelector,
    OracleSelector,
    OursSelector,
    RandomSelector,
    UniformSamplingSelector,
)
from repro.campaign import Campaign, CampaignEvent, CampaignReport
from repro.config import BENCHMARK_CONFIG, METHOD_LABELS, METHOD_ORDER, ExperimentConfig
from repro.core import (
    CPEConfig,
    CrossDomainPerformanceEstimator,
    CrossDomainWorkerSelector,
    LGEConfig,
    LearningGainEstimator,
    SelectionResult,
    make_selector,
    median_eliminate,
    register_selector,
    selector_exists,
    selector_names,
)
from repro.datasets import (
    DATASET_NAMES,
    SCENARIO_RECIPES,
    DatasetInstance,
    DatasetSpec,
    load_dataset,
    parse_scenario,
    scenario_names,
    scenario_spec,
)
from repro.evaluation import compare_selectors, evaluate_selector, ground_truth_accuracy
from repro.marketplace import (
    CampaignHandle,
    CampaignPhase,
    CampaignSpec,
    ChurnConfig,
    EventJournal,
    Marketplace,
    MarketplaceConfig,
    MarketplaceOrchestrator,
    MarketplaceReport,
)
from repro.platform import AnnotationEnvironment, BudgetSchedule, compute_budget
from repro.registry import Registry
from repro.serving import (
    AnnotationService,
    DriftConfig,
    IncrementalDawidSkene,
    OnlineMajorityVote,
    QualificationPolicy,
    QualificationTier,
    QualityTracker,
    ServingConfig,
    ServingPool,
    ServingReport,
    make_router,
    register_router,
    router_exists,
    router_names,
)
from repro.workers import (
    AdversarialWorker,
    DrifterWorker,
    FatigueWorker,
    LearningWorker,
    SleeperWorker,
    SpammerWorker,
    StaticWorker,
    WorkerPool,
    WorkerProfile,
    behavior_exists,
    behavior_names,
    make_behavior,
    register_behavior,
)

__version__ = "1.22.0"

__all__ = [
    "__version__",
    # Campaign facade
    "Campaign",
    "CampaignEvent",
    "CampaignReport",
    # Plug-in registries
    "Registry",
    "register_selector",
    "make_selector",
    "selector_names",
    "selector_exists",
    # Core algorithm
    "CrossDomainWorkerSelector",
    "CrossDomainPerformanceEstimator",
    "LearningGainEstimator",
    "CPEConfig",
    "LGEConfig",
    "SelectionResult",
    "median_eliminate",
    # Baselines
    "UniformSamplingSelector",
    "MedianEliminationSelector",
    "LiRegressionSelector",
    "MeCpeSelector",
    "OursSelector",
    "RandomSelector",
    "OracleSelector",
    # Datasets + scenarios
    "DATASET_NAMES",
    "SCENARIO_RECIPES",
    "DatasetSpec",
    "DatasetInstance",
    "load_dataset",
    "parse_scenario",
    "scenario_spec",
    "scenario_names",
    # Platform / workers
    "AnnotationEnvironment",
    "BudgetSchedule",
    "compute_budget",
    "WorkerPool",
    "WorkerProfile",
    "LearningWorker",
    "StaticWorker",
    # Behavior registry + contamination behaviors
    "register_behavior",
    "make_behavior",
    "behavior_names",
    "behavior_exists",
    "SpammerWorker",
    "AdversarialWorker",
    "FatigueWorker",
    "SleeperWorker",
    "DrifterWorker",
    # Serving layer
    "AnnotationService",
    "DriftConfig",
    "IncrementalDawidSkene",
    "OnlineMajorityVote",
    "QualificationPolicy",
    "QualificationTier",
    "QualityTracker",
    "ServingConfig",
    "ServingPool",
    "ServingReport",
    "make_router",
    "register_router",
    "router_exists",
    "router_names",
    # Marketplace orchestration
    "CampaignHandle",
    "CampaignPhase",
    "CampaignSpec",
    "ChurnConfig",
    "EventJournal",
    "Marketplace",
    "MarketplaceConfig",
    "MarketplaceOrchestrator",
    "MarketplaceReport",
    # Evaluation / configuration
    "compare_selectors",
    "evaluate_selector",
    "ground_truth_accuracy",
    "ExperimentConfig",
    "METHOD_LABELS",
    "METHOD_ORDER",
    "BENCHMARK_CONFIG",
]
