"""Worker behaviour substrate.

The paper's algorithms never see a worker's true (latent) target-domain
accuracy — they only observe answers to learning tasks plus the historical
profile.  This package provides the simulated workers that generate those
observations:

* :mod:`repro.workers.profile` — the ``(h_i, n_i)`` historical profile of
  Definition 2;
* :mod:`repro.workers.behavior` — answer-generating behaviour models: the
  paper's static and learning workers plus the contamination behaviours
  (spammer, adversarial, fatigue, sleeper, drifter) that stress-test
  selection against realistic crowd pools;
* :mod:`repro.workers.registry` — ``@register_behavior`` / ``make_behavior``:
  construct any behaviour by name (a shared :class:`~repro.registry.Registry`);
* :mod:`repro.workers.population` — samplers that draw whole worker
  populations from a truncated multivariate normal over per-domain
  accuracies (Section V-A), optionally contaminated via a behaviour mix;
* :mod:`repro.workers.pool` — the worker pool container used by the
  platform and the selection algorithms.
"""

from repro.workers.behavior import (
    AdversarialWorker,
    DrifterWorker,
    FatigueWorker,
    LearningWorker,
    SleeperWorker,
    SpammerWorker,
    StaticWorker,
    WorkerBehavior,
)
from repro.workers.pool import WorkerPool
from repro.workers.population import PopulationConfig, sample_learning_population
from repro.workers.profile import WorkerProfile
from repro.workers.registry import (
    behavior_exists,
    behavior_names,
    describe_behavior,
    make_behavior,
    register_behavior,
    resolve_behavior_name,
)

__all__ = [
    "WorkerProfile",
    "WorkerBehavior",
    "StaticWorker",
    "LearningWorker",
    "SpammerWorker",
    "AdversarialWorker",
    "FatigueWorker",
    "SleeperWorker",
    "DrifterWorker",
    "WorkerPool",
    "PopulationConfig",
    "sample_learning_population",
    "register_behavior",
    "make_behavior",
    "behavior_names",
    "behavior_exists",
    "resolve_behavior_name",
    "describe_behavior",
]
