"""Post-selection serving layer: route working tasks to the selected pool.

The paper's pipeline ends when the top-``k`` workers are selected; this
package picks up from there and drives the annotation phase itself:

* :mod:`~repro.serving.qualification` — per-domain qualification tiers
  derived from CPE estimates, training history and historical profiles;
* :mod:`~repro.serving.pool` — the :class:`ServingPool` with per-worker
  concurrency caps, load accounting and the change-event bus every
  membership/qualification/load mutation flows through;
* :mod:`~repro.serving.index` — :class:`DomainIndexSet`, the per-(domain,
  tier) pre-sorted qualification rankings the indexed affinity engine
  routes against;
* :mod:`~repro.serving.routing` — the routing-policy registry
  (``round_robin``, ``least_loaded``, ``domain_affinity``; extend with
  :func:`register_router`);
* :mod:`~repro.serving.aggregation` — streaming majority vote and an
  incremental Dawid-Skene whose exact EM replay matches the batch
  aggregator;
* :mod:`~repro.serving.quality` — per-worker/per-domain EWMA drift
  detection that demotes qualifications and raises a re-selection signal;
* :mod:`~repro.serving.service` — :class:`AnnotationService`, the serving
  loop tying it all together (handed off from
  :meth:`repro.campaign.Campaign.serve`).
"""

from repro.serving.aggregation import IncrementalDawidSkene, OnlineMajorityVote
from repro.serving.index import DomainIndexSet
from repro.serving.pool import POOL_EVENT_HOOKS, ServingPool, ServingWorker, pool_event_noop
from repro.serving.qualification import (
    DomainQualification,
    QualificationPolicy,
    QualificationTier,
    affinity_rank_key,
)
from repro.serving.quality import DriftConfig, DriftEvent, QualityTracker
from repro.serving.routing import (
    BaseRouter,
    NoEligibleWorkersError,
    make_router,
    register_router,
    resolve_router_name,
    router_exists,
    router_names,
)
from repro.serving.service import (
    SERVING_SCHEMA_VERSION,
    AnnotationService,
    ServingConfig,
    ServingReport,
    TaskAssignment,
    working_task_stream,
)

__all__ = [
    "POOL_EVENT_HOOKS",
    "SERVING_SCHEMA_VERSION",
    "AnnotationService",
    "BaseRouter",
    "DomainIndexSet",
    "DomainQualification",
    "DriftConfig",
    "DriftEvent",
    "IncrementalDawidSkene",
    "NoEligibleWorkersError",
    "OnlineMajorityVote",
    "QualificationPolicy",
    "QualificationTier",
    "QualityTracker",
    "ServingConfig",
    "ServingPool",
    "ServingReport",
    "ServingWorker",
    "TaskAssignment",
    "affinity_rank_key",
    "make_router",
    "pool_event_noop",
    "register_router",
    "resolve_router_name",
    "router_exists",
    "router_names",
    "working_task_stream",
]
