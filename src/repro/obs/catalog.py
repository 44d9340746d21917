"""The static metric catalog: every metric the tree can emit, declared once.

This is the single source of truth behind ``repro-crowd metrics`` and the
README's metric table.  A test asserts that every name an instrumented
run actually registers appears here, so the catalog cannot silently
drift from the code.

``volatile`` marks metrics whose values depend on wall clock or on
execution shape (batch sizes, flush cadence) — they are excluded from
the default byte-stable snapshot.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

from repro.obs.naming import validate_label_names, validate_metric_name

#: Version stamp on the catalog listing payload.
CATALOG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MetricSpec:
    """One catalog row: identity, shape, and the module that emits it."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: Tuple[str, ...]
    module: str  # dotted module path of the emitting code
    volatile: bool = False

    def __post_init__(self) -> None:
        validate_metric_name(self.name)
        validate_label_names(self.labels)
        if self.kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {self.kind!r} for {self.name!r}")


METRIC_CATALOG: Tuple[MetricSpec, ...] = (
    # --- serving: routing (repro.serving.routing) ---------------------- #
    MetricSpec(
        name="serving.route.outcomes",
        kind="counter",
        help="route() calls by outcome: full quorum, short (fewer than requested), exhausted (no eligible worker)",
        labels=("router", "outcome"),
        module="repro.serving.routing",
    ),
    MetricSpec(
        name="serving.route.latency_seconds",
        kind="histogram",
        help="sampled wall-clock latency of route() calls",
        labels=("router",),
        module="repro.serving.routing",
        volatile=True,
    ),
    # --- serving: service (repro.serving.service) ---------------------- #
    MetricSpec(
        name="serving.tasks.submitted",
        kind="counter",
        help="tasks accepted by AnnotationService.submit()",
        labels=(),
        module="repro.serving.service",
    ),
    MetricSpec(
        name="serving.votes.requested",
        kind="counter",
        help="votes requested across submitted tasks (before budget clamping)",
        labels=(),
        module="repro.serving.service",
    ),
    MetricSpec(
        name="serving.votes.assigned",
        kind="counter",
        help="vote assignments actually routed to workers",
        labels=(),
        module="repro.serving.service",
    ),
    MetricSpec(
        name="serving.answers.recorded",
        kind="counter",
        help="worker answers ingested by record_answer()",
        labels=(),
        module="repro.serving.service",
    ),
    MetricSpec(
        name="serving.answers.agreement",
        kind="counter",
        help="per-answer agreement with the finalized task label",
        labels=("agreed",),
        module="repro.serving.service",
    ),
    MetricSpec(
        name="serving.tasks.finalized",
        kind="counter",
        help="tasks finalized with a label",
        labels=(),
        module="repro.serving.service",
    ),
    MetricSpec(
        name="serving.votes.invalidated",
        kind="counter",
        help="in-flight votes invalidated by worker departure/demotion",
        labels=(),
        module="repro.serving.service",
    ),
    MetricSpec(
        name="serving.votes.reassigned",
        kind="counter",
        help="invalidated votes successfully re-routed to replacement workers",
        labels=(),
        module="repro.serving.service",
    ),
    MetricSpec(
        name="serving.drift.demotions",
        kind="counter",
        help="drift-triggered qualification demotions applied by the service",
        labels=("domain",),
        module="repro.serving.service",
    ),
    MetricSpec(
        name="serving.serve.elapsed_seconds",
        kind="gauge",
        help="wall-clock duration of the last serve() run",
        labels=(),
        module="repro.serving.service",
        volatile=True,
    ),
    # --- serving: quality (repro.serving.quality) ---------------------- #
    MetricSpec(
        name="quality.observations",
        kind="counter",
        help="answer observations folded into EWMA quality state",
        labels=(),
        module="repro.serving.quality",
    ),
    MetricSpec(
        name="quality.drift.detections",
        kind="counter",
        help="drift events raised by the EWMA tracker",
        labels=("domain",),
        module="repro.serving.quality",
    ),
    # --- serving: aggregation (repro.serving.aggregation) -------------- #
    MetricSpec(
        name="aggregation.votes.ingested",
        kind="counter",
        help="votes ingested by streaming aggregators",
        labels=("aggregator",),
        module="repro.serving.aggregation",
    ),
    MetricSpec(
        name="aggregation.converge.runs",
        kind="counter",
        help="aggregator convergence runs by outcome",
        labels=("aggregator", "converged"),
        module="repro.serving.aggregation",
    ),
    MetricSpec(
        name="aggregation.converge.iterations",
        kind="histogram",
        help="EM iterations per convergence run",
        labels=("aggregator",),
        module="repro.serving.aggregation",
    ),
    # --- pool events (repro.obs.listener via POOL_EVENT_HOOKS) --------- #
    MetricSpec(
        name="pool.workers.added",
        kind="counter",
        help="workers added to the serving pool",
        labels=(),
        module="repro.obs.listener",
    ),
    MetricSpec(
        name="pool.workers.removed",
        kind="counter",
        help="workers removed from the serving pool",
        labels=(),
        module="repro.obs.listener",
    ),
    MetricSpec(
        name="pool.qualification.transitions",
        kind="counter",
        help="qualification tier transitions seen on the pool event bus",
        labels=("domain", "from_tier", "to_tier"),
        module="repro.obs.listener",
    ),
    MetricSpec(
        name="pool.load.events",
        kind="counter",
        help="load-change events (opt-in: TelemetryConfig.pool_load_events)",
        labels=(),
        module="repro.obs.listener",
    ),
    # --- marketplace (repro.marketplace.orchestrator) ------------------ #
    MetricSpec(
        name="marketplace.ticks",
        kind="counter",
        help="marketplace ticks executed",
        labels=(),
        module="repro.marketplace.orchestrator",
    ),
    MetricSpec(
        name="marketplace.arrivals.admitted",
        kind="counter",
        help="churn arrivals admitted into the marketplace",
        labels=(),
        module="repro.marketplace.orchestrator",
    ),
    MetricSpec(
        name="marketplace.arrivals.rejected",
        kind="counter",
        help="churn arrivals turned away by the prestudy qualification",
        labels=(),
        module="repro.marketplace.orchestrator",
    ),
    MetricSpec(
        name="marketplace.departures",
        kind="counter",
        help="workers departed from the marketplace",
        labels=(),
        module="repro.marketplace.orchestrator",
    ),
    MetricSpec(
        name="marketplace.invalidations",
        kind="counter",
        help="in-flight vote invalidations caused by departures",
        labels=(),
        module="repro.marketplace.orchestrator",
    ),
    MetricSpec(
        name="marketplace.campaign.events",
        kind="counter",
        help="per-campaign lifecycle events journaled each tick",
        labels=("type",),
        module="repro.marketplace.orchestrator",
    ),
    MetricSpec(
        name="marketplace.journal.events",
        kind="counter",
        help="events appended to the tick journal",
        labels=(),
        module="repro.marketplace.orchestrator",
    ),
    MetricSpec(
        name="marketplace.journal.flushes",
        kind="counter",
        help="journal flush batches (depends on tick_batch; excluded from stable snapshots)",
        labels=(),
        module="repro.marketplace.orchestrator",
        volatile=True,
    ),
    MetricSpec(
        name="marketplace.run.elapsed_seconds",
        kind="gauge",
        help="wall-clock duration of the last orchestrator run",
        labels=(),
        module="repro.marketplace.orchestrator",
        volatile=True,
    ),
)

#: name -> spec for quick membership checks.
CATALOG_BY_NAME: Dict[str, MetricSpec] = {spec.name: spec for spec in METRIC_CATALOG}

if len(CATALOG_BY_NAME) != len(METRIC_CATALOG):  # pragma: no cover - load-time guard
    raise RuntimeError("duplicate metric names in METRIC_CATALOG")


def catalog_rows() -> List[dict]:
    """Catalog as sorted JSON-ready rows (for the CLI and docs)."""
    return [asdict(CATALOG_BY_NAME[name]) for name in sorted(CATALOG_BY_NAME)]


def catalog_payload() -> dict:
    """Schema-versioned catalog listing payload."""
    rows = catalog_rows()
    for row in rows:
        row["labels"] = list(row["labels"])
    return {"schema_version": CATALOG_SCHEMA_VERSION, "metrics": rows}


def catalog_json() -> str:
    return json.dumps(catalog_payload(), sort_keys=True, indent=2)


__all__ = [
    "CATALOG_SCHEMA_VERSION",
    "MetricSpec",
    "METRIC_CATALOG",
    "CATALOG_BY_NAME",
    "catalog_rows",
    "catalog_payload",
    "catalog_json",
]
