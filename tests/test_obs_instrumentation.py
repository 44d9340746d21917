"""End-to-end telemetry tests: instrumented runs stay deterministic and inert.

Three invariants from the observability contract:

* metrics snapshots are byte-identical across repeated runs of one
  ``(seed, policy)`` and across any ``tick_batch``;
* telemetry never changes a run's outputs — serving traces and
  marketplace journals are byte-identical with telemetry on or off;
* everything an instrumented run registers is declared in the catalog.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from repro.marketplace.lifecycle import CampaignSpec
from repro.marketplace.orchestrator import MarketplaceOrchestrator
from repro.obs import CATALOG_BY_NAME, MetricsRegistry, PoolMetricsListener, create_telemetry
from repro.obs.metrics import Metric
from repro.serving.pool import ServingPool, ServingWorker
from repro.serving.qualification import DomainQualification, QualificationTier
from repro.serving.service import AnnotationService, ServingConfig

DOMAIN = "target"


def _pool(n=6, max_concurrent=8):
    workers = []
    for index in range(n):
        worker_id = f"w{index}"
        workers.append(
            ServingWorker(
                worker_id=worker_id,
                qualifications={
                    DOMAIN: DomainQualification(
                        worker_id, DOMAIN, 0.9 - 0.05 * index, 20, QualificationTier.QUALIFIED
                    )
                },
                max_concurrent=max_concurrent,
            )
        )
    return ServingPool(workers)


def _tasks(n=30):
    from repro.platform.tasks import Task, TaskKind

    return [
        Task(task_id=f"t{index:04d}", domain=DOMAIN, kind=TaskKind.WORKING, gold_label=index % 2 == 0)
        for index in range(n)
    ]


def _oracle(worker_id, task):
    # w1 always disagrees with gold; everyone else agrees — deterministic,
    # and it exercises both sides of the agreement counter.
    return (not task.gold_label) if worker_id == "w1" else task.gold_label


def _serve(telemetry):
    service = AnnotationService(
        _pool(),
        ServingConfig(router="least_loaded", votes_per_task=3, aggregator="majority"),
        answer_oracle=_oracle,
        telemetry=telemetry,
    )
    return service.serve(_tasks())


class TestServingInstrumentation:
    def test_snapshots_byte_identical_across_runs(self):
        first = create_telemetry()
        second = create_telemetry()
        _serve(first)
        _serve(second)
        assert first.snapshot_json() == second.snapshot_json()

    def test_snapshot_bytes_are_pinned(self):
        # How a family resolves its children is an internal matter: the
        # bytes of this run's snapshot must not move with it.
        telemetry = create_telemetry()
        _serve(telemetry)
        digest = hashlib.sha256(telemetry.snapshot_json().encode("utf-8")).hexdigest()
        assert digest == "a4c23e20f7d31357aa094c1ecfa9ec30f4fb92df38c3fcdb46975c83bc31ca2a"

    def test_label_less_families_resolve_their_child_once(self, monkeypatch):
        calls = Counter()
        labels = Metric.labels

        def counting_labels(metric, *values):
            calls[metric.name] += 1
            return labels(metric, *values)

        monkeypatch.setattr(Metric, "labels", counting_labels)
        telemetry = create_telemetry()
        report = _serve(telemetry)
        label_less = {
            name
            for name in telemetry.registry.names()
            if not telemetry.registry.get(name).label_names
        }
        # Touched once or many times, a family resolves its child once;
        # an untouched one never does.
        assert report.n_answers > 1
        assert calls["serving.answers.recorded"] == 1
        assert all(calls[name] <= 1 for name in label_less)

    def test_telemetry_does_not_change_the_trace(self):
        plain = _serve(None)
        telemetry = create_telemetry()
        observed = _serve(telemetry)
        encode = lambda report: json.dumps(report.trace_dict(), sort_keys=True)  # noqa: E731
        assert encode(plain) == encode(observed)

    def test_counters_match_the_report(self):
        telemetry = create_telemetry()
        report = _serve(telemetry)
        payload = json.loads(telemetry.snapshot_json())
        values = {
            metric["name"]: metric["samples"]
            for metric in payload["metrics"]
            if metric["samples"]
        }
        assert values["serving.tasks.submitted"][0]["value"] == report.n_tasks_routed
        assert values["serving.answers.recorded"][0]["value"] == report.n_answers
        assert values["serving.tasks.finalized"][0]["value"] == len(report.labels)
        agreement = {
            sample["labels"]["agreed"]: sample["value"]
            for sample in values["serving.answers.agreement"]
        }
        assert agreement["false"] > 0 and agreement["true"] > 0
        assert agreement["false"] + agreement["true"] == report.n_answers
        outcomes = values["serving.route.outcomes"]
        assert sum(sample["value"] for sample in outcomes) == report.n_tasks_routed

    def test_every_registered_metric_is_in_the_catalog(self):
        telemetry = create_telemetry()
        _serve(telemetry)
        payload = telemetry.registry.snapshot(include_volatile=True)
        for metric in payload["metrics"]:
            assert metric["name"] in CATALOG_BY_NAME, metric["name"]
            spec = CATALOG_BY_NAME[metric["name"]]
            shape = (metric["kind"], metric["help"], tuple(metric["labels"]), metric["volatile"])
            assert shape == (spec.kind, spec.help, spec.labels, spec.volatile), metric["name"]


class TestPoolListener:
    def test_add_remove_and_demotion_counted(self):
        registry = MetricsRegistry()
        pool = _pool(n=3)
        PoolMetricsListener(registry).attach(pool)
        extra = ServingWorker(
            worker_id="w9",
            qualifications={
                DOMAIN: DomainQualification("w9", DOMAIN, 0.8, 20, QualificationTier.QUALIFIED)
            },
        )
        pool.add_worker(extra)
        pool.remove_worker("w0")
        pool.demote("w9", DOMAIN)
        payload = registry.snapshot()
        values = {metric["name"]: metric["samples"] for metric in payload["metrics"]}
        assert values["pool.workers.added"][0]["value"] == 1
        assert values["pool.workers.removed"][0]["value"] == 1
        (transition,) = values["pool.qualification.transitions"]
        assert transition["labels"] == {
            "domain": DOMAIN,
            "from_tier": "qualified",
            "to_tier": "fallback",
        }
        assert transition["value"] == 1

    def test_estimate_only_requalification_is_not_a_transition(self):
        registry = MetricsRegistry()
        pool = _pool(n=2)
        PoolMetricsListener(registry).attach(pool)
        worker = pool["w0"]
        # Same tier, new estimate: the pool hears it, but the tier held.
        worker.set_qualification(
            DOMAIN, DomainQualification("w0", DOMAIN, 0.7, 40, QualificationTier.QUALIFIED)
        )
        values = {metric["name"]: metric["samples"] for metric in registry.snapshot()["metrics"]}
        assert values.get("pool.qualification.transitions", []) == []
        # The tier cache still follows the change: the next real move is
        # labelled from the current tier.
        worker.set_qualification(
            DOMAIN, DomainQualification("w0", DOMAIN, 0.4, 40, QualificationTier.FALLBACK)
        )
        values = {metric["name"]: metric["samples"] for metric in registry.snapshot()["metrics"]}
        (transition,) = values["pool.qualification.transitions"]
        assert transition["labels"] == {"domain": DOMAIN, "from_tier": "qualified", "to_tier": "fallback"}
        assert transition["value"] == 1


class TestMarketplaceInstrumentation:
    @staticmethod
    def _run(tmp_path, name, telemetry, tick_batch):
        journal = tmp_path / f"{name}.jsonl"
        orchestrator = MarketplaceOrchestrator(
            [CampaignSpec(name="c0", dataset="S-1", k=6)],
            journal_path=journal,
            seed=3,
            telemetry=telemetry,
        )
        orchestrator.run(12, tick_batch=tick_batch)
        return journal.read_bytes()

    def test_snapshots_identical_across_tick_batch(self, tmp_path):
        snapshots = []
        for batch in (1, 7, 64):
            telemetry = create_telemetry()
            self._run(tmp_path, f"batch{batch}", telemetry, batch)
            snapshots.append(telemetry.snapshot_json())
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_snapshot_bytes_are_pinned(self, tmp_path):
        # Where a family's shape is declared is an internal matter: the
        # bytes of this run's snapshot must not move with it.
        telemetry = create_telemetry()
        self._run(tmp_path, "pinned", telemetry, 8)
        digest = hashlib.sha256(telemetry.snapshot_json().encode("utf-8")).hexdigest()
        assert digest == "c58ef2d5f23ffa1cf2e08d52e6f3d96cfd91273f25bb314331cdd0a8fcac626d"

    def test_default_run_registers_exactly_the_catalog(self, tmp_path):
        # No dead catalog rows: a default telemetry-on run declares every
        # catalogued family (volatile ones included) and nothing else.
        telemetry = create_telemetry()
        self._run(tmp_path, "catalog", telemetry, 8)
        assert set(telemetry.registry.names()) == set(CATALOG_BY_NAME)

    def test_journal_bytes_identical_with_and_without_telemetry(self, tmp_path):
        plain = self._run(tmp_path, "plain", None, 8)
        observed = self._run(tmp_path, "observed", create_telemetry(), 8)
        assert plain == observed

    def test_marketplace_metrics_in_catalog_and_consistent(self, tmp_path):
        telemetry = create_telemetry()
        self._run(tmp_path, "consistency", telemetry, 8)
        payload = telemetry.registry.snapshot(include_volatile=True)
        values = {metric["name"]: metric["samples"] for metric in payload["metrics"]}
        for name in values:
            assert name in CATALOG_BY_NAME, name
        assert values["marketplace.ticks"][0]["value"] == 12
        assert values["marketplace.journal.events"][0]["value"] == 12
        campaign_events = sum(s["value"] for s in values["marketplace.campaign.events"])
        assert campaign_events == 12  # one campaign stepping once per tick
