"""The benchmark's own tests: every workload at a tiny size.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness
from perfbench.layers import LAYERS, per_layer_metrics
from perfbench.run import named_metrics
from perfbench.workloads import MarketWorkload, SelectWorkload, ServeWorkload

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Issue-named end-to-end metrics each workload prints besides the generic ones.
NAMED = {
    "select": {"campaigns_per_s", "round_ms_p50", "selected_accuracy", "precision_at_k"},
    "serve": {"tasks_per_s", "submit_us_p50", "submit_us_p90", "label_accuracy"},
    "market": {"ticks_per_s", "resume_s", "label_accuracy"},
}
COMMON_NAMED = {"setup_s", "peak_rss_mb", "ops", "ops_failed", "failed_ratio"}


def tiny(name: str, tmp_path: Path):
    if name == "select":
        return SelectWorkload(mix=("RW-1",))
    if name == "serve":
        return ServeWorkload(n_workers=300, n_tasks=300, window=40, warmup_per_domain=2)
    return MarketWorkload(tmp_path / "market", mix=("S-1", "S-2"), n_ticks=128)


WORKLOADS = ("select", "serve", "market")


def test_benchmark_json_lists_the_metrics_the_harness_emits():
    assert [m["name"] for m in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]} == set(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == per_layer_metrics()


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric_and_repeats_its_digest(name, tmp_path):
    first = harness.measure(tiny(name, tmp_path), seed=5, seconds=0, min_units=2)
    second = harness.measure(tiny(name, tmp_path), seed=5, seconds=0, min_units=2)
    assert first.correct and second.correct, first.checks
    assert first.failed == 0 and first.attempted > 0
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {key: unit for key, (_, unit) in first.metrics.items()} == units
    assert all(value > 0 for value, _ in first.metrics.values()), first.metrics
    assert first.digest == second.digest
    assert first.metrics["accuracy"] == second.metrics["accuracy"]
    printed = {row[0] for row in named_metrics(name, first)}
    assert NAMED[name] | COMMON_NAMED <= printed


def test_a_different_seed_gives_different_inputs(tmp_path):
    one = harness.measure(tiny("serve", tmp_path), seed=1, seconds=0, min_units=1)
    two = harness.measure(tiny("serve", tmp_path), seed=2, seconds=0, min_units=1)
    assert one.digest != two.digest


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_spans_nest(name, tmp_path):
    spans_path = tmp_path / "spans.npz"
    outcome, tracer = harness.measure_traced(tiny(name, tmp_path), seed=3, seconds=0, spans_path=spans_path, min_units=1)
    assert outcome.correct, outcome.checks
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {key: unit for key, (_, unit) in outcome.metrics.items()} == units

    spans = tracer.arrays()
    assert len(spans["start"]) > 0
    nested = spans["parent"] >= 0
    parents = spans["parent"][nested]
    assert np.all(spans["start"][parents] <= spans["start"][nested])
    assert np.all(spans["end"][nested] <= spans["end"][parents])
    assert np.all(spans["self"] >= -1e-9)
    metrics = {key: value for key, (value, _) in outcome.metrics.items()}
    assert 0.0 < metrics["trace.covered_share"] <= 1.0
    layer_shares = sum(metrics[f"{layer.name}.share"] for layer in LAYERS)
    assert layer_shares <= metrics["trace.covered_share"] + 1e-9
    with np.load(spans_path) as saved:
        assert len(saved["start"]) == len(spans["start"])


def test_traced_run_touches_the_layers_each_workload_loads(tmp_path):
    def calls(name):
        outcome, _ = harness.measure_traced(tiny(name, tmp_path), seed=3, seconds=0, min_units=1)
        return {key: value for key, (value, _) in outcome.metrics.items()}

    select, serve, market = calls("select"), calls("serve"), calls("market")
    assert select["core.lge.fit_worker.calls"] > 0 and select["serving.service.submit.calls"] == 0
    assert serve["serving.routing.route.calls"] > 0 and serve["core.cpe.update.calls"] == 0
    assert serve["serving.aggregation.dawid_skene.add.calls"] > 0
    assert market["marketplace.orchestrator.answer.calls"] > 0 and market["core.lge.estimate.calls"] == 0
    assert market["marketplace.journal.append_bytes"] > 0


def test_tracer_restores_the_wrapped_classes(tmp_path):
    from repro.campaign import Campaign
    from repro.serving.index import DomainIndexSet
    from repro.serving.pool import ServingPool
    from repro.serving.routing import BaseRouter

    def attributes():
        return (
            ServingPool.__dict__["begin_assignment"],
            BaseRouter.__dict__["route"],
            DomainIndexSet.__dict__["iter_tier"],
            Campaign.__dict__["from_state_dict"],
        )

    before = attributes()
    harness.measure_traced(tiny("serve", tmp_path), seed=3, seconds=0, min_units=1)
    assert attributes() == before


def test_runs_fail_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
