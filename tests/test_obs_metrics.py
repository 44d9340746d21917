"""Unit tests for the deterministic telemetry core (repro.obs)."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    CATALOG_BY_NAME,
    METRIC_CATALOG,
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    Telemetry,
    TraceRecorder,
    create_telemetry,
    metric_name,
    validate_metric_name,
)
from repro.obs.catalog import CATALOG_SCHEMA_VERSION, catalog_json, catalog_payload
from repro.obs.naming import validate_label_names
from repro.obs.tracing import TRACE_SCHEMA_VERSION


class TestNaming:
    def test_valid_names_pass(self):
        for name in ("serving.tasks.submitted", "a.b", "pool.load_factor.p99"):
            assert validate_metric_name(name) == name

    @pytest.mark.parametrize(
        "bad",
        ["", "single", "Upper.case", "a..b", ".a.b", "a.b.", "a b.c", "9a.b", "a.-b"],
    )
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_metric_name(bad)

    def test_metric_name_composes(self):
        assert metric_name("serving", "route", "outcomes") == "serving.route.outcomes"

    def test_metric_name_needs_two_segments(self):
        with pytest.raises(ValueError):
            metric_name("serving")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            validate_label_names(("domain", "domain"))


class TestMetricsRegistry:
    def test_counter_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("unit.hits", "hits")
        counter.inc()
        counter.inc(3)
        (sample,) = registry.snapshot()["metrics"][0]["samples"]
        assert sample["value"] == 4

    def test_labeled_children_are_cached(self):
        registry = MetricsRegistry()
        family = registry.counter("unit.outcomes", "outcomes", ("outcome",))
        assert family.labels("ok") is family.labels("ok")
        family.labels("ok").inc()
        family.labels("err").inc(2)
        samples = registry.snapshot()["metrics"][0]["samples"]
        assert [(s["labels"], s["value"]) for s in samples] == [
            ({"outcome": "err"}, 2),
            ({"outcome": "ok"}, 1),
        ]

    def test_untouched_label_less_family_has_no_series(self):
        registry = MetricsRegistry()
        registry.counter("unit.hits", "hits").inc()
        registry.counter("unit.untouched", "never incremented")
        samples = {metric["name"]: metric["samples"] for metric in registry.snapshot()["metrics"]}
        assert samples["unit.untouched"] == []
        assert [sample["value"] for sample in samples["unit.hits"]] == [1]

    def test_labelled_family_rejects_label_less_calls(self):
        family = MetricsRegistry().counter("unit.outcomes", "outcomes", ("outcome",))
        for _ in range(2):  # the failed lookup caches nothing
            with pytest.raises(ValueError):
                family.inc()

    def test_gauge_set_and_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("unit.depth", "depth")
        gauge.set(10.0)
        gauge.dec(2.5)
        (sample,) = registry.snapshot()["metrics"][0]["samples"]
        assert sample["value"] == 7.5

    def test_histogram_buckets_le_semantics(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("unit.sizes", "sizes", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        (sample,) = registry.snapshot()["metrics"][0]["samples"]
        assert [bucket["count"] for bucket in sample["buckets"]] == [2, 1, 1]
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(106.5)

    def test_redeclaration_same_shape_returns_existing(self):
        registry = MetricsRegistry()
        first = registry.counter("unit.hits", "hits")
        assert registry.counter("unit.hits", "hits") is first

    def test_redeclaration_different_shape_raises(self):
        registry = MetricsRegistry()
        registry.counter("unit.hits", "hits")
        with pytest.raises(ValueError):
            registry.counter("unit.hits", "hits", ("domain",))
        with pytest.raises(ValueError):
            registry.gauge("unit.hits", "hits")

    def test_invalid_name_rejected_at_registration(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("NotValid", "nope")

    def test_snapshot_bytes_are_order_independent(self):
        def build(order):
            registry = MetricsRegistry()
            declared = {}
            for name in order:
                declared[name] = registry.counter(name, f"help for {name}", ("side",))
            declared["unit.beta"].labels("r").inc(2)
            declared["unit.alpha"].labels("l").inc()
            declared["unit.gamma"].labels("l").inc(5)
            return registry.snapshot_json()

        forward = build(["unit.alpha", "unit.beta", "unit.gamma"])
        reversed_ = build(["unit.gamma", "unit.beta", "unit.alpha"])
        assert forward == reversed_
        payload = json.loads(forward)
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION
        names = [metric["name"] for metric in payload["metrics"]]
        assert names == sorted(names)

    def test_volatile_metrics_excluded_from_default_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("unit.stable", "stable").inc()
        registry.gauge("unit.wall_seconds", "wall", volatile=True).set(1.25)
        default_names = [m["name"] for m in registry.snapshot()["metrics"]]
        full_names = [m["name"] for m in registry.snapshot(include_volatile=True)["metrics"]]
        assert default_names == ["unit.stable"]
        assert full_names == ["unit.stable", "unit.wall_seconds"]

    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("unit.hits", "total hits", ("side",)).labels("l").inc(3)
        registry.histogram("unit.sizes", "sizes", bounds=(1.0,)).observe(0.5)
        text = registry.exposition()
        assert "# HELP unit_hits total hits" in text
        assert "# TYPE unit_hits counter" in text
        assert 'unit_hits{side="l"} 3' in text
        assert 'unit_sizes_bucket{le="+inf"} 1' in text
        assert "unit_sizes_count 1" in text


class TestCatalogDeclaration:
    def test_metric_takes_its_shape_from_the_catalog(self):
        registry = MetricsRegistry()
        for spec in METRIC_CATALOG:
            metric = registry.metric(spec.name)
            assert (metric.kind, metric.help, metric.label_names, metric.volatile) == (
                spec.kind,
                spec.help,
                spec.labels,
                spec.volatile,
            )
            if spec.bounds is not None:
                assert metric.bounds == spec.bounds
        # Re-declaring by name returns the family declared first.
        assert registry.metric("serving.route.outcomes") is registry.get("serving.route.outcomes")
        assert registry.names() == sorted(CATALOG_BY_NAME)

    def test_unknown_name_raises_key_error_naming_the_catalog(self):
        with pytest.raises(KeyError, match="METRIC_CATALOG"):
            MetricsRegistry().metric("unit.not_catalogued")


class TestTelemetryBundle:
    def test_enabled_bundle(self):
        telemetry = create_telemetry(trace=True)
        assert isinstance(telemetry, Telemetry)
        assert telemetry.tracer is not None


class TestTraceRecorder:
    def test_events_and_spans_use_logical_clock(self):
        tracer = TraceRecorder()
        tracer.event("route", tick=3, task="t1", worker="w1", outcome="full")
        with tracer.span("aggregate", tick=3, task="t1", worker=None):
            tracer.event("vote", tick=3, task="t1", worker="w2")
        payload = tracer.snapshot()
        assert payload["schema_version"] == TRACE_SCHEMA_VERSION
        names = [span["name"] for span in payload["spans"]]
        assert names == ["route", "aggregate", "vote"]
        aggregate = payload["spans"][1]
        assert aggregate["tick"] == 3 and aggregate["task"] == "t1"
        assert aggregate["seq"] < aggregate["seq_end"]

    def test_snapshot_json_is_stable(self):
        def build():
            tracer = TraceRecorder()
            tracer.event("a", tick=0, task="t", worker="w", zeta=1, alpha=2)
            return tracer.snapshot_json()

        assert build() == build()

    def test_clear(self):
        tracer = TraceRecorder()
        tracer.event("a", tick=0, task=None, worker=None)
        tracer.clear()
        assert tracer.spans() == []


class TestCatalog:
    def test_catalog_names_are_unique_and_valid(self):
        names = [spec.name for spec in METRIC_CATALOG]
        assert len(names) == len(set(names))
        for name in names:
            validate_metric_name(name)

    def test_catalog_payload_schema(self):
        payload = catalog_payload()
        assert payload["schema_version"] == CATALOG_SCHEMA_VERSION
        assert len(payload["metrics"]) == len(METRIC_CATALOG)
        listed = [row["name"] for row in payload["metrics"]]
        assert listed == sorted(listed)

    def test_catalog_json_round_trips(self):
        assert json.loads(catalog_json())["schema_version"] == CATALOG_SCHEMA_VERSION

    def test_known_metrics_present(self):
        for name in (
            "serving.route.outcomes",
            "pool.qualification.transitions",
            "marketplace.journal.flushes",
        ):
            assert name in CATALOG_BY_NAME
