"""Tests for the observability layer (repro.obs): metrics registry and
the invariant auditor."""

import ast
import json
import os

import pytest

from repro.energy.trace import CurrentTrace, TraceSegment
from repro.obs import (
    MetricsError,
    MetricsRegistry,
    audit_scenario,
    audit_trace,
)
from repro.scenarios import run_wile
from repro.scenarios.base import emit_scenario_metrics


class TestCounter:
    def test_increment(self):
        registry = MetricsRegistry()
        counter = registry.counter("frames")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_negative_increment_rejected(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter("frames").inc(-1)

    def test_label_sets_are_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("frames", layer="mac").inc()
        registry.counter("frames", layer="higher").inc(2)
        assert registry.counter("frames", layer="mac").value == 1
        assert registry.counter("frames", layer="higher").value == 2
        assert len(registry) == 2

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("x", a="1", b="2").inc()
        assert registry.counter("x", b="2", a="1").value == 1


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("current_a")
        gauge.set(0.5)
        gauge.add(-0.2)
        assert gauge.value == pytest.approx(0.3)

    def test_non_finite_rejected(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().gauge("x").set(float("nan"))


class TestHistogram:
    def test_summary_statistics(self):
        histogram = MetricsRegistry().histogram("duration_s")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(6.0)
        assert histogram.mean == pytest.approx(2.0)
        assert histogram.min == 1.0 and histogram.max == 3.0

    def test_empty_histogram_snapshot(self):
        record = MetricsRegistry().histogram("x").snapshot()
        assert record["count"] == 0
        assert record["min"] is None and record["max"] is None


class TestRegistry:
    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError):
            registry.gauge("x")

    def test_empty_name_rejected(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter("")

    def test_get_returns_none_for_missing(self):
        assert MetricsRegistry().get("nope") is None

    def test_snapshot_is_sorted_and_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.gauge("a", scenario="X").set(1.0)
        registry.histogram("c").observe(2.0)
        records = registry.snapshot()
        assert [record["name"] for record in records] == ["a", "b", "c"]
        for record in records:
            json.dumps(record)  # must not raise

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.clear()
        assert len(registry) == 0


def good_trace():
    trace = CurrentTrace()
    trace.append(1.0, 1e-6, "sleep")
    trace.append(0.2, 0.080, "tx")
    trace.append(1.0, 1e-6, "sleep")
    return trace


class TestAuditTrace:
    def test_clean_trace_passes(self):
        report = audit_trace(good_trace(), sample_rate_hz=10_000.0)
        assert report.ok
        assert report.checks >= 4

    def test_idle_gap_is_benign(self):
        trace = CurrentTrace()
        trace.add_segment(0.0, 1.0, 1e-6, "sleep")
        trace.add_segment(2.0, 1.0, 1e-6, "sleep")
        report = audit_trace(trace, sample_rate_hz=None)
        assert report.ok

    def test_active_gap_is_flagged(self):
        trace = CurrentTrace()
        trace.add_segment(0.0, 1.0, 0.08, "tx")
        trace.add_segment(2.0, 1.0, 0.08, "tx")
        report = audit_trace(trace, sample_rate_hz=None)
        assert not report.ok
        assert any(finding.invariant == "active-gaps"
                   for finding in report.findings)

    def test_corrupted_overlapping_segments_fail(self):
        trace = good_trace()
        # Corrupt the timeline behind the constructor's back, the way a
        # buggy builder would.
        trace._segments[1] = TraceSegment(0.5, 0.7, 0.080, "tx")
        report = audit_trace(trace, sample_rate_hz=None)
        assert not report.ok
        assert any(finding.invariant == "monotonic-times"
                   for finding in report.findings)

    def test_corrupted_label_accounting_fails_conservation(self):
        class BrokenTrace(CurrentTrace):
            """Drops a label from the per-phase accounting."""
            def charge_by_label(self):
                totals = super().charge_by_label()
                totals.pop("tx")
                return totals

        trace = BrokenTrace()
        trace.append(1.0, 1e-6, "sleep")
        trace.append(0.2, 0.080, "tx")
        report = audit_trace(trace, sample_rate_hz=None)
        assert not report.ok
        assert any(finding.invariant == "charge-conservation"
                   for finding in report.findings)

    def test_corrupted_sampling_fails_consistency(self):
        class BrokenSampling(CurrentTrace):
            """Returns zeros from the multimeter resampling path."""
            def sample(self, rate_hz, t0_s=None, t1_s=None):
                times, currents = super().sample(rate_hz, t0_s, t1_s)
                return times, currents * 0.0

        trace = BrokenSampling()
        trace.append(1.0, 1e-6, "sleep")
        trace.append(0.2, 0.080, "tx")
        report = audit_trace(trace, sample_rate_hz=10_000.0)
        assert not report.ok
        assert any(finding.invariant == "sampling-consistency"
                   for finding in report.findings)

    def test_render_mentions_failures(self):
        trace = CurrentTrace()
        trace.add_segment(0.0, 1.0, 0.08, "tx")
        trace.add_segment(2.0, 1.0, 0.08, "tx")
        text = audit_trace(trace, subject="bad", sample_rate_hz=None).render()
        assert "FAIL" in text and "bad" in text


class TestAuditScenario:
    def test_real_scenario_passes(self):
        result = run_wile()
        report = audit_scenario(result)
        assert report.ok, report.render()

    def test_charge_conservation_within_1e9_relative(self):
        result = run_wile()
        report = audit_scenario(result, rel_tol=1e-9)
        assert report.ok, report.render()


class TestScenarioMetricsEmission:
    def test_run_emits_into_registry(self):
        registry = MetricsRegistry()
        emit_scenario_metrics(run_wile(), registry)
        assert registry.counter("scenario.runs", scenario="Wi-LE").value == 1
        energy = registry.gauge("scenario.energy_per_packet_j",
                                scenario="Wi-LE").value
        assert energy > 0
        charge = registry.gauge("scenario.trace.charge_c",
                                scenario="Wi-LE").value
        by_label = [record for record in registry.snapshot()
                    if record["name"] == "scenario.trace.charge_by_label_c"]
        assert sum(record["value"] for record in by_label) == \
            pytest.approx(charge, rel=1e-12)


def _record_input(registry, value):
    """What one pooled input records: a counter, a gauge and a
    histogram of its own."""
    registry.counter("frames", layer="mac").inc(value)
    registry.gauge("last_value").set(value)
    registry.histogram("duration_s", input=str(value)).observe(value / 8)
    registry.histogram("duration_s", input=str(value)).observe(value / 3)
    registry.histogram("empty")


class TestRegistryMerge:
    def test_merged_snapshots_match_the_serial_registry(self):
        serial = MetricsRegistry()
        serial.counter("frames", layer="mac").inc(2)
        merged = MetricsRegistry()
        merged.counter("frames", layer="mac").inc(2)
        for value in (3, 1, 7):
            _record_input(serial, value)
            worker = MetricsRegistry()
            _record_input(worker, value)
            merged.merge(worker.snapshot())
        assert merged.snapshot() == serial.snapshot()
        assert merged.counter("frames", layer="mac").value == 13
        assert merged.gauge("last_value").value == 7

    def test_histograms_add_count_and_sum_and_widen_min_max(self):
        merged = MetricsRegistry()
        merged.histogram("h").observe(2.0)
        worker = MetricsRegistry()
        for value in (5.0, 0.5):
            worker.histogram("h").observe(value)
        merged.merge(worker.snapshot())
        merged.merge(MetricsRegistry().snapshot())
        record = merged.histogram("h").snapshot()
        assert (record["count"], record["sum"]) == (3, 7.5)
        assert (record["min"], record["max"]) == (0.5, 5.0)

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("x")
        worker = MetricsRegistry()
        worker.counter("x").inc()
        with pytest.raises(MetricsError):
            registry.merge(worker.snapshot())


def _metric_names(path):
    """The first argument of every ``.counter(``, ``.gauge(`` and
    ``.histogram(`` call in ``path``, as ``(name, line)``; ``None`` for
    a name that is not a string literal."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("counter", "gauge", "histogram"):
            first = node.args[0]
            literal = (isinstance(first, ast.Constant)
                       and isinstance(first.value, str))
            yield (first.value if literal else None), node.lineno


def test_every_metric_name_is_dotted():
    """One naming scheme: ``<package>[.<module>].<noun>``, no
    ``_total`` suffix (the record's type already says counter)."""
    source = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src", "repro")
    names = set()
    bad = []
    for directory, _dirs, files in os.walk(source):
        for filename in files:
            path = os.path.join(directory, filename)
            # The registry's own merge passes recorded names through.
            if not filename.endswith(".py") or os.path.relpath(
                    path, source) == os.path.join("obs", "metrics.py"):
                continue
            for name, line in _metric_names(path):
                where = f"{os.path.relpath(path, source)}:{line}"
                if name is None:
                    bad.append(f"{where}: name is not a literal")
                elif "." not in name or name.endswith("_total"):
                    bad.append(f"{where}: {name}")
                else:
                    names.add(name)
    assert bad == []
    assert {"mac.station.frames_tx", "scenario.runs", "check.runs",
            "service.ingested", "fleet.kernel.demotions",
            "runner.pool_breaks", "store.checkpoint_corrupt"} <= names
