"""Tests for CSV artifact export and the evaluation CLI."""

import csv
import os
import subprocess
import sys

import pytest

from repro.experiments.__main__ import EXPERIMENTS
from repro.experiments.artifacts import (
    ArtifactError,
    export_all,
    write_figure4_csv,
    write_table1_csv,
    write_trace_csv,
    write_trace_segments_csv,
)
from repro.scenarios import run_all_scenarios


@pytest.fixture(scope="module")
def results():
    return run_all_scenarios()


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestTable1Csv:
    def test_schema_and_rows(self, results, tmp_path):
        artifact = write_table1_csv(str(tmp_path / "t1.csv"), results)
        rows = read_csv(artifact.path)
        assert rows[0] == ["scenario", "energy_per_packet_j", "paper_energy_j",
                           "idle_current_a", "paper_idle_a"]
        assert len(rows) == 7
        assert artifact.rows == 6
        # Extension rows have no paper targets: empty cells, not crashes.
        by_name = {row[0]: row for row in rows[1:]}
        for name in ("WUR", "Batteryless"):
            assert by_name[name][2] == ""
            assert by_name[name][4] == ""

    def test_values_parse_back(self, results, tmp_path):
        artifact = write_table1_csv(str(tmp_path / "t1.csv"), results)
        rows = read_csv(artifact.path)[1:]
        by_name = {row[0]: float(row[1]) for row in rows}
        assert by_name["Wi-LE"] == pytest.approx(84e-6, rel=0.01)
        assert by_name["WiFi-DC"] == pytest.approx(238.2e-3, rel=0.01)


class TestFigure4Csv:
    def test_long_format(self, results, tmp_path):
        artifact = write_figure4_csv(str(tmp_path / "f4.csv"), results)
        rows = read_csv(artifact.path)
        assert rows[0] == ["scenario", "interval_s", "average_power_w"]
        scenarios = {row[0] for row in rows[1:]}
        assert scenarios == {"Wi-LE", "BLE", "WiFi-DC", "WiFi-PS",
                             "WUR", "Batteryless"}
        assert artifact.rows == len(rows) - 1

    def test_power_column_monotone_per_scenario(self, results, tmp_path):
        artifact = write_figure4_csv(str(tmp_path / "f4.csv"), results)
        rows = read_csv(artifact.path)[1:]
        for name in ("Wi-LE", "WiFi-DC"):
            powers = [float(row[2]) for row in rows if row[0] == name]
            assert powers == sorted(powers, reverse=True)


class TestTraceCsv:
    def test_sampled_trace(self, results, tmp_path):
        artifact = write_trace_csv(str(tmp_path / "trace.csv"),
                                   results["Wi-LE"].trace,
                                   sample_rate_hz=10_000.0)
        rows = read_csv(artifact.path)
        assert rows[0] == ["time_s", "current_a"]
        assert artifact.rows > 5000

    def test_segments_lossless(self, results, tmp_path):
        trace = results["Wi-LE"].trace
        artifact = write_trace_segments_csv(str(tmp_path / "seg.csv"), trace)
        rows = read_csv(artifact.path)[1:]
        assert len(rows) == len(trace)
        total = sum(float(row[1]) * float(row[2]) for row in rows)
        assert total == pytest.approx(trace.charge_c(), rel=1e-6)

    def test_missing_trace_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            write_trace_csv(str(tmp_path / "x.csv"), None)


class TestExportAll:
    def test_full_set(self, results, tmp_path):
        outcomes = [(experiment, experiment.run(results, 1))
                    for experiment in EXPERIMENTS
                    if experiment.quick or experiment.name == "multi_device"]
        artifacts = export_all(str(tmp_path / "artifacts"), outcomes)
        names = {os.path.basename(artifact.path) for artifact in artifacts}
        assert names == {"table1.csv", "figure4.csv", "figure3a_wifi.csv",
                         "figure3b_wile.csv", "figure3a_wifi_segments.csv",
                         "figure3b_wile_segments.csv",
                         "multi_device_rounds.csv", "metrics.jsonl"}
        for artifact in artifacts:
            assert os.path.exists(artifact.path)
            assert artifact.rows > 0


class TestMetricsJsonl:
    def test_one_json_record_per_line(self, tmp_path):
        import json
        from repro.experiments.artifacts import write_metrics_jsonl
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        registry.counter("frames", layer="mac").inc(5)
        registry.gauge("charge_c", scenario="Wi-LE").set(1.5e-2)
        artifact = write_metrics_jsonl(str(tmp_path / "m.jsonl"), registry)
        with open(artifact.path) as handle:
            records = [json.loads(line) for line in handle]
        assert artifact.rows == len(records) == 2
        by_name = {record["name"]: record for record in records}
        assert by_name["frames"]["value"] == 5
        assert by_name["charge_c"]["labels"] == {"scenario": "Wi-LE"}


def driver_metrics(out, *argv) -> bytes:
    """The ``metrics.jsonl`` a fresh ``python -m repro.experiments
    --metrics`` process writes for ``argv``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run([sys.executable, "-m", "repro.experiments", "--metrics",
                    "--out", str(out), *argv],
                   env=env, capture_output=True, check=True, timeout=600)
    with open(os.path.join(out, "metrics.jsonl"), "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("selection", [["--quick"], ["--only", "mobility"]],
                         ids=["quick", "mobility"])
def test_metrics_identical_at_any_worker_count(selection, tmp_path):
    """Worker metrics come home through the pool, so fanning out
    changes no record: not the scenario workers' MAC counters, not the
    mobility cells' (which replay no association of their own)."""
    serial = driver_metrics(tmp_path / "w1", *selection, "--workers", "1")
    assert b'"mac.ap.beacons_sent"' in serial
    assert driver_metrics(tmp_path / "w2", *selection,
                          "--workers", "2") == serial


class TestCli:
    def test_quick_run(self, results, tmp_path, capsys):
        from repro.experiments.__main__ import main
        code = main(["--quick", "--out", str(tmp_path / "out")])
        assert code == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "Figure 4" in output
        assert os.path.exists(tmp_path / "out" / "table1.csv")

    def test_metrics_and_audit_flags(self, results, tmp_path, capsys):
        from repro.experiments.__main__ import main
        code = main(["--quick", "--metrics", "--audit",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        output = capsys.readouterr().out
        assert "Invariant audit" in output
        assert "all invariants hold" in output
        assert "Metrics" in output
        assert os.path.exists(tmp_path / "out" / "metrics.jsonl")
