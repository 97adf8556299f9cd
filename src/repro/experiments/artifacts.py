"""Artifact export: CSV data files for every figure and table.

Plotting tools live outside this repository (no matplotlib dependency),
so each experiment can dump its numbers in a stable CSV schema; pointing
gnuplot/pyplot at these files regenerates the paper's figures visually.
``python -m repro.experiments --out <dir>`` writes the full set.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

from ..energy.trace import CurrentTrace
from ..obs import METRICS
from ..obs.metrics import MetricsRegistry
from ..scenarios import ScenarioResult, figure4, table1


class ArtifactError(RuntimeError):
    """Raised when an artifact cannot be written."""


@dataclass(frozen=True, slots=True)
class WrittenArtifact:
    path: str
    rows: int


def _writer(path: str):
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    return open(path, "w", newline="")


def write_table1_csv(path: str,
                     results: dict[str, ScenarioResult]) -> WrittenArtifact:
    rows = table1(results)
    with _writer(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario", "energy_per_packet_j", "paper_energy_j",
                         "idle_current_a", "paper_idle_a"])
        for row in rows:
            # Rows beyond the paper's four columns carry no published
            # target; emit an empty cell, not a crash.
            writer.writerow([row.name, f"{row.energy_per_packet_j:.9g}",
                             f"{row.paper_energy_j:.9g}"
                             if row.paper_energy_j is not None else "",
                             f"{row.idle_current_a:.9g}",
                             f"{row.paper_idle_a:.9g}"
                             if row.paper_idle_a is not None else ""])
    return WrittenArtifact(path, len(rows))


def write_figure4_csv(path: str,
                      results: dict[str, ScenarioResult]) -> WrittenArtifact:
    series = figure4(results)
    with _writer(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario", "interval_s", "average_power_w"])
        count = 0
        for entry in series:
            for interval, power in zip(entry.intervals_s, entry.power_w):
                writer.writerow([entry.name, f"{interval:.6g}",
                                 f"{power:.9g}"])
                count += 1
    return WrittenArtifact(path, count)


def write_trace_csv(path: str, trace: CurrentTrace,
                    sample_rate_hz: float = 50_000.0) -> WrittenArtifact:
    """A Figure 3-style trace, sampled as the paper's multimeter would."""
    if trace is None:
        raise ArtifactError("scenario produced no trace")
    times, currents = trace.sample(sample_rate_hz)
    with _writer(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "current_a"])
        for time_s, current_a in zip(times, currents):
            writer.writerow([f"{time_s:.6f}", f"{current_a:.9g}"])
    return WrittenArtifact(path, len(times))


def write_trace_segments_csv(path: str, trace: CurrentTrace) -> WrittenArtifact:
    """The exact piecewise trace with phase labels (lossless form)."""
    if trace is None:
        raise ArtifactError("scenario produced no trace")
    with _writer(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["start_s", "duration_s", "current_a", "label"])
        for segment in trace:
            writer.writerow([f"{segment.start_s:.9g}",
                             f"{segment.duration_s:.9g}",
                             f"{segment.current_a:.9g}", segment.label])
    return WrittenArtifact(path, len(trace))


def write_multi_device_csv(path: str, report) -> WrittenArtifact:
    """The §6 jitter experiment, one row per wake round (duck-typed
    :class:`~repro.experiments.multi_device.MultiDeviceReport`)."""
    data = report.to_dict()
    with _writer(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["round", "unique_delivered", "device_count"])
        for round_index, unique in enumerate(data["per_round_unique"], 1):
            writer.writerow([round_index, unique, data["device_count"]])
    return WrittenArtifact(path, len(data["per_round_unique"]))


def write_rows_csv(path: str, points) -> WrittenArtifact:
    """One row per sweep point, columns from ``point.to_row()``.

    Duck-typed over any sweep's points (fleet scale, resilience,
    mobility, the harvester grids), so this module never imports the
    layers behind them. Floats are written to nine significant digits.
    """
    if not points:
        raise ArtifactError("sweep produced no points")
    rows = [point.to_row() for point in points]
    with _writer(path) as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({key: (f"{value:.9g}"
                                   if isinstance(value, float) else value)
                             for key, value in row.items()})
    return WrittenArtifact(path, len(rows))


def write_metrics_jsonl(path: str,
                        registry: MetricsRegistry | None = None) -> WrittenArtifact:
    """One metric snapshot per line: the run's observability artifact.

    Records are the plain dicts from
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, sorted by
    (name, labels) so two identical runs produce byte-identical files.
    """
    registry = registry if registry is not None else METRICS
    records = registry.snapshot()
    with _writer(path) as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return WrittenArtifact(path, len(records))


def export_all(output_dir: str, outcomes) -> list[WrittenArtifact]:
    """Write a run's artifact set under ``output_dir``.

    ``outcomes`` are the ``(experiment, result)`` pairs that
    ``python -m repro.experiments`` kept: each file an experiment
    declares in its ``artifacts`` is written from that experiment's
    result, then the run's ``metrics.jsonl``.
    """
    artifacts = [write(os.path.join(output_dir, filename), result)
                 for experiment, result in outcomes
                 for filename, write in experiment.artifacts]
    artifacts.append(write_metrics_jsonl(
        os.path.join(output_dir, "metrics.jsonl")))
    return artifacts
