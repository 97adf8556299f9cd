"""Experiment: Table 1 — energy per message and idle current.

Paper values:

    =============  ======  ======  =========  =========
    .              Wi-LE   BLE     WiFi-DC    WiFi-PS
    Energy/packet  84 uJ   71 uJ   238.2 mJ   19.8 mJ
    Idle current   2.5 uA  1.1 uA  2.5 uA     4500 uA
    =============  ======  ======  =========  =========

Run with ``python -m repro.experiments --only table1`` or through
``benchmarks/bench_table1.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scenarios import ScenarioResult, run_all_scenarios, table1 as build_table1
from ..scenarios.compare import Table1Row
from .report import format_si, render_table


@dataclass(frozen=True, slots=True)
class Table1Report:
    rows: list[Table1Row]
    results: dict[str, ScenarioResult]

    def max_energy_error(self) -> float:
        """Worst |ratio - 1| over the rows with a paper energy target.

        Rows beyond the paper's four columns (WUR, Batteryless) have no
        published figure and are skipped rather than crashed on.
        """
        return max(abs(row.energy_ratio - 1.0) for row in self.rows
                   if row.energy_ratio is not None)

    def max_idle_error(self) -> float:
        """Worst |ratio - 1| over the rows with a paper idle target."""
        return max(abs(row.idle_ratio - 1.0) for row in self.rows
                   if row.idle_ratio is not None)

    def render(self) -> str:
        rows = []
        for row in self.rows:
            rows.append([
                row.name,
                format_si(row.energy_per_packet_j, "J"),
                format_si(row.paper_energy_j, "J")
                if row.paper_energy_j is not None else "-",
                f"{row.energy_ratio:.3f}"
                if row.energy_ratio is not None else "-",
                format_si(row.idle_current_a, "A"),
                format_si(row.paper_idle_a, "A")
                if row.paper_idle_a is not None else "-",
            ])
        return render_table(
            "Table 1: energy per message and idle current",
            ["scenario", "energy (ours)", "energy (paper)", "ratio",
             "idle (ours)", "idle (paper)"],
            rows)


def run_table1(results: dict[str, ScenarioResult] | None = None) -> Table1Report:
    results = results if results is not None else run_all_scenarios()
    return Table1Report(rows=build_table1(results), results=results)
