"""Experiment: Figure 4 — average power vs transmission interval.

Equation 1 swept over intervals up to five minutes, log-scale power,
four curves. The paper's takeaways (§5.5), all checked here:

* average power falls as the interval grows;
* WiFi-PS beats WiFi-DC only for frequent transmissions (the crossover
  sits well under a minute), after which the 4.5 mA idle floor dominates;
* Wi-LE tracks BLE closely and sits roughly three orders of magnitude
  below either WiFi variant.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scenarios import (
    Figure4Findings,
    Figure4Series,
    ScenarioResult,
    figure4,
    figure4_findings,
    run_all_scenarios,
)
from .report import render_log_sketch, render_series


@dataclass(frozen=True, slots=True)
class Figure4Report:
    series: list[Figure4Series]
    findings: Figure4Findings
    results: dict[str, ScenarioResult]

    def render(self) -> str:
        triples = [(entry.name, entry.intervals_s / 60.0, entry.power_w * 1e3)
                   for entry in self.series]
        body = render_series(
            "Figure 4: average power vs transmission interval",
            "interval (min)", "power (mW)", triples)
        sketch = render_log_sketch(triples)
        crossover = self.findings.wifi_ps_dc_crossover_s
        crossover_text = (f"{crossover:.1f} s" if crossover is not None
                          else "none in range")
        notes = "\n".join([
            f"WiFi-PS/WiFi-DC crossover interval: {crossover_text} "
            "(paper: under a minute)",
            f"Wi-LE / BLE power ratio at 1 min: "
            f"{self.findings.wile_ble_ratio_at_1min:.2f}x (paper: 'close')",
            f"Wi-LE below best WiFi at 1 min: "
            f"{self.findings.wile_vs_best_wifi_orders_at_1min:.2f} orders of "
            "magnitude (paper: 'generally about 3 orders')",
        ])
        return f"{body}\n\n{sketch}\n\n{notes}"


def run_figure4(results: dict[str, ScenarioResult] | None = None) -> Figure4Report:
    results = results if results is not None else run_all_scenarios()
    return Figure4Report(series=figure4(results),
                         findings=figure4_findings(results), results=results)
