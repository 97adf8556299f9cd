"""Experiment: Figure 3 — current-draw traces for one transmission.

Figure 3a (WiFi): sleep | MC/WiFi init (0.2-0.85 s) | probe/auth/assoc
(0.85-1.15 s) | DHCP/ARP (to ~1.78 s) | TX | sleep, peaks near 250 mA.

Figure 3b (Wi-LE): sleep | a visibly shorter MC/WiFi init | TX | sleep.

The reproduction regenerates both traces from scenario runs, samples
them through the simulated Keysight 34465A at 50 kS/s exactly as the
paper measured, and summarises each labelled phase (span, average and
peak current) next to the paper's figure annotations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy.trace import CurrentTrace
from ..scenarios import run_wifi_dc, run_wile
from ..testbed.multimeter import Keysight34465A
from .report import format_si, render_table

#: Map trace labels to the paper's phase annotations, in display order.
_WIFI_PHASES = ("sleep", "mc/wifi-init", "scan", "probe/auth/assoc",
                "probe/auth/assoc-tx", "dhcp/arp", "dhcp/arp-active",
                "tx", "teardown")
_WILE_PHASES = ("sleep", "mc/wifi-init", "tx")


@dataclass(frozen=True, slots=True)
class PhaseSummary:
    label: str
    duration_s: float
    charge_c: float
    average_current_a: float


@dataclass(frozen=True, slots=True)
class Figure3Report:
    wifi_trace: CurrentTrace
    wile_trace: CurrentTrace
    wifi_phases: list[PhaseSummary]
    wile_phases: list[PhaseSummary]
    wifi_samples: int
    wile_samples: int
    wifi_peak_a: float
    wile_peak_a: float

    def render(self) -> str:
        blocks = []
        for title, phases, peak, samples in (
                ("Figure 3a: WiFi (duty-cycle) current trace",
                 self.wifi_phases, self.wifi_peak_a, self.wifi_samples),
                ("Figure 3b: Wi-LE current trace",
                 self.wile_phases, self.wile_peak_a, self.wile_samples)):
            rows = [[phase.label,
                     format_si(phase.duration_s, "s"),
                     format_si(phase.average_current_a, "A"),
                     format_si(phase.charge_c, "C")]
                    for phase in phases]
            table = render_table(title, ["phase", "span", "avg current",
                                         "charge"], rows)
            blocks.append(f"{table}\npeak current: {format_si(peak, 'A')}"
                          f"  (50 kS/s samples: {samples})")
        return "\n\n".join(blocks)


def _summaries(trace: CurrentTrace, order: tuple[str, ...]) -> list[PhaseSummary]:
    durations = trace.duration_by_label()
    charges = trace.charge_by_label()
    summaries = []
    for label in order:
        if label not in durations:
            continue
        duration = durations[label]
        charge = charges[label]
        summaries.append(PhaseSummary(label, duration, charge,
                                      charge / duration if duration else 0.0))
    return summaries


def run_figure3() -> Figure3Report:
    wifi = run_wifi_dc()
    wile = run_wile()
    meter = Keysight34465A()
    wifi_reading = meter.acquire(wifi.trace)
    wile_reading = meter.acquire(wile.trace)
    return Figure3Report(
        wifi_trace=wifi.trace,
        wile_trace=wile.trace,
        wifi_phases=_summaries(wifi.trace, _WIFI_PHASES),
        wile_phases=_summaries(wile.trace, _WILE_PHASES),
        wifi_samples=len(wifi_reading.times_s),
        wile_samples=len(wile_reading.times_s),
        wifi_peak_a=wifi.trace.peak_current_a(),
        wile_peak_a=wile.trace.peak_current_a())
