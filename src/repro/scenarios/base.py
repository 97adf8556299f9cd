"""Common scaffolding for the four §5.3 evaluation scenarios.

Each scenario (WiFi-PS, WiFi-DC, BLE, Wi-LE) runs its protocol on the
simulation substrate and reduces to a :class:`ScenarioResult`: the
energy to transmit one message with all overheads, the duration of that
transmission window, the idle current between messages, and a labelled
current trace (the Figure 3 analogue). Table 1 and Figure 4 are derived
entirely from these results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..energy.average import DutyCycleProfile
from ..energy.esp32 import Esp32PowerModel, Esp32State
from ..energy.trace import CurrentTrace
from ..mac.log import FrameLog
from ..obs import METRICS
from ..obs.metrics import MetricsRegistry


class ScenarioError(RuntimeError):
    """Raised when a scenario run does not complete as the paper's did."""


@dataclass(frozen=True, slots=True)
class ScenarioResult:
    """Everything the evaluation extracts from one scenario run."""

    name: str
    energy_per_packet_j: float
    t_tx_s: float
    idle_current_a: float
    supply_voltage_v: float
    trace: CurrentTrace | None = None
    frame_log: FrameLog | None = None
    details: dict = field(default_factory=dict)

    def profile(self) -> DutyCycleProfile:
        """Eq. 1 parameters for the Figure 4 sweep."""
        return DutyCycleProfile(
            name=self.name,
            energy_per_packet_j=self.energy_per_packet_j,
            t_tx_s=self.t_tx_s,
            idle_current_a=self.idle_current_a,
            supply_voltage_v=self.supply_voltage_v)

    def average_power_w(self, interval_s: float) -> float:
        return self.profile().average_power_w(interval_s)


def emit_scenario_metrics(result: ScenarioResult,
                          registry: MetricsRegistry | None = None) -> None:
    """Record one scenario run's energy and frame accounting.

    Each ``run_*`` scenario calls this on its way out, so a run always
    leaves its Table 1 inputs — energy per packet, transmission window,
    idle current, trace charge per phase, frame counts — in the metrics
    registry alongside whatever the MAC layer counted during the run.
    A run in a pool worker records into the worker's registry, and the
    pool merges those records into the parent's when it takes the
    result.
    """
    registry = registry if registry is not None else METRICS
    name = result.name
    registry.counter("scenario.runs", scenario=name).inc()
    registry.gauge("scenario.energy_per_packet_j", scenario=name).set(
        result.energy_per_packet_j)
    registry.gauge("scenario.t_tx_s", scenario=name).set(result.t_tx_s)
    registry.gauge("scenario.idle_current_a", scenario=name).set(
        result.idle_current_a)
    trace = result.trace
    if trace is not None:
        registry.gauge("scenario.trace.charge_c", scenario=name).set(
            trace.charge_c())
        registry.gauge("scenario.trace.duration_s", scenario=name).set(
            trace.duration_s)
        registry.gauge("scenario.trace.average_current_a", scenario=name).set(
            trace.average_current_a() if trace.duration_s > 0 else 0.0)
        registry.gauge("scenario.trace.peak_current_a", scenario=name).set(
            trace.peak_current_a())
        registry.gauge("scenario.trace.segments", scenario=name).set(
            float(len(trace)))
        for label, charge_c in trace.charge_by_label().items():
            registry.gauge("scenario.trace.charge_by_label_c",
                           scenario=name, label=label).set(charge_c)
        durations = registry.histogram("scenario.trace.segment_duration_s",
                                       scenario=name)
        for segment in trace:
            durations.observe(segment.duration_s)
    delivery = result.details.get("delivery")
    if delivery is not None:
        # Harvest-gated scenarios report scheduled-vs-funded delivery
        # (a missed report is an energy outcome, not a radio loss) —
        # the same counter family the fleet's gateway accounting uses.
        for outcome in ("attempted", "delivered", "missed"):
            registry.counter("scenario.reports", scenario=name,
                             outcome=outcome).inc(int(delivery[outcome]))
        registry.gauge("scenario.delivery_ratio", scenario=name).set(
            float(delivery["delivered"]) / max(int(delivery["attempted"]), 1))
    frame_log = result.frame_log
    if frame_log is not None:
        for layer in set(entry.layer for entry in frame_log.entries):
            registry.counter("scenario.frames", scenario=name,
                             layer=layer.value).inc(frame_log.count(layer))
        registry.counter("scenario.frame_bytes_on_air", scenario=name).inc(
            frame_log.bytes_on_air())


@dataclass(frozen=True, slots=True)
class Burst:
    """A transient activity window to overlay on a base state."""

    start_s: float
    duration_s: float
    state: Esp32State
    label: str


def overlay_window(trace: CurrentTrace, model: Esp32PowerModel,
                   start_s: float, end_s: float, base_state: Esp32State,
                   bursts: Iterable[Burst], base_label: str) -> None:
    """Fill [start, end) with ``base_state``, carving out ``bursts``.

    Bursts are clipped to the window; overlapping bursts are merged by
    letting the later one start where the earlier ended (activity
    windows in the simulated exchanges are back-to-back, not truly
    concurrent). This builds the microstructure of Figure 3a: a low base
    current with spikes at each frame exchange.
    """
    if end_s < start_s:
        raise ScenarioError(f"bad overlay window [{start_s}, {end_s}]")
    clipped: list[Burst] = []
    for burst in sorted(bursts, key=lambda item: item.start_s):
        lo = max(burst.start_s, start_s)
        hi = min(burst.start_s + burst.duration_s, end_s)
        if clipped and lo < clipped[-1].start_s + clipped[-1].duration_s:
            lo = clipped[-1].start_s + clipped[-1].duration_s
        if hi > lo:
            clipped.append(Burst(lo, hi - lo, burst.state, burst.label))
    cursor = start_s
    for burst in clipped:
        if burst.start_s > cursor:
            trace.add_segment(cursor, burst.start_s - cursor,
                              model.current_a(base_state), base_label)
        trace.add_segment(burst.start_s, burst.duration_s,
                          model.current_a(burst.state), burst.label)
        cursor = burst.start_s + burst.duration_s
    if end_s > cursor:
        trace.add_segment(cursor, end_s - cursor,
                          model.current_a(base_state), base_label)
