"""Experiment: Wi-LE under fire — fault intensity x recovery policy.

    python -m repro.experiments --only resilience [--audit] [--workers N]

The paper's energy argument is made on a clean channel. This sweep asks
what survives when the channel (and the fleet) misbehaves: every cell
runs one small Wi-LE deployment under a seeded
:class:`~repro.faults.plan.FaultPlan` — Gilbert–Elliott loss bursts,
interferers, SNR fades, brownouts, battery depletion, gateway outages —
at a given ``intensity``, under one of three recovery policies:

* ``baseline`` — the paper's device: one beacon per wake, fixed period;
* ``redundant`` — static beacon repetition (3 copies per wake), the §6
  reliability suggestion, paid for unconditionally;
* ``adaptive`` — :class:`~repro.faults.recovery.
  AdaptiveRedundancyController`: the gateway watches per-device
  delivery and escalates repetition/backoff only under sustained loss,
  stepping back when the channel heals.

Every cell is self-contained and deterministic (pre-drawn fault plan,
stable per-delivery loss draws), so the sweep fans over the process
pool with results identical to a serial run — bit for bit, any worker
count. ``--audit`` cross-checks the fault-conservation invariants
(:func:`repro.obs.audit.audit_faults`) over every cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ..energy import calibration as cal
from ..faults import (
    AdaptiveRedundancyController,
    FaultConfig,
    FaultInjector,
    FaultStats,
    build_fault_plan,
)
from ..obs import METRICS, audit_faults
from .report import render_table
from .runner import run_grid

DEFAULT_INTENSITIES = (0.0, 0.3, 0.6, 1.0)
DEFAULT_POLICIES = ("baseline", "redundant", "adaptive")

#: Energy one brownout reboot must cost (the §5.2 boot window) — the
#: audit's independent derivation of the per-reboot charge.
BOOT_ENERGY_J = cal.WILE_BOOT_S * cal.ESP32_BOOT_A * cal.SUPPLY_VOLTAGE_V

#: Mean load for the battery-depletion draw: a stuck firmware loop
#: holding the radio at high-power TX, the failure mode that actually
#: kills coin cells inside an experiment horizon.
_DEPLETION_LOAD_A = cal.ESP32_WIFI_TX_HIGH_A

#: Radius of the device circle around the gateway, metres — inside
#: Wi-LE's ~12 m delivery boundary with margin for SNR-fade windows.
_RING_RADIUS_M = 5.0


@dataclass(frozen=True, slots=True)
class ResilienceCell:
    """One sweep cell: everything a worker needs, picklable."""

    intensity: float
    policy: str
    device_count: int = 6
    interval_s: float = 2.0
    duration_s: float = 120.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in DEFAULT_POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")


@dataclass
class ResiliencePoint:
    """One cell's outcome: delivery accounting plus fault bookkeeping.

    The counter fields satisfy (and :func:`repro.obs.audit.audit_faults`
    verifies) ``delivered + lost_injected + lost_snr + lost_collision +
    suppressed == copies_sent`` — every transmitted copy whose airtime
    completed inside the horizon is accounted exactly once.
    """

    cell: ResilienceCell
    copies_sent: int = 0
    in_flight: int = 0
    delivered: int = 0
    lost_injected: int = 0
    lost_snr: int = 0
    lost_collision: int = 0
    suppressed: int = 0
    unique_messages: int = 0
    reboots: int = 0
    depletions: int = 0
    fault_energy_j: float = 0.0
    boot_energy_j: float = BOOT_ENERGY_J
    escalations: int = 0
    recoveries: int = 0
    fault_stats: FaultStats = field(default_factory=FaultStats)

    @property
    def name(self) -> str:
        return (f"resilience[{self.cell.policy},"
                f"i={self.cell.intensity:g},seed={self.cell.seed}]")

    @property
    def delivery_rate(self) -> float:
        """Fraction of completed copies decoded at the gateway."""
        return self.delivered / self.copies_sent if self.copies_sent else 0.0

    def to_row(self) -> dict:
        return {
            "intensity": self.cell.intensity,
            "policy": self.cell.policy,
            "device_count": self.cell.device_count,
            "interval_s": self.cell.interval_s,
            "duration_s": self.cell.duration_s,
            "seed": self.cell.seed,
            "copies_sent": self.copies_sent,
            "delivered": self.delivered,
            "delivery_rate": self.delivery_rate,
            "lost_injected": self.lost_injected,
            "lost_snr": self.lost_snr,
            "lost_collision": self.lost_collision,
            "suppressed": self.suppressed,
            "unique_messages": self.unique_messages,
            "reboots": self.reboots,
            "depletions": self.depletions,
            "fault_energy_j": self.fault_energy_j,
            "escalations": self.escalations,
            "recoveries": self.recoveries,
        }


def run_cell(cell: ResilienceCell) -> ResiliencePoint:
    """Simulate one (intensity, policy) cell and record its delivery
    accounting. Module-level and picklable-in/out, so it fans over the
    experiment pool unchanged (which brings the metrics home)."""
    from ..core.device import WiLEDevice
    from ..core.payload import SensorKind, SensorReading
    from ..core.receiver import WiLEReceiver
    from ..sim import Position, Simulator, WirelessMedium

    sim = Simulator()
    medium = WirelessMedium(sim)
    receiver = WiLEReceiver(sim, medium, position=Position(0.0, 0.0))
    gateway_radio = receiver.radio

    repeats = 3 if cell.policy == "redundant" else 1
    devices: dict[int, WiLEDevice] = {}
    controllers = []
    for index in range(cell.device_count):
        device_id = 0x00570000 + index + 1
        angle = 2.0 * math.pi * index / cell.device_count
        device = WiLEDevice(
            sim, medium, device_id=device_id,
            position=Position(_RING_RADIUS_M * math.cos(angle),
                              _RING_RADIUS_M * math.sin(angle)),
            repeats=repeats)
        device.start(cell.interval_s,
                     lambda: (SensorReading(SensorKind.TEMPERATURE_C, 17.0),),
                     first_wake_s=(index + 1) * cell.interval_s
                     / (cell.device_count + 1))
        devices[device_id] = device
        if cell.policy == "adaptive":
            controller = AdaptiveRedundancyController(
                sim, device, receiver,
                check_interval_s=5.0 * cell.interval_s,
                loss_threshold=0.5, max_repeats=4)
            controller.start()
            controllers.append(controller)

    plan = build_fault_plan(
        FaultConfig(seed=cell.seed, duration_s=cell.duration_s,
                    intensity=cell.intensity,
                    battery_mean_load_a=_DEPLETION_LOAD_A),
        device_ids=tuple(devices), gateway_count=1)
    injector = FaultInjector(sim, medium, plan, devices=devices,
                             gateway_radios=(gateway_radio,))
    injector.install()

    # Track every device-originated copy: the medium has no transmit
    # hook, so shim its transmit method (restored wiring is local to
    # this cell's private medium).
    device_radios = {device.radio for device in devices.values()}
    copies = []
    original_transmit = medium.transmit

    def tracking_transmit(sender, frame, rate, power_dbm):
        transmission = original_transmit(sender, frame, rate, power_dbm)
        if sender in device_radios:
            copies.append(transmission)
        return transmission

    medium.transmit = tracking_transmit

    point = ResiliencePoint(cell=cell)

    def on_delivery(transmission, report) -> None:
        if report.receiver is not gateway_radio:
            return
        if transmission.sender not in device_radios:
            return
        if report.delivered:
            point.delivered += 1
        elif report.reason == "injected-fault":
            point.lost_injected += 1
        elif report.reason == "snr":
            point.lost_snr += 1
        elif report.reason == "collision":
            point.lost_collision += 1

    medium.add_delivery_listener(on_delivery)
    sim.run(until_s=cell.duration_s)

    completed = [tx for tx in copies if tx.end_s <= cell.duration_s]
    point.copies_sent = len(completed)
    point.in_flight = len(copies) - len(completed)
    # Independent derivation of the suppressed count: copies whose
    # delivery decision landed inside a gateway-outage window got no
    # report at all (the radio was off). Deriving it from the plan's
    # windows — not as a residual — makes delivery conservation a real
    # cross-check of the outage scheduling.
    point.suppressed = injector.suppressed_in_outage(
        [tx.end_s for tx in completed], gateway_index=0)
    point.unique_messages = len(receiver.messages)
    point.reboots = sum(device.reboots for device in devices.values())
    point.depletions = sum(1 for device in devices.values()
                           if device.depleted)
    point.fault_energy_j = sum(device.fault_energy_j
                               for device in devices.values())
    point.escalations = sum(controller.stats.escalations
                            for controller in controllers)
    point.recoveries = sum(controller.stats.recoveries
                           for controller in controllers)
    point.fault_stats = injector.stats
    labels = {"policy": cell.policy, "intensity": f"{cell.intensity:g}"}
    METRICS.counter("resilience.copies_sent", **labels).inc(point.copies_sent)
    METRICS.counter("resilience.delivered", **labels).inc(point.delivered)
    METRICS.counter("resilience.drops_injected", **labels).inc(
        point.lost_injected)
    METRICS.counter("resilience.suppressed", **labels).inc(point.suppressed)
    METRICS.counter("resilience.reboots", **labels).inc(point.reboots)
    METRICS.gauge("resilience.delivery_rate", **labels).set(
        point.delivery_rate)
    return point


def run_resilience(intensities: Sequence[float] = DEFAULT_INTENSITIES,
                   policies: Sequence[str] = DEFAULT_POLICIES,
                   device_count: int = 6, interval_s: float = 2.0,
                   duration_s: float = 120.0, seed: int = 0,
                   workers: int = 1) -> list[ResiliencePoint]:
    """The sweep: every (intensity, policy) cell, pool-parallel.

    Cells are independent and internally deterministic, so results are
    identical for any ``workers`` value.
    """
    cells = [ResilienceCell(intensity=intensity, policy=policy,
                            device_count=device_count,
                            interval_s=interval_s, duration_s=duration_s,
                            seed=seed)
             for intensity in intensities for policy in policies]
    return run_grid(run_cell, cells, workers=workers)


def audit_points(points: Sequence[ResiliencePoint]):
    """Fold :func:`repro.obs.audit.audit_faults` over every cell."""
    from ..obs.audit import AuditReport
    report = AuditReport()
    for point in points:
        report.merge(audit_faults(point))
    return report


def render(points: Sequence[ResiliencePoint]) -> str:
    rows = []
    for point in points:
        rows.append([
            f"{point.cell.intensity:g}",
            point.cell.policy,
            str(point.copies_sent),
            f"{point.delivery_rate:.4f}",
            str(point.lost_injected),
            str(point.lost_snr),
            str(point.lost_collision),
            str(point.suppressed),
            str(point.reboots),
            str(point.depletions),
            str(point.escalations) if point.cell.policy == "adaptive"
            else "-",
        ])
    return render_table(
        "Resilience: delivery under fault intensity x recovery policy",
        ["intensity", "policy", "copies", "delivery", "injected", "snr",
         "collision", "suppressed", "reboots", "dead", "escalations"],
        rows)
