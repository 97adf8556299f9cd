"""Experiment: mobility — speed x AP density x technology.

    python -m repro.experiments --only mobility [--audit] [--out DIR]

The paper's Figure-3 energy comparison is made standing still. This
sweep makes the devices move: each speed builds a small population
of seeded trajectories (:mod:`repro.mobility.trajectories`) once, and
each (speed, AP spacing) pair walks them once through a regular AP grid
(:mod:`repro.mobility.grid`), evaluating AP selection per epoch under a
handoff policy, and each technology's cell charges every AP change
what that technology actually pays
(:func:`repro.mobility.handoff.reassociation_cost`):

* **Wi-LE** — connection-less beacon injection: exactly zero frames,
  zero joules per handoff (the structural claim);
* **WiFi-PS / WiFi-DC** — the full §3.1 re-association (20 MAC + 7
  higher-layer frames), *replayed* through the real
  :class:`~repro.mac.station.Station` / access-point machines, energy
  integrated over the logged frame airtimes — not a constant;
* **BLE** — re-advertising + connection re-establishment through the
  real PDU codecs and the CC2541 phase model.

Per-device energy/day combines the paper's per-packet and idle
calibration with the handoff tax; outage time and delivery ratio come
from the per-epoch coverage walk. Speeds are independent and
deterministic (blake2b stable draws keyed by the cell seed), so the
sweep fans over the process pool bit-identically at any worker count.
``--audit`` cross-checks the handoff-energy conservation invariants
(:func:`repro.obs.audit.audit_mobility`) over every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..energy import calibration as cal
from ..faults.plan import stable_uniform
from ..mobility import (
    HANDOFF_TECHNOLOGIES,
    ApGrid,
    DeviceMobilityStats,
    HandoffCost,
    HandoffPolicy,
    MobilityConfig,
    build_trajectory,
    reassociation_cost,
    walk_trajectory,
)
from ..obs import METRICS
from .report import render_table
from .runner import run_grid

#: Pedestrian, jogger, urban vehicle — the speed axis (m/s).
DEFAULT_SPEEDS = (0.0, 1.4, 5.0, 15.0)

#: AP grid pitch (m) — the density axis (one AP per spacing^2 cell).
DEFAULT_SPACINGS = (30.0, 60.0, 120.0)

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True, slots=True)
class MobilityCell:
    """One sweep cell: everything a worker needs, picklable."""

    speed_mps: float
    ap_spacing_m: float
    technology: str
    model: str = "random-waypoint"
    policy: str = "hysteresis"
    device_count: int = 8
    area_m: tuple[float, float] = (300.0, 300.0)
    duration_s: float = 4.0 * 3600.0
    interval_s: float = 600.0
    epoch_s: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.technology not in HANDOFF_TECHNOLOGIES:
            raise ValueError(f"unknown technology {self.technology!r}")


@dataclass
class MobilityPoint:
    """One cell's outcome: handoff accounting plus energy projection.

    ``handoff_energy_j`` satisfies (and :func:`repro.obs.audit.
    audit_mobility` verifies) ``handoff_energy_j == association_events *
    handoff_unit_j`` exactly — and is exactly 0.0 for Wi-LE.
    """

    cell: MobilityCell
    devices: int = 0
    handoffs: int = 0
    reacquisitions: int = 0
    outage_s: float = 0.0
    beacons_sent: int = 0
    beacons_delivered: int = 0
    handoff_energy_j: float = 0.0
    handoff_unit_j: float = 0.0
    handoff_mac_frames: int = 0
    handoff_higher_frames: int = 0
    handoff_latency_s: float = 0.0
    energy_per_device_day_j: float = 0.0

    @property
    def name(self) -> str:
        return (f"mobility[{self.cell.technology},v={self.cell.speed_mps:g},"
                f"ap={self.cell.ap_spacing_m:g}m,seed={self.cell.seed}]")

    @property
    def association_events(self) -> int:
        return self.handoffs + self.reacquisitions

    @property
    def delivery_rate(self) -> float:
        return (self.beacons_delivered / self.beacons_sent
                if self.beacons_sent else 0.0)

    @property
    def handoffs_per_device_hour(self) -> float:
        device_hours = self.devices * self.cell.duration_s / 3600.0
        return self.handoffs / device_hours if device_hours else 0.0

    def to_row(self) -> dict:
        return {
            "technology": self.cell.technology,
            "speed_mps": self.cell.speed_mps,
            "ap_spacing_m": self.cell.ap_spacing_m,
            "ap_density_per_km2": 1e6 / self.cell.ap_spacing_m ** 2,
            "model": self.cell.model,
            "policy": self.cell.policy,
            "device_count": self.cell.device_count,
            "duration_s": self.cell.duration_s,
            "seed": self.cell.seed,
            "handoffs": self.handoffs,
            "reacquisitions": self.reacquisitions,
            "handoffs_per_device_hour": self.handoffs_per_device_hour,
            "outage_s": self.outage_s,
            "beacons_sent": self.beacons_sent,
            "beacons_delivered": self.beacons_delivered,
            "delivery_rate": self.delivery_rate,
            "handoff_unit_j": self.handoff_unit_j,
            "handoff_mac_frames": self.handoff_mac_frames,
            "handoff_higher_frames": self.handoff_higher_frames,
            "handoff_energy_j": self.handoff_energy_j,
            "energy_per_device_day_j": self.energy_per_device_day_j,
        }


def _start_position(cell: MobilityCell, index: int) -> tuple[float, float]:
    """Deterministic start, independent of everything but (seed, index)."""
    return (cell.area_m[0] * stable_uniform("mobility-start", cell.seed,
                                            index, "x"),
            cell.area_m[1] * stable_uniform("mobility-start", cell.seed,
                                            index, "y"))


def run_cell(cell: MobilityCell) -> MobilityPoint:
    """Walk one (speed, density, technology) cell, replaying its
    technology's handoff cost."""
    (point,) = _walk_speed(((cell, reassociation_cost(cell.technology)),))
    return point


def _walk_speed(cells: Sequence[tuple[MobilityCell, HandoffCost]],
                ) -> list[MobilityPoint]:
    """Build one speed's trajectories once, walk them once through each
    AP spacing's grid, and score each ``(cell, cost)`` from the walks
    of its spacing. The cells differ only in spacing and technology: a
    trajectory depends on neither, and no walk depends on the
    technology. Module-level and picklable-in/out, so it fans over the
    experiment pool unchanged (which brings the metrics home)."""
    first = cells[0][0]
    config = MobilityConfig(model=first.model, speed_mps=first.speed_mps,
                            epoch_s=first.epoch_s, seed=first.seed)
    trajectories = [build_trajectory(config, index,
                                     _start_position(first, index),
                                     first.area_m, first.duration_s)
                    for index in range(first.device_count)]
    policy = HandoffPolicy(kind=first.policy)
    walks: dict[float, list[DeviceMobilityStats]] = {}
    points = []
    for cell, cost in cells:
        if cell.ap_spacing_m not in walks:
            grid = ApGrid.build(cell.area_m, spacing_m=cell.ap_spacing_m)
            walks[cell.ap_spacing_m] = [
                walk_trajectory(trajectory, grid, policy,
                                duration_s=cell.duration_s,
                                interval_s=cell.interval_s)
                for trajectory in trajectories]
        points.append(_score(cell, cost, walks[cell.ap_spacing_m]))
    return points


def _score(cell: MobilityCell, cost: HandoffCost,
           walks: Sequence[DeviceMobilityStats]) -> MobilityPoint:
    """Price ``walks`` at ``cell``'s technology and record its handoff
    accounting."""
    point = MobilityPoint(cell=cell, devices=cell.device_count,
                          handoff_unit_j=cost.energy_j,
                          handoff_mac_frames=cost.mac_frames,
                          handoff_higher_frames=cost.higher_frames)
    for stats in walks:
        point.handoffs += stats.handoffs
        point.reacquisitions += stats.reacquisitions
        point.outage_s += stats.outage_s
        point.beacons_sent += stats.beacons_sent
        point.beacons_delivered += stats.beacons_delivered

    # integer-events x unit-cost: the exact identity the audit rechecks.
    point.handoff_energy_j = point.association_events * cost.energy_j
    point.handoff_latency_s = point.association_events * cost.latency_s

    # Per-device energy/day: the paper's per-packet cost for every sent
    # beacon, the technology's idle floor, plus the handoff tax — all
    # scaled from the simulated horizon to 24 h.
    scale = SECONDS_PER_DAY / cell.duration_s
    voltage = (cal.BLE_SUPPLY_VOLTAGE_V if cell.technology == "BLE"
               else cal.SUPPLY_VOLTAGE_V)
    active_j = point.beacons_sent * cal.PAPER_ENERGY_PER_PACKET_J[
        cell.technology]
    idle_j = (cal.PAPER_IDLE_CURRENT_A[cell.technology] * voltage
              * SECONDS_PER_DAY)
    point.energy_per_device_day_j = (
        (active_j + point.handoff_energy_j) * scale / cell.device_count
        + idle_j)
    labels = {"technology": cell.technology, "speed": f"{cell.speed_mps:g}",
              "spacing": f"{cell.ap_spacing_m:g}"}
    METRICS.counter("mobility.handoffs", **labels).inc(point.handoffs)
    METRICS.counter("mobility.reacquisitions", **labels).inc(
        point.reacquisitions)
    METRICS.counter("mobility.beacons_sent", **labels).inc(point.beacons_sent)
    METRICS.counter("mobility.beacons_delivered", **labels).inc(
        point.beacons_delivered)
    METRICS.gauge("mobility.handoff_energy_j", **labels).set(
        point.handoff_energy_j)
    METRICS.gauge("mobility.energy_per_device_day_j", **labels).set(
        point.energy_per_device_day_j)
    METRICS.gauge("mobility.delivery_rate", **labels).set(point.delivery_rate)
    return point


def run_mobility(workers: int = 1) -> list[MobilityPoint]:
    """The sweep: every (speed, AP spacing, technology) cell, each
    cell otherwise :class:`MobilityCell`'s defaults.

    Each technology's handoff cost is replayed once, here; one pool
    task per speed builds its devices' trajectories once, walks them
    once per spacing and returns that speed's twelve points, spacing
    then technology innermost. Speeds are independent and internally
    deterministic, so results are identical for any ``workers`` value.
    """
    costs = [reassociation_cost(technology)
             for technology in HANDOFF_TECHNOLOGIES]
    speeds = [tuple((MobilityCell(speed_mps=speed, ap_spacing_m=spacing,
                                  technology=cost.technology), cost)
                    for spacing in DEFAULT_SPACINGS for cost in costs)
              for speed in DEFAULT_SPEEDS]
    return [point for points in run_grid(_walk_speed, speeds,
                                         workers=workers)
            for point in points]


def audit_points(points: Sequence[MobilityPoint]):
    """Fold :func:`repro.obs.audit.audit_mobility` over every cell."""
    from ..obs.audit import AuditReport, audit_mobility
    report = AuditReport()
    for point in points:
        report.merge(audit_mobility(point))
    return report


def render(points: Sequence[MobilityPoint]) -> str:
    rows = []
    for point in points:
        rows.append([
            point.cell.technology,
            f"{point.cell.speed_mps:g}",
            f"{point.cell.ap_spacing_m:g}",
            str(point.handoffs),
            f"{point.handoffs_per_device_hour:.2f}",
            f"{point.outage_s:.0f}",
            f"{point.delivery_rate:.4f}",
            f"{point.handoff_unit_j * 1e3:.3f}",
            f"{point.handoff_energy_j:.4f}",
            f"{point.energy_per_device_day_j:.3f}",
        ])
    return render_table(
        "Mobility: handoff tax by speed x AP density x technology",
        ["tech", "v m/s", "AP m", "handoffs", "ho/dev/h", "outage s",
         "delivery", "unit mJ", "ho J", "J/dev/day"],
        rows)
