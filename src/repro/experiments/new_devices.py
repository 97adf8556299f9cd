"""Experiment: the new device classes — WUR and batteryless harvesting.

    python -m repro.experiments --only new_devices [--audit] [--workers N]

Three views of the ROADMAP's fifth and sixth Table 1 columns:

* **phase breakdown** — Figure 3-style per-phase charge summaries of
  one WUR wake burst and one harvested batteryless report, from the
  scenarios' labelled traces;
* **harvester resilience** — fault intensity x income scale: each cell
  expands a seeded :class:`~repro.faults.plan.FaultPlan`, feeds its
  brownout instants into the harvest-gated policy (a brownout drains
  one wake cost from the capacitor without producing a report), and
  reports the delivery ratio that survives;
* **fleet sweep** — income mean x report interval over a small fleet
  of harvesters, each with its own :func:`~repro.faults.plan.
  stable_uniform`-seeded income trace, aggregating delivery.

Every cell is a pure function of its parameters (seeded income,
pre-drawn fault plans, no simulator state), so the sweeps fan over the
process pool with bit-identical results at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy import calibration as cal
from ..energy.harvest import EnergyIncomeTrace, HarvestRun, run_harvest_policy
from ..energy.trace import CurrentTrace
from ..faults import FaultConfig, build_fault_plan
from ..obs import audit_harvest
from ..obs.audit import AuditReport
from .report import format_si, render_table
from .runner import run_grid

#: The harvested report's full wake cost, derived from calibration the
#: same way the batteryless scenario derives it from its proven run
#: (cold boot + the Wi-LE TX window at low-power TX current).
WAKE_COST_J = (cal.WILE_BOOT_S * cal.ESP32_BOOT_A
               + (cal.WILE_RADIO_WARMUP_S + 8.5e-4)
               * cal.ESP32_WIFI_TX_A) * cal.SUPPLY_VOLTAGE_V

_HARVESTER_DEVICE_ID = 0x00571706

DEFAULT_INTENSITIES = (0.0, 0.5, 1.0)
DEFAULT_INCOME_SCALES = (0.0, 0.5, 1.0, 2.0)
DEFAULT_INCOME_MEANS_W = (20e-6, 60e-6, 180e-6)
DEFAULT_INTERVALS_S = (120.0, 600.0, 1800.0)


@dataclass(frozen=True, slots=True)
class PhaseRow:
    """One labelled phase of a device-class trace."""

    label: str
    duration_s: float
    charge_c: float

    @property
    def average_current_a(self) -> float:
        return self.charge_c / self.duration_s if self.duration_s else 0.0


def phase_breakdown(trace: CurrentTrace) -> list[PhaseRow]:
    """Per-label span and charge, in first-appearance order."""
    order: list[str] = []
    durations: dict[str, float] = {}
    for segment in trace:
        if segment.label not in durations:
            order.append(segment.label)
            durations[segment.label] = 0.0
        durations[segment.label] += segment.duration_s
    charges = trace.charge_by_label()
    return [PhaseRow(label=label, duration_s=durations[label],
                     charge_c=charges.get(label, 0.0)) for label in order]


@dataclass(frozen=True, slots=True)
class ResilienceCell:
    """One harvester-resilience sweep cell, picklable."""

    intensity: float
    income_scale: float
    seed: int = 7
    horizon_s: float = cal.HARVEST_HORIZON_S
    report_interval_s: float = cal.HARVEST_REPORT_INTERVAL_S


@dataclass(frozen=True, slots=True)
class ResiliencePoint:
    """One cell's outcome: the harvest run plus its provenance."""

    cell: ResilienceCell
    run: HarvestRun

    def to_row(self) -> dict:
        return {
            "intensity": self.cell.intensity,
            "income_scale": self.cell.income_scale,
            "attempts": self.run.attempts,
            "delivered": self.run.transmitted,
            "missed": self.run.missed,
            "brownouts": self.run.brownouts,
            "delivery_ratio": self.run.delivery_ratio,
            "harvested_j": self.run.harvested_j,
            "spilled_j": self.run.spilled_j,
        }


def run_resilience_cell(cell: ResilienceCell) -> ResiliencePoint:
    """Expand the cell's fault plan and gate a harvester through it."""
    config = FaultConfig(seed=cell.seed, duration_s=cell.horizon_s,
                         intensity=cell.intensity)
    plan = build_fault_plan(config, device_ids=(_HARVESTER_DEVICE_ID,))
    brownout_times = tuple(sorted(
        fault.time_s for fault in plan.device_faults
        if fault.kind == "brownout"))
    income = EnergyIncomeTrace.seeded(cell.seed, cell.horizon_s).scaled(
        cell.income_scale)
    run = run_harvest_policy(income, wake_cost_j=WAKE_COST_J,
                             report_interval_s=cell.report_interval_s,
                             horizon_s=cell.horizon_s,
                             brownout_times_s=brownout_times)
    return ResiliencePoint(cell=cell, run=run)


def run_harvester_resilience(
        intensities=DEFAULT_INTENSITIES,
        income_scales=DEFAULT_INCOME_SCALES,
        workers: int = 1) -> list[ResiliencePoint]:
    """The brownout x income grid (intensity-major, scale-minor order)."""
    cells = [ResilienceCell(intensity=intensity, income_scale=scale)
             for intensity in intensities for scale in income_scales]
    return run_grid(run_resilience_cell, cells, workers=workers)


@dataclass(frozen=True, slots=True)
class FleetCell:
    """One fleet-sweep cell: a small fleet of harvesters, picklable."""

    income_mean_w: float
    report_interval_s: float
    device_count: int = 8
    seed: int = 42
    horizon_s: float = cal.HARVEST_HORIZON_S


@dataclass(frozen=True, slots=True)
class FleetPoint:
    """One cell's fleet: every device's harvest run, aggregated on read
    so the audited runs are exactly what the table reports."""

    cell: FleetCell
    runs: tuple[HarvestRun, ...]

    @property
    def attempts(self) -> int:
        return sum(run.attempts for run in self.runs)

    @property
    def delivered(self) -> int:
        return sum(run.transmitted for run in self.runs)

    @property
    def missed(self) -> int:
        return sum(run.missed for run in self.runs)

    @property
    def min_device_ratio(self) -> float:
        return min(run.delivery_ratio for run in self.runs)

    @property
    def max_device_ratio(self) -> float:
        return max(run.delivery_ratio for run in self.runs)

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.attempts if self.attempts else 1.0

    def to_row(self) -> dict:
        return {
            "income_mean_w": self.cell.income_mean_w,
            "report_interval_s": self.cell.report_interval_s,
            "devices": self.cell.device_count,
            "attempts": self.attempts,
            "delivered": self.delivered,
            "missed": self.missed,
            "delivery_ratio": self.delivery_ratio,
            "min_device_ratio": self.min_device_ratio,
            "max_device_ratio": self.max_device_ratio,
        }


def run_fleet_cell(cell: FleetCell) -> FleetPoint:
    """Gate every device in the cell's fleet through its own income."""
    # Each device's income is keyed on (cell seed, device index) — the
    # fleet population's per-device randomness discipline.
    return FleetPoint(cell=cell, runs=tuple(
        run_harvest_policy(
            EnergyIncomeTrace.seeded(cell.seed * 1000 + device,
                                     cell.horizon_s,
                                     mean_power_w=cell.income_mean_w),
            wake_cost_j=WAKE_COST_J,
            report_interval_s=cell.report_interval_s,
            horizon_s=cell.horizon_s)
        for device in range(cell.device_count)))


def run_harvester_fleet(income_means_w=DEFAULT_INCOME_MEANS_W,
                        intervals_s=DEFAULT_INTERVALS_S,
                        workers: int = 1) -> list[FleetPoint]:
    """The income x interval fleet grid."""
    cells = [FleetCell(income_mean_w=mean, report_interval_s=interval)
             for mean in income_means_w for interval in intervals_s]
    return run_grid(run_fleet_cell, cells, workers=workers)


def render_phases(results=None) -> str:
    """Figure 3-style phase tables for both new device classes."""
    from ..scenarios import run_batteryless, run_wur
    if results is None:
        results = {"WUR": run_wur(), "Batteryless": run_batteryless()}
    blocks = []
    for name in ("WUR", "Batteryless"):
        result = results[name]
        rows = [[phase.label, format_si(phase.duration_s, "s"),
                 format_si(phase.average_current_a, "A"),
                 format_si(phase.charge_c, "C")]
                for phase in phase_breakdown(result.trace)]
        rows.append(["(energy/packet)",
                     format_si(result.t_tx_s, "s"), "",
                     format_si(result.energy_per_packet_j, "J")])
        blocks.append(render_table(
            f"{name}: per-phase charge for one report",
            ["phase", "span", "avg current", "charge"], rows))
    return "\n\n".join(blocks)


def render_resilience(points) -> str:
    rows = [[f"{p.cell.intensity:g}", f"{p.cell.income_scale:g}",
             str(p.run.attempts), str(p.run.transmitted),
             str(p.run.missed), str(p.run.brownouts),
             f"{p.run.delivery_ratio:.3f}",
             format_si(p.run.harvested_j, "J")]
            for p in points]
    return render_table(
        "Harvester resilience: fault intensity x income scale",
        ["intensity", "income x", "scheduled", "delivered", "missed",
         "brownouts", "delivery", "harvested"], rows)


def render_fleet(points) -> str:
    rows = [[format_si(p.cell.income_mean_w, "W"),
             f"{p.cell.report_interval_s:g} s",
             str(p.cell.device_count), str(p.attempts), str(p.delivered),
             f"{p.delivery_ratio:.3f}",
             f"{p.min_device_ratio:.3f}..{p.max_device_ratio:.3f}"]
            for p in points]
    return render_table(
        "Harvester fleet: income mean x report interval",
        ["income", "interval", "devices", "scheduled", "delivered",
         "delivery", "per-device range"], rows)


def audit_points(points) -> AuditReport:
    """Fold the harvest audit over every sweep run: one per resilience
    cell, one per device of each fleet cell."""
    report = AuditReport()
    for point in points:
        if isinstance(point, ResiliencePoint):
            report.merge(audit_harvest(
                point.run, subject=f"harvest[i={point.cell.intensity:g},"
                                   f"x{point.cell.income_scale:g}]"))
            continue
        subject = (f"harvest-fleet[{point.cell.income_mean_w:g}W,"
                   f"{point.cell.report_interval_s:g}s]")
        for run in point.runs:
            report.merge(audit_harvest(run, subject=subject))
    return report


@dataclass(frozen=True, slots=True)
class NewDevicesReport:
    """The three views, as ``python -m repro.experiments`` prints them."""

    scenarios: dict
    resilience: list[ResiliencePoint]
    fleet: list[FleetPoint]

    def render(self) -> str:
        return "\n\n".join([render_phases(self.scenarios),
                             render_resilience(self.resilience),
                             render_fleet(self.fleet)])


def run_new_devices(results=None, workers: int = 1) -> NewDevicesReport:
    """Phase tables (from the scenario ``results`` when given) plus both
    harvester sweeps."""
    return NewDevicesReport(
        scenarios=results,
        resilience=run_harvester_resilience(workers=workers),
        fleet=run_harvester_fleet(workers=workers))
