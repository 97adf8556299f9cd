"""Experiment: Wi-LE at fleet scale — density sweep over the shard runner.

The paper argues (§6) that Wi-LE tolerates multi-device deployments
because clock jitter desynchronises colliding senders. That argument is
made at ~10 devices; this experiment asks what happens at city-block
density: thousands of sensors sharing one channel, a grid of
monitor-mode gateways, 24-hour horizons. For each (device count,
beacon interval) cell of the sweep it reports the collision rate,
uplink delivery rate, channel utilisation, and the CR2032 battery life
the paper's energy model predicts at that density.

The heavy lifting lives in :mod:`repro.fleet`: the plane is sharded
into independent simulators with interference halos, fanned over the
experiment process pool, and merged into one exact
:class:`~repro.fleet.aggregate.FleetAggregate` per sweep point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..fleet import FleetConfig, generate_fleet, run_sharded_fleet
from ..fleet.aggregate import FleetAggregate, counters_equal, moments_close
from ..obs import METRICS
from .report import format_si, render_table

#: The default sweep: device density rises ~20x across the grid while
#: the area stays fixed, so the collision curves isolate density.
DEFAULT_DEVICE_COUNTS = (250, 500, 1000)
DEFAULT_INTERVALS_S = (60.0, 300.0)
DEFAULT_AREA_M = (150.0, 150.0)
DEFAULT_DURATION_S = 1800.0


@dataclass
class FleetScalePoint:
    """One sweep cell: its config knobs plus the merged aggregate.

    Deliberately not frozen: it carries the mutable
    :class:`FleetAggregate`, and freezing a dataclass around mutable
    state only fakes immutability (see ``MultiDeviceReport``'s history).
    """

    device_count: int
    interval_s: float
    area_m: tuple[float, float]
    shard_count: int
    start: str
    aggregate: FleetAggregate

    @property
    def density_per_ha(self) -> float:
        """Devices per hectare — the sweep's x-axis."""
        return self.device_count / (self.area_m[0] * self.area_m[1] / 1e4)

    def to_row(self) -> dict:
        """Flat scalars for the CSV artifact."""
        aggregate = self.aggregate
        return {
            "device_count": self.device_count,
            "interval_s": self.interval_s,
            "area_x_m": self.area_m[0],
            "area_y_m": self.area_m[1],
            "density_per_ha": self.density_per_ha,
            "shard_count": self.shard_count,
            "start": self.start,
            "beacons_sent": aggregate.beacons_sent,
            "delivery_rate": aggregate.delivery_rate,
            "collision_rate": aggregate.collision_rate,
            "channel_utilisation": aggregate.channel_utilisation,
            "mean_current_a": (aggregate.avg_current_a.mean
                               if aggregate.avg_current_a.count else 0.0),
            "battery_years": aggregate.battery_years(),
        }


def run_fleet_point(config: FleetConfig, shard_count: int = 4,
                    workers: int = 1) -> FleetScalePoint:
    """Run one fleet configuration through the sharded runner."""
    plan = generate_fleet(config)
    aggregate = run_sharded_fleet(plan, shard_count=shard_count,
                                  workers=workers)
    labels = {"devices": str(config.device_count),
              "interval_s": f"{config.interval_s:g}"}
    METRICS.counter("fleet.beacons_sent", **labels).inc(
        aggregate.beacons_sent)
    METRICS.counter("fleet.uplink_delivered", **labels).inc(
        aggregate.uplink_delivered)
    METRICS.counter("fleet.uplink_lost_collision", **labels).inc(
        aggregate.uplink_lost_collision)
    METRICS.gauge("fleet.delivery_rate", **labels).set(
        aggregate.delivery_rate)
    METRICS.gauge("fleet.channel_utilisation", **labels).set(
        aggregate.channel_utilisation)
    return FleetScalePoint(
        device_count=config.device_count,
        interval_s=config.interval_s,
        area_m=config.area_m,
        shard_count=shard_count,
        start=config.start,
        aggregate=aggregate)


def run_fleet_scale(device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
                    intervals_s: Sequence[float] = DEFAULT_INTERVALS_S,
                    area_m: tuple[float, float] = DEFAULT_AREA_M,
                    duration_s: float = DEFAULT_DURATION_S,
                    shard_count: int = 4, workers: int = 1,
                    seed: int = 0,
                    include_synchronised: bool = True,
                    ) -> list[FleetScalePoint]:
    """The density sweep: every (device count, interval) combination.

    Parallelism happens *inside* each point — shards fan over the pool —
    so points run sequentially and the per-point metrics stay ordered.

    With staggered wake phases the curves stay flat (capture at the
    near gateway absorbs almost every distant overlap), so the sweep
    ends with one ``synchronised``-start point at the densest cell —
    the §6 worst case, where the collision knee actually shows.
    """
    points = []
    for device_count in device_counts:
        for interval_s in intervals_s:
            config = FleetConfig(device_count=device_count,
                                 interval_s=interval_s,
                                 duration_s=duration_s,
                                 area_m=area_m, seed=seed)
            points.append(run_fleet_point(config, shard_count=shard_count,
                                          workers=workers))
    if include_synchronised and device_counts and intervals_s:
        config = FleetConfig(device_count=max(device_counts),
                             interval_s=min(intervals_s),
                             duration_s=duration_s, area_m=area_m,
                             start="synchronised", seed=seed)
        points.append(run_fleet_point(config, shard_count=shard_count,
                                      workers=workers))
    return points


def audit_points(points: Sequence[FleetScalePoint]):
    """Fold :func:`repro.obs.audit.audit_fleet` over every sweep point."""
    from ..obs.audit import AuditReport, audit_fleet
    report = AuditReport()
    for point in points:
        report.merge(audit_fleet(
            point.aggregate, subject=f"fleet[{point.device_count}x"
                                     f"{point.interval_s:g}s,{point.start}]"))
    return report


def run_fleet_smoke(device_count: int = 200, shard_count: int = 2,
                    area_m: tuple[float, float] = (100.0, 50.0),
                    interval_s: float = 60.0, duration_s: float = 900.0,
                    workers: int = 1, seed: int = 0,
                    kernel: str = "cohort",
                    ) -> tuple[FleetAggregate, list[str]]:
    """The CI smoke check: run one small fleet unsharded and sharded,
    and return the merged aggregate plus any invariance violations
    (empty list = 1-shard and N-shard runs agree exactly)."""
    config = FleetConfig(device_count=device_count, area_m=area_m,
                         interval_s=interval_s, duration_s=duration_s,
                         seed=seed)
    plan = generate_fleet(config)
    single = run_sharded_fleet(plan, shard_count=1, workers=1,
                               kernel=kernel)
    sharded = run_sharded_fleet(plan, shard_count=shard_count,
                                workers=workers, kernel=kernel)
    mismatches = counters_equal(single, sharded)
    mismatches += [f"moments:{name}"
                   for name in moments_close(single, sharded)]
    return sharded, mismatches


def render(points: Sequence[FleetScalePoint]) -> str:
    rows = []
    for point in points:
        aggregate = point.aggregate
        rows.append([
            str(point.device_count),
            f"{point.interval_s:.0f} s",
            point.start,
            f"{point.density_per_ha:.0f}",
            str(aggregate.beacons_sent),
            f"{aggregate.delivery_rate:.4f}",
            f"{aggregate.collision_rate:.4f}",
            f"{aggregate.channel_utilisation:.2%}",
            format_si(aggregate.avg_current_a.mean
                      if aggregate.avg_current_a.count else 0.0, "A"),
            f"{aggregate.battery_years():.2f}",
        ])
    return render_table(
        "Fleet scale: density sweep over the sharded runner",
        ["devices", "interval", "start", "per ha", "sent", "delivery",
         "collision", "util", "mean current", "CR2032 yrs"], rows)
