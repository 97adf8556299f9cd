"""Run one fleet at scale from the shell.

    python -m repro.fleet --devices 10000 --duration 86400 \
        --shards 16 --workers 8 --audit        # the headline run

``--audit`` cross-checks the accounting invariants
(:func:`repro.obs.audit.audit_fleet`) and fails hard on violation. The
shard-count invariance and kill-a-worker recovery checks are
``repro.check`` oracles: ``python -m repro.check --full --only
fleet-shards-vs-single --only chaos-fleet-worker-kill``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from ..experiments.report import format_si
from ..obs import audit_fleet
from .population import FleetConfig, FleetError, generate_fleet
from .shards import run_sharded_fleet


def _render(aggregate) -> str:
    mean_current = (aggregate.avg_current_a.mean
                    if aggregate.avg_current_a.count else 0.0)
    lines = [
        f"devices               {aggregate.device_count}",
        f"gateways              {aggregate.receiver_count}",
        f"shards                {aggregate.shard_count}",
        f"horizon               {aggregate.duration_s:g} s",
        f"wakes                 {aggregate.wakes}",
        f"beacons sent          {aggregate.beacons_sent}"
        f" (+{aggregate.beacons_in_flight} in flight at horizon)",
        f"uplink delivered      {aggregate.uplink_delivered}",
        f"uplink collision loss {aggregate.uplink_lost_collision}",
        f"uplink snr loss       {aggregate.uplink_lost_snr}",
        f"uplink out of range   {aggregate.uplink_out_of_range}",
        f"delivery rate         {aggregate.delivery_rate:.4f}",
        f"collision rate        {aggregate.collision_rate:.4f}",
        f"channel utilisation   {aggregate.channel_utilisation:.4%}",
        f"mean device current   {format_si(mean_current, 'A')}",
        f"CR2032 battery life   {aggregate.battery_years():.2f} years",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Simulate a Wi-LE fleet via the sharded runner.")
    parser.add_argument("--devices", type=int, default=10_000)
    parser.add_argument("--area", type=float, nargs=2, default=(500.0, 500.0),
                        metavar=("X_M", "Y_M"))
    parser.add_argument("--interval", type=float, default=600.0,
                        metavar="S", help="beacon period (default 600 s)")
    parser.add_argument("--duration", type=float, default=24 * 3600.0,
                        metavar="S", help="simulated horizon (default 24 h)")
    parser.add_argument("--layout", default="uniform",
                        choices=("uniform", "grid", "clusters"))
    parser.add_argument("--start", default="staggered",
                        choices=("staggered", "synchronised"))
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kernel", default="cohort",
                        choices=("cohort", "event"),
                        help="per-shard engine: the vectorized cohort "
                             "kernel (default), or the discrete-event "
                             "reference it is checked against (identical "
                             "output, ≥10x slower at fleet density)")
    parser.add_argument("--audit", action="store_true",
                        help="cross-check accounting invariants; "
                             "non-zero exit on violation")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also dump the merged aggregate as JSON")
    parser.add_argument("--checkpoint", metavar="DIR", default=None,
                        help="shard checkpoint directory: finished shards "
                             "persist and a rerun resumes instead of "
                             "resimulating")
    args = parser.parse_args(argv)
    for flag, value in (("--shards", args.shards),
                        ("--workers", args.workers)):
        if value < 1:
            parser.error(f"{flag} must be >= 1, got {value}")
    try:
        config = FleetConfig(
            device_count=args.devices, area_m=tuple(args.area),
            interval_s=args.interval, duration_s=args.duration,
            layout=args.layout, start=args.start, seed=args.seed)
    except FleetError as error:
        parser.error(str(error))
    started = time.perf_counter()
    plan = generate_fleet(config)
    aggregate = run_sharded_fleet(plan, shard_count=args.shards,
                                  workers=args.workers,
                                  checkpoint_dir=args.checkpoint,
                                  kernel=args.kernel)
    elapsed = time.perf_counter() - started
    print(_render(aggregate))
    print(f"wall clock            {elapsed:.1f} s "
          f"({aggregate.duration_s / elapsed:.0f}x real time)")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    line = f"peak memory           {peak_mb:.0f} MB (this process)"
    if args.workers > 1:
        # run_sharded_fleet joins its pool before returning, so the
        # children's figure (the largest one's peak) is complete.
        worker_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        line += f", {worker_mb:.0f} MB (largest pool worker)"
    print(line)

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(aggregate.to_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    if args.audit:
        report = audit_fleet(aggregate)
        print()
        print(report.render())
        if not report.ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
