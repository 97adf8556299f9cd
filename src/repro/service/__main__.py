"""Run the gateway ingest service from the shell.

    python -m repro.service --record stream.bin --payloads 200000
                                               # record a beacon stream
    python -m repro.service --replay stream.bin --checkpoint /var/tmp/gw
                                               # ingest it, checkpointed
    python -m repro.service --soak --payloads 1000000
                                               # throughput soak (payloads/min)
    python -m repro.service --replay stream.bin --federate 3
                                               # federated replay: partition
                                               # the stream over N supervised
                                               # gateways and merge

Without ``--replay``/``--soak`` the service runs as a daemon: it
starts, resumes from ``--checkpoint`` if present, and waits
for SIGTERM/SIGINT, draining gracefully on either — the mode a real
deployment runs under systemd. (There is no network listener in the
reproduction; frames arrive via recorded streams or embedding
:class:`repro.service.GatewayService` directly.) The chaos checks — a
decode worker or a whole gateway killed mid-stream must change no
aggregate — are ``repro.check`` oracles: ``python -m repro.check
--full --only chaos-service-worker-kill --only chaos-federation``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time

from .federation import (FederationConfig, FederationCoordinator,
                         FederationError)
from .queues import BackpressurePolicy
from .replay import generate_stream, load_stream, record_stream, replay
from .server import GatewayService, ServiceConfig


def _config_from_args(args, **overrides) -> ServiceConfig:
    options = dict(
        checkpoint_dir=args.checkpoint,
        queue_capacity=args.queue_capacity,
        policy=BackpressurePolicy.parse(args.policy),
        batch_size=args.batch_size,
        workers=args.workers,
        checkpoint_interval_s=args.checkpoint_interval,
        drain_deadline_s=args.drain_deadline,
    )
    options.update(overrides)
    return ServiceConfig(**options)


def _render(stats, elapsed_s: float | None = None) -> str:
    lines = [
        f"payloads ingested     {stats.ingested}",
        f"decode errors         {stats.decode_errors}",
        f"batches merged        {stats.batches_merged}"
        f"/{stats.batches_dispatched}",
        f"rescued batches       {stats.rescued_batches}",
        f"dropped (drop-oldest) {stats.dropped_oldest}",
        f"blocked puts          {stats.blocked_puts}",
        f"tenants               {stats.tenant_count}",
        f"devices               {stats.device_count}",
        f"checkpoints written   {stats.checkpoints_written}",
    ]
    if elapsed_s:
        per_minute = stats.ingested / elapsed_s * 60.0
        lines.append(f"ingest rate           {per_minute:,.0f} payloads/min "
                     f"({elapsed_s:.1f} s wall clock)")
    return "\n".join(lines)


async def _run_replay(wires, config: ServiceConfig,
                      rate_per_s: float | None = None):
    service = GatewayService(config)
    await service.start()
    started = time.perf_counter()
    await replay(service, wires, rate_per_s=rate_per_s)
    await service.stop()
    return service, time.perf_counter() - started


def _write_aggregates(path: str, tenants) -> None:
    """Dump the exact per-tenant aggregate state as JSON."""
    with open(path, "w") as handle:
        json.dump({str(tenant_id): aggregate.to_state()
                   for tenant_id, aggregate in sorted(tenants.items())},
                  handle, indent=2, sort_keys=True)
    print(f"wrote {path}")


def _soak(args, wires) -> int:
    """Unpaced lossless ingest of a generated stream; the ≥1M
    payloads/minute target lives here (and in ``BENCH_service.json``
    via ``benchmarks/bench_service.py``)."""
    config = _config_from_args(args, policy=BackpressurePolicy.BLOCK,
                               checkpoint_dir=None, metrics_interval_s=0.0)
    service, elapsed = asyncio.run(_run_replay(wires, config))
    stats = service.stats()
    print(_render(stats, elapsed))
    per_minute = stats.ingested / elapsed * 60.0
    if args.target_per_minute and per_minute < args.target_per_minute:
        print(f"\nSOAK BELOW TARGET: {per_minute:,.0f} < "
              f"{args.target_per_minute:,.0f} payloads/min")
        return 1
    return 0


def _render_federation(report, elapsed_s: float | None = None) -> str:
    lines = [
        f"gateways              {report.gateways}",
        f"payloads ingested     {report.ingested}",
        f"decode errors         {report.decode_errors}",
        f"failovers             {report.failovers}",
        f"restarts              {report.restarts}",
        f"handbacks             {report.handbacks}",
        f"replay frames deduped {report.deduped}",
        f"tenants               {len(report.tenants)}",
    ]
    if report.recovery_s is not None:
        lines.append(f"first failover recovery {report.recovery_s * 1e3:.1f} ms")
    if elapsed_s:
        per_minute = report.ingested / elapsed_s * 60.0
        lines.append(f"ingest rate           {per_minute:,.0f} payloads/min "
                     f"({elapsed_s:.1f} s wall clock)")
    return "\n".join(lines)


async def _run_daemon(args, config: ServiceConfig) -> int:
    service = GatewayService(config)
    await service.start()
    service.install_signal_handlers((signal.SIGTERM, signal.SIGINT))
    print("gateway up; waiting for SIGTERM/SIGINT", file=sys.stderr)
    while not service.stopped:
        await asyncio.sleep(0.2)
    print(_render(service.stats()))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Always-on Wi-LE gateway ingest service.")
    parser.add_argument("--payloads", type=int, default=1_000_000)
    parser.add_argument("--devices", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="decode pool size; 0 = inline fast path "
                             "(default)")
    parser.add_argument("--queue-capacity", type=int, default=65536)
    parser.add_argument("--batch-size", type=int, default=2048)
    parser.add_argument("--policy", default="drop-oldest",
                        choices=[p.value for p in BackpressurePolicy],
                        help="full-queue behaviour (--soak forces "
                             "'block' for reproducibility)")
    parser.add_argument("--checkpoint", metavar="DIR", default=None)
    parser.add_argument("--checkpoint-interval", type=float, default=5.0,
                        metavar="S")
    parser.add_argument("--rate", type=float, default=None, metavar="PER_S",
                        help="pace --replay at this payloads/second")
    parser.add_argument("--record", metavar="PATH", default=None,
                        help="generate a stream file and exit")
    parser.add_argument("--replay", metavar="PATH", default=None,
                        help="ingest a recorded stream file")
    parser.add_argument("--corrupt-fraction", type=float, default=0.0,
                        help="for --record: fraction of frames corrupted")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="dump final per-tenant aggregates as JSON")
    parser.add_argument("--soak", action="store_true",
                        help="unpaced throughput soak over a generated "
                             "stream; exit 1 below --target-per-minute")
    parser.add_argument("--target-per-minute", type=float, default=None,
                        help="soak throughput floor (e.g. 1000000)")
    parser.add_argument("--federate", type=int, default=None, metavar="N",
                        help="replay through N supervised federated "
                             "gateways")
    parser.add_argument("--drain-deadline", type=float, default=None,
                        metavar="S",
                        help="hard ceiling on the SIGTERM/stop drain; a "
                             "hung drain fails loudly instead of "
                             "stalling forever")
    args = parser.parse_args(argv)
    try:
        if args.rate is not None and not args.rate > 0:
            raise ValueError(f"--rate must be > 0, got {args.rate:g}")
        config = _config_from_args(args)
        federation = None if args.federate is None else FederationConfig(
            gateways=args.federate, checkpoint_root=args.checkpoint,
            workers=args.workers, seed=args.seed,
            drain_deadline_s=args.drain_deadline)
        wires = None
        if args.record or args.soak:
            # generate_stream checks its arguments before any frame.
            wires = generate_stream(
                args.payloads, device_count=args.devices, seed=args.seed,
                corrupt_fraction=(args.corrupt_fraction if args.record
                                  else 0.001))
    except (ValueError, FederationError) as error:
        parser.error(str(error))

    if args.record:
        count = record_stream(args.record, wires,
                              header_extra={"seed": args.seed})
        print(f"recorded {count} frames to {args.record}")
        return 0
    if args.soak:
        return _soak(args, wires)

    if args.replay and federation is not None:
        wires = load_stream(args.replay)
        started = time.perf_counter()
        report = asyncio.run(FederationCoordinator(federation).run(wires))
        elapsed = time.perf_counter() - started
        print(_render_federation(report, elapsed))
        if args.json:
            _write_aggregates(args.json, report.tenants)
        return 0

    if args.replay:
        wires = load_stream(args.replay)
        service, elapsed = asyncio.run(
            _run_replay(wires, config, rate_per_s=args.rate))
        print(_render(service.stats(), elapsed))
        if args.json:
            _write_aggregates(args.json, service.tenants)
        return 0
    return asyncio.run(_run_daemon(args, config))


if __name__ == "__main__":
    sys.exit(main())
