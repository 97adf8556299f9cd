"""Run the gateway ingest service (or its smokes) from the shell.

    python -m repro.service --record stream.bin --payloads 200000
                                               # record a beacon stream
    python -m repro.service --replay stream.bin --checkpoint /var/tmp/gw
                                               # ingest it, checkpointed
    python -m repro.service --soak --payloads 1000000
                                               # throughput soak (payloads/min)
    python -m repro.service --chaos-smoke      # kill a decode worker
                                               # mid-stream; aggregates must
                                               # match the clean run exactly
    python -m repro.service --chaos-suite      # every gateway-level fault
                                               # scenario (kill/hang/slow-
                                               # drain/corrupt/stall) through
                                               # a supervised 3-gateway
                                               # federation; each must end
                                               # bit-identical to one clean
                                               # gateway
    python -m repro.service --replay stream.bin --federate 3
                                               # federated replay: partition
                                               # the stream over N supervised
                                               # gateways and merge

Without ``--replay``/``--soak``/``--chaos-smoke``/``--chaos-suite`` the
service runs as a daemon: it starts, resumes from ``--checkpoint`` if present, and waits
for SIGTERM/SIGINT, draining gracefully on either — the mode a real
deployment runs under systemd. (There is no network listener in the
reproduction; frames arrive via recorded streams or embedding
:class:`repro.service.GatewayService` directly.)
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import tempfile
import time

from ..experiments.runner import injected
from ..faults.service import SERVICE_FAULT_SCENARIOS, build_service_fault_plan
from .federation import (
    FederationConfig,
    FederationCoordinator,
    tenant_state_digest,
)
from .queues import BackpressurePolicy
from .replay import generate_stream, load_stream, record_stream, replay
from .server import GatewayService, ServiceConfig


def _config_from_args(args, policy: BackpressurePolicy | None = None,
                      **overrides) -> ServiceConfig:
    options = dict(
        checkpoint_dir=args.checkpoint,
        queue_capacity=args.queue_capacity,
        policy=policy or BackpressurePolicy.parse(args.policy),
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


def _tenant_digest(service) -> dict:
    """The exact aggregate state, for equality checks across runs."""
    return {str(tenant_id): aggregate.to_state()
            for tenant_id, aggregate in sorted(service.tenants.items())}


def _soak(args) -> int:
    """Unpaced lossless ingest of a generated stream; the ≥1M
    payloads/minute target lives here (and in ``BENCH_service.json``
    via ``benchmarks/bench_service.py``)."""
    wires = generate_stream(args.payloads, device_count=args.devices,
                            seed=args.seed, corrupt_fraction=0.001)
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


def _chaos_smoke(args) -> int:
    """Clean run vs worker-killed-mid-stream run over one stream; the
    ordered-merge + resubmission design must make them *identical*."""
    payloads = min(args.payloads, 40_000)
    wires = generate_stream(payloads, device_count=args.devices,
                            seed=args.seed, corrupt_fraction=0.002)
    config = _config_from_args(
        args, policy=BackpressurePolicy.BLOCK, checkpoint_dir=None,
        workers=max(args.workers, 1), metrics_interval_s=0.0)
    service, _ = asyncio.run(_run_replay(wires, config))
    clean = _tenant_digest(service)
    clean_stats = service.stats()
    kill_batch = max(clean_stats.batches_merged // 2, 1)
    with injected({"service.batch": kill_batch}):
        service, _ = asyncio.run(_run_replay(wires, config))
    chaos = _tenant_digest(service)
    stats = service.stats()
    print(_render(stats))
    if stats.rescued_batches == 0:
        print("\nCHAOS SMOKE INVALID: no worker was killed "
              f"(kill batch {kill_batch} never dispatched?)")
        return 1
    if chaos != clean:
        print("\nCHAOS RECOVERY MISMATCH: aggregates differ from the "
              "clean run")
        return 1
    print(f"\nchaos recovery holds: worker killed on batch {kill_batch}, "
          f"{stats.rescued_batches} batch(es) rescued, aggregates "
          f"bit-identical to the clean run")
    return 0


def _federation_config(args, checkpoint_root: str | None,
                       **overrides) -> FederationConfig:
    options = dict(
        gateways=args.federate or 3,
        checkpoint_root=checkpoint_root,
        workers=args.workers,
        seed=args.seed,
        drain_deadline_s=args.drain_deadline,
    )
    options.update(overrides)
    return FederationConfig(**options)


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


def _chaos_suite(args) -> int:
    """The federation chaos suite: one clean single-gateway reference
    run, then every gateway-level fault scenario through a supervised
    federation — each must end with *bit-identical* per-tenant
    aggregates (``to_state`` equality via a canonical digest) and
    conserve the frame count exactly."""
    payloads = min(args.payloads, 20_000)
    gateways = args.federate or 3
    wires = generate_stream(payloads, device_count=args.devices,
                            tenant_count=2 * gateways, seed=args.seed,
                            corrupt_fraction=0.002)
    reference_config = _config_from_args(
        args, policy=BackpressurePolicy.BLOCK, checkpoint_dir=None,
        workers=0, metrics_interval_s=0.0, checkpoint_interval_s=0.0)
    service, _ = asyncio.run(_run_replay(wires, reference_config))
    reference = tenant_state_digest(service.tenants)
    reference_stats = service.stats()
    print(f"reference: 1 gateway, {reference_stats.ingested} payloads, "
          f"{reference_stats.decode_errors} decode errors")
    failed = []
    for scenario in SERVICE_FAULT_SCENARIOS:
        plan = build_service_fault_plan(
            scenario, seed=args.seed, gateway_count=gateways,
            frames_hint=max(len(wires) // gateways, 1))
        with tempfile.TemporaryDirectory(
                prefix=f"federation-{scenario}-") as root:
            config = _federation_config(
                args, root, gateways=gateways,
                # Fast cadence so kills land on a non-empty watermark
                # and the suite still runs in seconds.
                checkpoint_interval_s=0.03, durable_checkpoints=False)
            started = time.perf_counter()
            report = asyncio.run(
                FederationCoordinator(config, plan).run(wires))
            elapsed = time.perf_counter() - started
        problems = []
        if report.digest() != reference:
            problems.append("aggregates differ from the clean run")
        if report.ingested != reference_stats.ingested:
            problems.append(f"ingested {report.ingested} != "
                            f"{reference_stats.ingested}")
        if report.decode_errors != reference_stats.decode_errors:
            problems.append(f"decode errors {report.decode_errors} != "
                            f"{reference_stats.decode_errors}")
        if report.failovers < 1:
            problems.append("fault never triggered a failover")
        if report.restarts != report.failovers:
            problems.append(f"restarts {report.restarts} != failovers "
                            f"{report.failovers}")
        expected = [report.expected_delay(e.slot, e.attempt)
                    for e in report.events if e.kind == "failover"]
        actual = [e.delay_s for e in report.events if e.kind == "failover"]
        if actual != expected:
            problems.append(f"backoff schedule drifted: {actual} != "
                            f"{expected}")
        verdict = "ok" if not problems else "FAIL"
        print(f"{scenario:<20} {verdict}  failovers={report.failovers} "
              f"restarts={report.restarts} deduped={report.deduped} "
              f"({elapsed:.2f}s)")
        for problem in problems:
            print(f"    {problem}")
        if problems:
            failed.append(scenario)
    if failed:
        print(f"\nCHAOS SUITE FAILED: {', '.join(failed)}")
        return 1
    print(f"\nchaos suite holds: {len(SERVICE_FAULT_SCENARIOS)} scenarios, "
          f"all bit-identical to the unfaulted single-gateway run")
    return 0


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
                        help="full-queue behaviour (replay/soak/chaos "
                             "force 'block' for reproducibility)")
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
    parser.add_argument("--chaos-smoke", action="store_true",
                        help="SIGKILL a decode worker mid-stream; exit 1 "
                             "unless aggregates match the clean run "
                             "exactly")
    parser.add_argument("--chaos-suite", action="store_true",
                        help="run every gateway-level fault scenario "
                             "through a supervised federation; exit 1 "
                             "unless each ends bit-identical to the "
                             "unfaulted single-gateway run")
    parser.add_argument("--federate", type=int, default=None, metavar="N",
                        help="replay through N supervised federated "
                             "gateways (also sizes --chaos-suite)")
    parser.add_argument("--drain-deadline", type=float, default=None,
                        metavar="S",
                        help="hard ceiling on the SIGTERM/stop drain; a "
                             "hung drain fails loudly instead of "
                             "stalling forever")
    args = parser.parse_args(argv)

    if args.record:
        wires = generate_stream(args.payloads, device_count=args.devices,
                                seed=args.seed,
                                corrupt_fraction=args.corrupt_fraction)
        count = record_stream(args.record, wires,
                              header_extra={"seed": args.seed})
        print(f"recorded {count} frames to {args.record}")
        return 0
    if args.soak:
        return _soak(args)
    if args.chaos_smoke:
        return _chaos_smoke(args)
    if args.chaos_suite:
        return _chaos_suite(args)

    if args.replay and args.federate:
        wires = load_stream(args.replay)
        config = _federation_config(args, args.checkpoint)
        started = time.perf_counter()
        report = asyncio.run(FederationCoordinator(config).run(wires))
        elapsed = time.perf_counter() - started
        print(_render_federation(report, elapsed))
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(tenant_state_digest(report.tenants), handle)
            print(f"wrote {args.json}")
        return 0

    config = _config_from_args(args)
    if args.replay:
        wires = load_stream(args.replay)
        service, elapsed = asyncio.run(
            _run_replay(wires, config, rate_per_s=args.rate))
        print(_render(service.stats(), elapsed))
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(_tenant_digest(service), handle, indent=2,
                          sort_keys=True)
            print(f"wrote {args.json}")
        return 0
    return asyncio.run(_run_daemon(args, config))


if __name__ == "__main__":
    sys.exit(main())
