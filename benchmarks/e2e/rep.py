"""One repetition of one end-to-end workload, in a fresh process.

``run.py`` starts this file once per repetition so every repetition
pays — and measures — the set-up a user pays: interpreter start, the
``repro`` import (which builds the AES tables) and, for the gateway,
``GatewayService.start()``. It prints one JSON object as its last line
of standard output: the timings, the work done and the outputs the
harness checks.

    python3 benchmarks/e2e/rep.py --workload fleet-sparse --seed 0 \\
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"

With ``--trace-out PATH`` the measured interval runs with the layer
wrappers of :func:`instrument` installed and the spans are written to
PATH. With ``--setup-only`` the process stops after the set-up and
reports only ``setup_s``. The workload definitions (sizes, rates) live here too, so the
harness and the repetition can never disagree about them.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402

WORKLOADS = ("paper-driver", "fleet-sparse", "fleet-contended",
             "gateway-ingest")

#: paper-driver: the quick driver (the paper's own artifacts) followed
#: by the driver's three slowest sweeps, cut so a repetition takes ~8 s
#: instead of the full driver's ~130 s while keeping their shares of it
#: (fleet-scale 57%, contention 20%, reliability 15% in the full
#: driver; 60/24/15% in the cut). Contention and reliability keep every
#: cell with 1 of their 40 rounds; fleet-scale keeps its six staggered
#: cells over 210 s instead of 1800 s. Its synchronised-start cell is
#: left out: its first burst alone costs ~8 s at any duration.
DRIVER_ARGV = ["--quick", "--workers", "1"]
DRIVER_SWEEP_ROUNDS = 1
DRIVER_FLEET_DURATION_S = 210.0
#: Stages a driver repetition runs (its unit of attempted work).
DRIVER_STAGES = ("scenarios", "table1", "figure3", "figure4",
                 "frame_counts", "contention", "reliability", "fleet_scale")


@dataclass(frozen=True)
class FleetWorkload:
    device_count: int
    area_m: tuple[float, float]
    interval_s: float
    duration_s: float
    shards: int


FLEETS = {
    # Sparse: 99.7% of transmissions settle in bulk, so time goes to
    # wake replay, shard planning and halo copies.
    "fleet-sparse": FleetWorkload(50_000, (1000.0, 1000.0), 600.0,
                                  2 * 3600.0, 8),
    # Contended: a third of transmissions demote to the scalar
    # interference path.
    "fleet-contended": FleetWorkload(4_000, (120.0, 120.0), 1.0, 60.0, 4),
}

#: gateway-ingest stream shape (generated once per harness invocation).
GATEWAY_DEVICES = 4096
GATEWAY_TENANTS = 16
GATEWAY_CORRUPT_FRACTION = 0.001
#: The pump drains whatever is queued without yielding, so the loop only
#: turns — and the 1 s checkpoint only lands — when the queue runs dry.
#: With the default 65536-frame queue an unpaced producer starves the
#: checkpoint loop; a queue of four 2048-frame batches blocks the
#: producer every ~0.1 s, so checkpoints land on time, as on a gateway
#: whose intake outruns it.
GATEWAY_QUEUE_CAPACITY = 8192
#: Phase A: unpaced BLOCK-policy soaks over the stream's first frames,
#: each timed from its first submit until ``stop()`` has drained the
#: queue and written the final durable checkpoint. A soak takes ~1.5 s,
#: so it also carries one periodic checkpoint (due 1 s after start;
#: the soak would have to run 33% faster or slower to carry 0 or 2).
#: A repetition runs SOAK_ROUNDS of them after a warm-up soak (a
#: long-lived gateway runs warm), and each is one sample.
SOAK_PAYLOADS = 122_880
SOAK_ROUNDS = 2
#: Phase B: open loop, each rate for OPEN_LOOP_SECONDS, 128-frame chunks.
OPEN_LOOP_RATES = (20_000, 40_000)
OPEN_LOOP_SECONDS = 5.0
OPEN_LOOP_CHUNK = 128
CHECKPOINT_INTERVAL_S = 1.0
OPEN_LOOP_PAYLOADS = int(sum(OPEN_LOOP_RATES) * OPEN_LOOP_SECONDS)

#: Step-span names for the gateway's asyncio tasks.
TASK_LAYERS = {
    "GatewayService._pump": "service.pump",
    "GatewayService._checkpoint_loop": "service.checkpoint.loop",
    "GatewayService.stop": "service.stop",
    "Condition.wait_for": "service.queue.wait",
    "feed": "service.queue.submit",
}


def stream_payloads(open_loop: bool) -> int:
    """Frames the gateway stream needs for the phases being run."""
    return max(SOAK_PAYLOADS, OPEN_LOOP_PAYLOADS if open_loop else 0)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- tracing ------------------------------------------------------------------


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.core.codec import BeaconTemplate
    from repro.dot11 import parser
    from repro.experiments import __main__ as driver
    from repro.experiments import contention, fleet_scale, reliability, runner
    from repro.fleet import kernel, population, shards
    from repro.fleet.aggregate import FleetAggregate
    from repro.security.aes import Aes
    from repro.service import ingest
    from repro.service.checkpoint import ServiceCheckpointer
    from repro.service.tenants import TenantAggregate
    from repro.sim.engine import Simulator

    def span(name, original):
        tracer.patch_function(original, tracer.wrap(name, original))

    for name, original in (
            ("experiments.main", driver.main),
            ("experiments.scenarios", driver.run_all_scenarios),
            ("experiments.table1", driver.run_table1),
            ("experiments.figure3", driver.run_figure3),
            ("experiments.figure4", driver.run_figure4),
            ("experiments.frame_counts", driver.run_frame_counts),
            ("experiments.contention", contention.run_contention),
            ("experiments.contention.cell", contention.run_contention_point),
            ("experiments.reliability", reliability.run_reliability),
            ("experiments.reliability.cell",
             reliability.run_reliability_point),
            ("experiments.fleet_scale", fleet_scale.run_fleet_scale),
            ("experiments.fleet_scale.point", fleet_scale.run_fleet_point),
            ("experiments.runner.run_grid", runner.run_grid),
            ("fleet.population.generate_fleet", population.generate_fleet),
            ("fleet.shards.run_sharded_fleet", shards.run_sharded_fleet),
            ("fleet.shards.plan_shards", shards.plan_shards),
            ("fleet.shards.run_shard", shards.run_shard)):
        span(name, original)
    tracer.patch_function(parser.parse_frame, tracer.wrap_leaf(
        "dot11.parser.parse_frame", parser.parse_frame))

    def traced_run(run):
        def run_counting_events(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return run(sim, *args, **kwargs)
            finally:
                tracer.annotate(events=sim.events_processed - before)
        return tracer.wrap("sim.engine.run", run_counting_events)
    tracer.patch_method(Simulator, "run", traced_run)
    # Every beacon is built by BeaconTemplate.build (encode_beacon is a
    # one-line wrapper around it), so that is the encoder's boundary.
    tracer.patch_method(BeaconTemplate, "build", lambda build:
                        tracer.wrap_leaf("core.codec.encode_beacon", build))
    tracer.patch_method(Aes, "encrypt_block", lambda encrypt:
                        tracer.wrap_leaf("security.aes.encrypt_block",
                                         encrypt))

    run_cohort = kernel.run_shard_cohort

    def cohort_with_stats(shard, stats=None):
        stats = kernel.KernelStats() if stats is None else stats
        aggregate = run_cohort(shard, stats)
        tracer.annotate(transmissions=stats.transmissions,
                        cohort_resolved=stats.cohort_resolved,
                        demotions=stats.demotions)
        return aggregate
    tracer.patch_function(run_cohort, tracer.wrap(
        "fleet.kernel.run_shard_cohort", cohort_with_stats))
    for method in ("to_state", "from_state", "merge"):
        tracer.patch_method(FleetAggregate, method,
                            lambda fn, method=method: tracer.wrap(
                                f"fleet.aggregate.{method}", fn))

    decode = ingest.decode_wires
    batches = itertools.count()

    def decode_counting(wires, *args, **kwargs):
        payloads, errors = decode(wires, *args, **kwargs)
        tracer.annotate(frames=len(wires), errors=errors,
                        batch=next(batches))
        return payloads, errors
    tracer.patch_function(decode, tracer.wrap("service.ingest.decode_wires",
                                              decode_counting))
    tracer.patch_method(TenantAggregate, "observe", lambda observe:
                        tracer.wrap_leaf("service.tenants.observe", observe))
    tracer.patch_method(TenantAggregate, "to_state", lambda to_state:
                        tracer.wrap("service.tenants.to_state", to_state))

    def traced_save(save):
        def save_sizing(checkpointer, snapshot):
            path = save(checkpointer, snapshot)
            tracer.annotate(bytes=os.path.getsize(path))
            return path
        return tracer.wrap("service.checkpoint.save", save_sizing)
    tracer.patch_method(ServiceCheckpointer, "save", traced_save)


@contextlib.contextmanager
def measured(tracer: Tracer | None, window: list):
    """Time the enclosed block into ``window`` (``[start, end]``) and,
    when tracing, parent every span inside it under one reserved root."""
    root = token = None
    if tracer is not None:
        root = tracer.reserve()
        token = tracer.enter(root)
    window[:] = [perf_counter()]
    try:
        yield root
    finally:
        window.append(perf_counter())
        if tracer is not None:
            tracer.leave(token)


# -- workloads ----------------------------------------------------------------


def paper_driver(args, tracer: Tracer | None) -> dict:
    from repro.experiments import __main__ as driver
    from repro.experiments import contention, fleet_scale, reliability
    imported = time.monotonic()
    if args.setup_only:
        return {"setup_s": imported - args.spawned_at}
    if tracer is not None:
        instrument(tracer)
    window: list = []
    with measured(tracer, window) as root:
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            exit_code = driver.main(list(DRIVER_ARGV))
        contention_points = contention.run_contention(
            rounds=DRIVER_SWEEP_ROUNDS)
        reliability_points = reliability.run_reliability(
            rounds=DRIVER_SWEEP_ROUNDS)
        fleet_points = fleet_scale.run_fleet_scale(
            duration_s=DRIVER_FLEET_DURATION_S, seed=args.seed,
            include_synchronised=False)
        sections = {
            "quick": captured.getvalue(),
            "contention": contention.render(contention_points),
            "reliability": reliability.render(reliability_points),
            "fleet_scale": fleet_scale.render(fleet_points),
        }
    beacons = (sum(point.beacons_sent for point in contention_points)
               + sum(point.copies_on_air for point in reliability_points)
               + sum(point.aggregate.beacons_sent for point in fleet_points))
    return {
        "setup_s": imported - args.spawned_at,
        "window": window, "root": root,
        "beacons": beacons,
        "operations": len(DRIVER_STAGES),
        "outputs": {
            "exit_code": exit_code,
            "sha256": {name: sha256(text) for name, text in sections.items()},
            "fleet_states": [point.aggregate.to_state()
                             for point in fleet_points],
        },
    }


def fleet(args, tracer: Tracer | None) -> dict:
    import repro.fleet as fleet_package
    imported = time.monotonic()
    if args.setup_only:
        return {"setup_s": imported - args.spawned_at}
    spec = FLEETS[args.workload]
    config = fleet_package.FleetConfig(
        device_count=spec.device_count, area_m=spec.area_m,
        interval_s=spec.interval_s, duration_s=spec.duration_s,
        seed=args.seed)
    if tracer is not None:
        instrument(tracer)
    window: list = []
    with measured(tracer, window) as root:
        plan = fleet_package.generate_fleet(config)
        aggregate = fleet_package.run_sharded_fleet(
            plan, shard_count=spec.shards, workers=1, kernel="cohort")
    return {
        "setup_s": imported - args.spawned_at,
        "window": window, "root": root,
        "beacons": aggregate.beacons_sent,
        "operations": spec.shards,
        "outputs": {"state": aggregate.to_state()},
    }


class QueueProbe:
    """Submits chunks for a load generator, timing the puts that
    blocked on a full queue and tracking the deepest queue seen."""

    def __init__(self, service) -> None:
        self.service = service
        self.blocked_s = 0.0
        self.max_depth = 0

    async def submit(self, chunk) -> None:
        queue = self.service.queue
        blocked_before = queue.blocked_puts
        started = perf_counter()
        await self.service.submit_many(chunk)
        if queue.blocked_puts != blocked_before:
            self.blocked_s += perf_counter() - started
        self.max_depth = max(self.max_depth, len(queue))

    def stats(self) -> dict:
        queue = self.service.queue
        return {"blocked_s": self.blocked_s,
                "blocked_puts": queue.blocked_puts,
                "max_depth": self.max_depth}


def _service_outputs(service, frames: int) -> dict:
    """What a stopped service folded, and what its last durable
    checkpoint restores (a fresh checkpointer reads it back)."""
    from repro.service.checkpoint import ServiceCheckpointer
    from repro.service.federation import tenant_state_digest
    stats = service.stats()
    restored = ServiceCheckpointer(service.config.checkpoint_dir).load()
    return {"frames": frames, "digest": tenant_state_digest(service.tenants),
            "ingested": stats.ingested, "decode_errors": stats.decode_errors,
            "dropped": stats.dropped_oldest,
            "restored": None if restored is None else {
                "digest": tenant_state_digest(restored["tenants"]),
                "ingested": restored["ingested"],
                "decode_errors": restored["decode_errors"]}}


async def feed(probe: QueueProbe, wires, chunk: int) -> None:
    for start in range(0, len(wires), chunk):
        await probe.submit(wires[start:start + chunk])


async def soak(config, wires, tracer: Tracer | None) -> tuple[dict, object]:
    """Phase A: push the stream unpaced, then stop the service; time
    from the first submit until ``stop()`` has folded every frame and
    written the final checkpoint. Traced, every asyncio task step inside
    the window is a span."""
    from repro.service.server import GatewayService
    service = GatewayService(config)
    loop = asyncio.get_running_loop()
    root = token = None
    if tracer is not None:
        loop.set_task_factory(tracer.task_factory(TASK_LAYERS))
        root = tracer.reserve()
        token = tracer.enter(root)
    started = perf_counter()
    await service.start()
    window = [perf_counter()]
    probe = QueueProbe(service)
    await asyncio.ensure_future(feed(probe, wires, OPEN_LOOP_CHUNK))
    await asyncio.ensure_future(service.stop())
    window.append(perf_counter())
    if tracer is not None:
        tracer.leave(token)
        loop.set_task_factory(None)
    # Periodic checkpoints: all written but the final one from stop().
    due = int((window[1] - started) // config.checkpoint_interval_s)
    written = service.stats().checkpoints_written - 1
    return {"start_s": window[0] - started, "window": window, "root": root,
            "checkpoint_on_time_ratio": written / due if due else 1.0,
            "queue": probe.stats()}, service


async def open_loop(service, wires, rates=OPEN_LOOP_RATES,
                    seconds: float = OPEN_LOOP_SECONDS) -> dict:
    """Phase B: start ``service`` and submit 128-frame chunks of
    ``wires`` on a fixed schedule, ``seconds`` at each of ``rates`` in
    turn. A chunk's latency runs from when it was *due* until a 1 ms
    watcher first sees ``frames_processed`` cover its last frame, so a
    stall also delays — and is charged to — every chunk due during it,
    including the ones the stalled generator itself sent late."""
    await service.start()
    probe = QueueProbe(service)
    pending: deque = deque()
    latencies: list[list[float]] = [[] for _ in rates]
    sending = True

    async def watch() -> None:
        while sending or pending:
            processed = service.frames_processed
            now = perf_counter()
            while pending and pending[0][0] <= processed:
                _, due, index = pending.popleft()
                latencies[index].append(now - due)
            await asyncio.sleep(0.001)

    watcher = asyncio.ensure_future(watch())
    checkpoints_before = service.stats().checkpoints_written
    late_max = 0.0
    offset = 0
    begin = perf_counter()
    segment_start = begin
    try:
        for index, rate in enumerate(rates):
            count = int(rate * seconds)
            for first in range(0, count, OPEN_LOOP_CHUNK):
                due = segment_start + first / rate
                delay = due - perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                late_max = max(late_max, perf_counter() - due)
                chunk = wires[offset + first:
                              offset + min(first + OPEN_LOOP_CHUNK, count)]
                await probe.submit(chunk)
                pending.append((offset + first + len(chunk), due, index))
            offset += count
            segment_start += seconds
    finally:
        sending = False
    await watcher
    elapsed = perf_counter() - begin
    written = service.stats().checkpoints_written - checkpoints_before
    await service.stop()
    due_checkpoints = int(elapsed // service.config.checkpoint_interval_s)
    return {"latency_s": latencies, "late_max_s": late_max,
            "checkpoint_on_time_ratio": (written / due_checkpoints
                                         if due_checkpoints else 1.0),
            "frames": offset}


def gateway(args, tracer: Tracer | None) -> dict:
    """Phase A — one warm-up soak, then SOAK_ROUNDS measured soaks, each
    on a fresh service over the same frames — and, with
    ``--open-loop``, phase B on another fresh service.

    A traced repetition traces every measured soak and reports the soak
    of median wall time as its window.
    """
    from repro.service.queues import BackpressurePolicy
    from repro.service.replay import load_stream
    from repro.service.server import GatewayService, ServiceConfig
    imported = time.monotonic()
    # Set up only: start (and stop) one service on no frames.
    wires = [] if args.setup_only else load_stream(args.stream)
    rounds = 0 if args.setup_only else SOAK_ROUNDS
    soak_wires = wires[:SOAK_PAYLOADS]
    soaks = []
    phase_b = None
    with tempfile.TemporaryDirectory(dir=args.run_dir) as directory:
        def config(name: str):
            return ServiceConfig(
                checkpoint_dir=os.path.join(directory, name),
                queue_capacity=GATEWAY_QUEUE_CAPACITY,
                policy=BackpressurePolicy.BLOCK,
                checkpoint_interval_s=CHECKPOINT_INTERVAL_S,
                metrics_interval_s=0.0)
        loop = asyncio.new_event_loop()
        try:
            for index in range(1 + rounds):
                if index == 1 and tracer is not None:
                    instrument(tracer)
                soaks.append(loop.run_until_complete(soak(
                    config(f"soak-{index}"), soak_wires,
                    tracer if index else None)))
            setup_s = imported - args.spawned_at + soaks[0][0]["start_s"]
            if args.setup_only:
                return {"setup_s": setup_s}
            if tracer is not None:
                tracer.undo()
            outputs = {"soak": [_service_outputs(service, SOAK_PAYLOADS)
                                for _, service in soaks]}
            if args.open_loop:
                opened = GatewayService(config("open-loop"))
                phase_b = loop.run_until_complete(
                    open_loop(opened, wires[:OPEN_LOOP_PAYLOADS]))
                outputs["open_loop"] = [_service_outputs(
                    opened, phase_b.pop("frames"))]
        finally:
            loop.close()
    measured = sorted((result for result, _ in soaks[1:]),
                      key=lambda soak: soak["window"][1] - soak["window"][0])
    middle = measured[len(measured) // 2]
    result = {
        "setup_s": setup_s,
        "walls": [soak["window"][1] - soak["window"][0]
                  for soak in measured],
        "window": middle["window"], "root": middle["root"],
        "beacons": outputs["soak"][0]["ingested"],
        "operations": SOAK_PAYLOADS * len(soaks),
        "soaks": [{"checkpoint_on_time_ratio":
                   soak["checkpoint_on_time_ratio"], "queue": soak["queue"]}
                  for soak in measured],
        "outputs": outputs,
    }
    if phase_b is not None:
        result["open_loop"] = phase_b
        result["operations"] += OPEN_LOOP_PAYLOADS
    return result


REPETITIONS = {
    "paper-driver": paper_driver,
    "fleet-sparse": fleet,
    "fleet-contended": fleet,
    "gateway-ingest": gateway,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started (the set-up clock's zero)")
    parser.add_argument("--stream", help="gateway-ingest: recorded stream")
    parser.add_argument("--run-dir", default=None,
                        help="gateway-ingest: directory for checkpoints")
    parser.add_argument("--open-loop", action="store_true",
                        help="gateway-ingest: also run phase B")
    parser.add_argument("--trace-out", help="trace the measured interval "
                                            "and write the spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the set-up; report only setup_s")
    args = parser.parse_args(argv)
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}") \
        if args.trace_out else None
    result = REPETITIONS[args.workload](args, tracer)
    if args.setup_only:
        print(json.dumps(result))
        return 0
    window = result.pop("window")
    root = result.pop("root")
    if tracer is not None:
        tracer.undo()
        tracer.dump(args.trace_out, tuple(window), root,
                    workload=args.workload, seed=args.seed)
    result.setdefault("walls", [window[1] - window[0]])
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
