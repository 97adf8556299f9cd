"""Multi-gateway federation: partitioned ingest, supervised failover.

One :class:`~repro.service.server.GatewayService` survives worker kills
(PR 7); this module makes *gateway* death survivable. A
:class:`FederationCoordinator` runs N gateway slots over a partitioned
device-stream and supervises them:

* **Partitioning** is per tenant: frame → ``tenant_of(device_id) %
  N`` (see :func:`route_wire`). Tenants never straddle partitions, and
  partitioning is order-preserving, so each tenant's payload
  subsequence is *identical* to its subsequence of the unpartitioned
  stream. Combined with the server's sequential-observe merge, a
  tenant's aggregate is bit-identical whether one gateway or N
  processed the stream — the property the ``chaos-federation-*``
  oracles of :mod:`repro.check.chaos` assert.
* **Heartbeats.** A gateway is declared dead when its pump has failed,
  or when it has backlog but its ``frames_processed`` watermark has
  not moved for :data:`HEARTBEAT_TIMEOUT_S` (a hung or crawling pump
  looks exactly like this; a merely idle one has no backlog).
* **Failover.** The dead gateway is fenced (:meth:`GatewayService.
  kill` — cancels its pump and flushes its checkpoint thread, so no
  stale save can land later), then its partition is adopted by the
  next alive slot: a fresh pipeline resumes from the partition's last
  durable checkpoint and the feeder rewinds to ``watermark -
  REPLAY_SLACK``. The deliberate overlap is deduped by the
  offset-chain in :meth:`PartitionPipeline.deliver` — the uncommitted
  tail is replayed exactly once, never twice.
* **Supervised restarts.** The dead slot is restarted after a
  seeded-deterministic exponential backoff (:func:`backoff_delay`,
  jittered via the same :func:`~repro.faults.stable_uniform` blake2b
  discipline as :mod:`repro.faults` and sharing the escalation-ladder
  semantics of :class:`~repro.faults.AdaptiveRedundancyController`),
  and then *reclaims* its home partition, while it is still being
  fed, via a graceful handback: the adopter drains and checkpoints,
  the home slot resumes.
* **Federated merge.** :func:`merge_federated` folds per-partition
  tenant maps under an explicit deterministic ordering contract
  (ascending partition, ascending tenant, stream-order
  :meth:`TenantAggregate.merge` for any overlap).

Chaos mechanics live here too (:class:`ChaosGatewayService` consumes
the declarative :class:`repro.faults.ServiceFaultPlan` schedules), so
the faults layer stays import-free of the service layer.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
from dataclasses import dataclass, replace
from typing import Sequence

from ..faults.plan import stable_uniform
from ..faults.service import ServiceFault, ServiceFaultPlan
from ..obs.metrics import METRICS
from .ingest import peek_device_id
from .queues import BackpressurePolicy, QueueClosed
from .server import GatewayService, ServiceConfig, ServiceError
from .tenants import TenantAggregate, tenant_of

#: stable_uniform stream names (part of the on-disk/golden contract —
#: changing either changes every seeded schedule).
BACKOFF_STREAM = "service-federation-backoff"
ROUTE_STREAM = "service-federation-route"

# Supervision constants. The backoff ladder is part of the same golden
# contract as BACKOFF_STREAM: changing a rung changes every seeded
# restart schedule.

#: How often the supervisor polls every gateway's watermark (and how
#: long a feeder waits out a failover before retrying).
HEARTBEAT_INTERVAL_S = 0.02
#: A gateway with backlog whose watermark has not moved for this long
#: is declared dead.
HEARTBEAT_TIMEOUT_S = 0.5
#: First restart delay, before jitter.
BACKOFF_BASE_S = 0.05
#: Delay multiplier per consecutive failure of the same slot.
BACKOFF_FACTOR = 2.0
#: Ceiling on any restart delay, after jitter.
BACKOFF_MAX_S = 2.0
#: How far before the resumed watermark the feeder rewinds — a
#: deliberate superset replay proving the dedupe chain under load.
REPLAY_SLACK = 512
#: Frames handed to a gateway per feeder iteration.
FEED_CHUNK = 256
#: Batch size of every partition's gateway.
GATEWAY_BATCH_SIZE = 512
#: Queue capacity of every partition's gateway (a fault with its own
#: ``queue_capacity`` shrinks it on that slot).
GATEWAY_QUEUE_CAPACITY = 8192


class FederationError(ServiceError):
    """Raised for federation lifecycle errors (no alive peer, delivery
    gap, misconfiguration)."""


class ServiceChaosKill(RuntimeError):
    """The injected 'gateway process died' fault — raised inside the
    pump so it travels the real pump-failure path (poisoned intake,
    ``service.pump_failures``, error surfaced to the
    supervisor)."""


# -- deterministic backoff ----------------------------------------------------


def backoff_delay(seed: int, gateway_index: int, attempt: int) -> float:
    """Restart delay for a gateway's ``attempt``-th consecutive failure.

    Exponential from :data:`BACKOFF_BASE_S` by :data:`BACKOFF_FACTOR`
    with a :data:`BACKOFF_MAX_S` ceiling — the same escalation-ladder
    shape as :class:`repro.faults.AdaptiveRedundancyController` —
    jittered into ``[0.5x, 1.5x)`` by
    :func:`~repro.faults.stable_uniform` keyed on
    ``(seed, stream, gateway, attempt)``. A pure function of its
    arguments: the whole fleet's restart schedule is decided the moment
    the seed is, which is what lets a test pin it exactly.
    """
    if attempt < 1:
        raise FederationError("backoff attempts are 1-based")
    jitter = 0.5 + stable_uniform(seed, BACKOFF_STREAM, gateway_index,
                                  attempt)
    return min(BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1) * jitter,
               BACKOFF_MAX_S)


def backoff_schedule(seed: int, gateway_index: int,
                     attempts: int) -> tuple[float, ...]:
    """The first ``attempts`` delays of one gateway's restart ladder."""
    return tuple(backoff_delay(seed, gateway_index, attempt)
                 for attempt in range(1, attempts + 1))


# -- stream partitioning ------------------------------------------------------


def route_wire(wire: bytes, gateway_count: int) -> int:
    """The partition a raw frame belongs to.

    Routable frames go by tenant (``tenant_of(device_id) %
    gateway_count``) so a tenant never straddles partitions. Frames too
    mangled to carry a device id still deterministically land
    *somewhere* (a blake2b hash of the bytes) so their decode error is
    counted exactly once, on the same partition every run.
    """
    device_id = peek_device_id(wire)
    if device_id is None:
        return int(stable_uniform(ROUTE_STREAM, wire) * gateway_count)
    return tenant_of(device_id) % gateway_count


def partition_stream(wires: Sequence[bytes],
                     gateway_count: int) -> list[list[bytes]]:
    """Split a stream into per-partition substreams, order preserved."""
    if gateway_count < 1:
        raise FederationError("gateway_count must be >= 1")
    parts: list[list[bytes]] = [[] for _ in range(gateway_count)]
    for wire in wires:
        parts[route_wire(wire, gateway_count)].append(wire)
    return parts


# -- federated merge ----------------------------------------------------------


def merge_federated(parts: Sequence[dict[int, TenantAggregate]],
                    ) -> dict[int, TenantAggregate]:
    """Fold per-gateway tenant maps into one federated view.

    The ordering contract (and why it is the *only* correct one):
    ``parts`` must be ordered by ascending partition index, and within
    a part tenants are folded in ascending tenant id. The first
    occurrence of a tenant is adopted by exact state round-trip
    (bitwise, never re-observed); a tenant appearing in a later part is
    folded with :meth:`TenantAggregate.merge`, whose contract requires
    the later part's payloads to *follow* the earlier's in stream
    order. Under per-tenant partitioning tenants are disjoint and every
    merge is a pure adoption; the contract exists for federations that
    re-partition mid-life (a tenant's history split across two
    partition epochs is merged in epoch order).

    Inputs are never mutated. Ascending-tenant iteration makes the
    result's construction order (and hence its JSON serialisation)
    deterministic.
    """
    merged: dict[int, TenantAggregate] = {}
    for part in parts:
        for tenant_id in sorted(part):
            aggregate = part[tenant_id]
            ours = merged.get(tenant_id)
            if ours is None:
                merged[tenant_id] = TenantAggregate.from_state(
                    aggregate.to_state())
            else:
                ours.merge(aggregate)
    return merged


def tenant_state_digest(tenants: dict[int, TenantAggregate]) -> str:
    """A canonical digest of exact per-tenant state — two runs whose
    aggregates are bit-identical (and only those) share it."""
    canonical = json.dumps(
        {str(tenant_id): tenants[tenant_id].to_state()
         for tenant_id in sorted(tenants)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- chaos mechanics ----------------------------------------------------------


class ChaosGatewayService(GatewayService):
    """A gateway that fires scheduled :class:`ServiceFault`s.

    ``faults`` is a *shared, mutable* list owned by the coordinator's
    slot: consuming a fault here marks it consumed for every future
    pipeline spawned on the same slot, so a restarted gateway does not
    re-die on the same schedule entry. Triggers are frame counts
    (``frames_processed``), checked before each batch dispatch —
    deterministic in stream offset, not wall-clock. A pending fault's
    ``queue_capacity`` clamps the intake queue from the start.
    """

    def __init__(self, config: ServiceConfig,
                 faults: list[ServiceFault]) -> None:
        capacity = min([config.queue_capacity] + [
            fault.queue_capacity for fault in faults
            if fault.queue_capacity is not None])
        super().__init__(replace(config, queue_capacity=capacity))
        self._chaos_faults = faults
        self._chaos_slow_s = 0.0
        self._corrupt_on_kill = False

    async def _before_dispatch(self, batch: list) -> None:
        if self._chaos_slow_s > 0.0:
            await asyncio.sleep(self._chaos_slow_s)
        while self._chaos_faults \
                and self.frames_processed >= self._chaos_faults[0].after_frames:
            fault = self._chaos_faults.pop(0)
            if fault.kind == "slow-drain":
                self._chaos_slow_s = fault.delay_s
                await asyncio.sleep(fault.delay_s)
            elif fault.kind in ("hang", "queue-stall"):
                # Wedge the pump forever; only heartbeat supervision
                # (followed by kill-fencing) gets the stream moving.
                await asyncio.Event().wait()
            else:  # "kill", "checkpoint-corrupt"
                self._corrupt_on_kill = fault.kind == "checkpoint-corrupt"
                raise ServiceChaosKill(fault.kind)

    async def kill(self) -> None:
        """:meth:`GatewayService.kill`; then, for the checkpoint-corrupt
        fault, mangle the newest generation file once the fence holds
        (so no write races the scribble). The successor's loader must
        quarantine it and fall back a generation, replaying a longer
        tail."""
        await super().kill()
        if not self._corrupt_on_kill or self.checkpointer is None:
            return
        self._corrupt_on_kill = False
        newest = self.checkpointer.newest_path()
        if newest is not None:
            with open(newest, "w", encoding="utf-8") as handle:
                handle.write('{"schema": 1, "tenants": "scribbled mid-write')


# -- the coordinator ----------------------------------------------------------


@dataclass
class FederationConfig:
    """Tunables for one :class:`FederationCoordinator`; supervision
    timing is the module's constants."""

    gateways: int = 3
    #: Per-partition checkpoint dirs are created under here
    #: (``partition_<p>``). ``None`` disables durability: failover then
    #: replays the partition from offset zero (still exact).
    checkpoint_root: str | None = None
    workers: int = 0
    checkpoint_interval_s: float = 0.05
    durable_checkpoints: bool = True
    seed: int = 0
    #: Hard per-gateway drain ceiling for graceful stops/handbacks.
    drain_deadline_s: float | None = 30.0

    def __post_init__(self) -> None:
        if self.gateways < 1:
            raise FederationError("gateways must be >= 1")


@dataclass(frozen=True, slots=True)
class FederationEvent:
    """One supervision decision, recorded for audit and tests."""

    kind: str                 # "failover" | "restart" | "handback"
    slot: int                 # gateway slot the decision concerns
    partition: int            # partition moved (== slot for restarts)
    attempt: int              # consecutive-failure count for the slot
    delay_s: float            # backoff delay (failover/restart), else 0
    reason: str = ""          # "pump-error" | "stalled" | ""


@dataclass
class FederationReport:
    """The outcome of one federated run."""

    tenants: dict[int, TenantAggregate]
    ingested: int
    decode_errors: int
    failovers: int
    restarts: int
    handbacks: int
    deduped: int
    events: list[FederationEvent]
    per_partition: list[dict]
    #: Wall-clock from first death detection to the successor pipeline
    #: accepting traffic (first failover only; None if none happened).
    recovery_s: float | None
    seed: int
    gateways: int

    @property
    def frames_processed(self) -> int:
        return self.ingested + self.decode_errors

    def digest(self) -> str:
        return tenant_state_digest(self.tenants)

    def expected_delay(self, slot: int, attempt: int) -> float:
        """What the seeded ladder says this restart should have waited
        — the audit recomputes every event against it."""
        return backoff_delay(self.seed, slot, attempt)


class _Pipeline:
    """One partition's live lane: a gateway service plus the delivery
    cursor (next stream offset owed to it) and heartbeat bookkeeping."""

    __slots__ = ("partition", "slot", "service", "cursor", "deduped",
                 "last_frames", "last_progress_t")

    def __init__(self, partition: int, slot: int, service: GatewayService,
                 cursor: int, now: float) -> None:
        self.partition = partition
        self.slot = slot
        self.service = service
        self.cursor = cursor
        self.deduped = 0
        self.last_frames = service.frames_processed
        self.last_progress_t = now

    async def deliver(self, start_offset: int, wires: Sequence[bytes]) -> int:
        """Offer ``wires`` (stream offsets ``start_offset..``) to the
        gateway, deduping everything before the cursor. The offset
        chain makes replay idempotent: a rewound feeder can re-offer
        any prefix and the gateway still observes each frame exactly
        once. A *gap* (offering frames beyond the cursor) is a feeder
        bug and fails loudly."""
        if start_offset > self.cursor:
            raise FederationError(
                f"delivery gap on partition {self.partition}: offset "
                f"{start_offset} past cursor {self.cursor}")
        skip = min(len(wires), self.cursor - start_offset)
        if skip:
            self.deduped += skip
            METRICS.counter("federation.replay_deduped").inc(skip)
        fresh = wires[skip:]
        if not fresh:
            return 0
        try:
            admitted = await self.service.submit_many(fresh)
        except QueueClosed as error:
            # Partial admission: those frames are the gateway's now;
            # advancing the cursor keeps a retry from re-offering them.
            self.cursor += error.admitted
            raise
        self.cursor += admitted
        return admitted


class FederationCoordinator:
    """Runs a partitioned stream through N supervised gateway slots.

    One-shot embedding (the ``repro.check`` chaos oracles, benches and
    ``--federate``)::

        coordinator = FederationCoordinator(config, fault_plan=None)
        report = await coordinator.run(wires)

    ``run`` partitions the stream, starts one pipeline per partition
    (slot i hosting partition i), feeds every partition concurrently
    under heartbeat supervision, then drains survivors and returns the
    federated merge. Determinism: aggregates depend only on the stream
    (sequential observe + per-tenant partitioning); restart *delays*
    depend only on ``(seed, slot, attempt)``.
    """

    def __init__(self, config: FederationConfig | None = None,
                 fault_plan: ServiceFaultPlan | None = None) -> None:
        self.config = config or FederationConfig()
        self.fault_plan = fault_plan
        if fault_plan is not None \
                and fault_plan.gateway_count != self.config.gateways:
            raise FederationError(
                f"fault plan drawn for {fault_plan.gateway_count} "
                f"gateways, federation has {self.config.gateways}")
        self._partitions: list[list[bytes]] = []
        self._pipelines: list[_Pipeline | None] = []
        self._slot_alive: list[bool] = []
        self._slot_faults: list[list[ServiceFault]] = []
        self._slot_attempts: list[int] = []
        self._restart_tasks: list[asyncio.Task] = []
        #: Partitions whose feeder saw every frame processed.
        self._fed: list[bool] = []
        self._events: list[FederationEvent] = []
        self._failovers = 0
        self._restarts = 0
        self._handbacks = 0
        self._recovery_s: float | None = None

    # -- lifecycle -----------------------------------------------------------

    async def run(self, wires: Sequence[bytes]) -> FederationReport:
        config = self.config
        self._partitions = partition_stream(wires, config.gateways)
        self._slot_alive = [True] * config.gateways
        self._fed = [False] * config.gateways
        self._slot_attempts = [0] * config.gateways
        self._slot_faults = [
            list(self.fault_plan.faults_for(slot))
            if self.fault_plan is not None else []
            for slot in range(config.gateways)]
        self._pipelines = [None] * config.gateways
        for partition in range(config.gateways):
            self._pipelines[partition] = await self._start_pipeline(
                partition, partition)
        METRICS.gauge("federation.partitions").set(float(config.gateways))
        supervisor = asyncio.ensure_future(self._supervise())
        feeders = [asyncio.ensure_future(self._feed(partition))
                   for partition in range(config.gateways)]
        try:
            await asyncio.gather(*feeders)
        except BaseException:
            for task in self._restart_tasks:
                task.cancel()
            raise
        finally:
            # Every partition is fed (or the run failed), so a pending
            # restart only marks its slot alive.
            supervisor.cancel()
            for task in [supervisor, *self._restart_tasks]:
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        return await self._drain_and_merge()

    async def _drain_and_merge(self) -> FederationReport:
        per_partition: list[dict] = []
        parts: list[dict[int, TenantAggregate]] = []
        ingested = 0
        errors = 0
        deduped = 0
        for partition in range(self.config.gateways):
            pipeline = self._pipelines[partition]
            if pipeline is None:      # pragma: no cover - defensive
                raise FederationError(
                    f"partition {partition} lost its pipeline mid-drain")
            try:
                await pipeline.service.stop()
            except ServiceError:
                # A pump that died *after* its partition was fully
                # processed (late chaos trigger) is not a data problem;
                # surfacing it would mask the completed fold.
                pass
            stats = pipeline.service.stats()
            per_partition.append({
                "partition": partition,
                "slot": pipeline.slot,
                "ingested": stats.ingested,
                "decode_errors": stats.decode_errors,
                "frames": len(self._partitions[partition]),
                "tenants": stats.tenant_count,
                "deduped": pipeline.deduped,
            })
            parts.append(pipeline.service.tenants)
            ingested += stats.ingested
            errors += stats.decode_errors
            deduped += pipeline.deduped
        merged = merge_federated(parts)
        METRICS.gauge("federation.alive_gateways").set(
            float(sum(self._slot_alive)))
        return FederationReport(
            tenants=merged, ingested=ingested, decode_errors=errors,
            failovers=self._failovers, restarts=self._restarts,
            handbacks=self._handbacks, deduped=deduped,
            events=list(self._events), per_partition=per_partition,
            recovery_s=self._recovery_s, seed=self.config.seed,
            gateways=self.config.gateways)

    # -- pipelines -----------------------------------------------------------

    def _partition_dir(self, partition: int) -> str | None:
        if self.config.checkpoint_root is None:
            return None
        return os.path.join(self.config.checkpoint_root,
                            f"partition_{partition}")

    async def _start_pipeline(self, partition: int, slot: int) -> _Pipeline:
        config = self.config
        faults = self._slot_faults[slot]
        service_config = ServiceConfig(
            checkpoint_dir=self._partition_dir(partition),
            queue_capacity=GATEWAY_QUEUE_CAPACITY,
            policy=BackpressurePolicy.BLOCK,
            batch_size=GATEWAY_BATCH_SIZE,
            flush_after_s=0.005,
            workers=config.workers,
            checkpoint_interval_s=config.checkpoint_interval_s,
            durable_checkpoints=config.durable_checkpoints,
            metrics_interval_s=0.0,
            drain_deadline_s=config.drain_deadline_s)
        if faults:
            service: GatewayService = ChaosGatewayService(service_config,
                                                          faults)
        else:
            service = GatewayService(service_config)
        await service.start()
        now = asyncio.get_running_loop().time()
        return _Pipeline(partition, slot, service,
                         cursor=service.frames_processed, now=now)

    # -- feeding -------------------------------------------------------------

    async def _feed(self, partition: int) -> None:
        wires = self._partitions[partition]
        total = len(wires)
        current: _Pipeline | None = None
        sent = 0
        while True:
            pipeline = self._pipelines[partition]
            if pipeline is None:      # mid-failover/handback
                await asyncio.sleep(HEARTBEAT_INTERVAL_S)
                continue
            if pipeline is not current:
                # New owner: rewind behind its watermark. The slack
                # deliberately re-offers committed frames; the dedupe
                # chain in deliver() is what keeps that exact.
                current = pipeline
                sent = max(0, pipeline.cursor - REPLAY_SLACK)
            if sent >= total:
                if pipeline.service.frames_processed >= total:
                    self._fed[partition] = True
                    return
                # Everything offered but not yet processed — a hung
                # tail is the supervisor's call, not ours.
                await asyncio.sleep(HEARTBEAT_INTERVAL_S)
                continue
            chunk = wires[sent:sent + FEED_CHUNK]
            try:
                await pipeline.deliver(sent, chunk)
            except (QueueClosed, ServiceError):
                # Owner died underneath us; wait out the failover.
                await asyncio.sleep(HEARTBEAT_INTERVAL_S)
                continue
            sent += len(chunk)

    # -- supervision ---------------------------------------------------------

    async def _supervise(self) -> None:
        config = self.config
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(HEARTBEAT_INTERVAL_S)
            now = loop.time()
            for partition in range(config.gateways):
                pipeline = self._pipelines[partition]
                if pipeline is None:
                    continue
                service = pipeline.service
                if service.pump_error is not None:
                    await self._fail_over(pipeline, "pump-error")
                    continue
                frames = service.frames_processed
                if frames != pipeline.last_frames:
                    pipeline.last_frames = frames
                    pipeline.last_progress_t = now
                    continue
                backlog = (len(service.queue) > 0 or service.pending_batches
                           or pipeline.cursor > frames)
                if backlog and now - pipeline.last_progress_t \
                        >= HEARTBEAT_TIMEOUT_S:
                    await self._fail_over(pipeline, "stalled")

    async def _fail_over(self, pipeline: _Pipeline, reason: str) -> None:
        """Fence the dead gateway, move its partition to a peer, and
        schedule the slot's supervised restart."""
        config = self.config
        loop = asyncio.get_running_loop()
        detected_t = loop.time()
        partition, slot = pipeline.partition, pipeline.slot
        self._pipelines[partition] = None
        if self._slot_alive[slot]:
            self._slot_alive[slot] = False
            self._slot_attempts[slot] += 1
            attempt = self._slot_attempts[slot]
            delay = backoff_delay(config.seed, slot, attempt)
            self._events.append(FederationEvent(
                "failover", slot=slot, partition=partition,
                attempt=attempt, delay_s=delay, reason=reason))
            self._failovers += 1
            METRICS.counter("federation.failovers").inc()
            self._restart_tasks.append(asyncio.ensure_future(
                self._restart_slot(slot, attempt, delay)))
        await pipeline.service.kill()
        target = self._next_alive_slot(slot)
        successor = await self._start_pipeline(partition, target)
        self._pipelines[partition] = successor
        if self._recovery_s is None:
            self._recovery_s = loop.time() - detected_t
        METRICS.gauge("federation.alive_gateways").set(
            float(sum(self._slot_alive)))

    def _next_alive_slot(self, dead_slot: int) -> int:
        for step in range(1, self.config.gateways + 1):
            slot = (dead_slot + step) % self.config.gateways
            if self._slot_alive[slot]:
                return slot
        raise FederationError("no alive gateway left to fail over to")

    async def _restart_slot(self, slot: int, attempt: int,
                            delay: float) -> None:
        """The supervised restart: wait out the seeded backoff, mark
        the slot alive, then reclaim its home partition with a graceful
        handback (drain + checkpoint on the adopter, resume on the
        home slot) while the partition is still being fed; nobody would
        feed a pipeline resumed after that."""
        await asyncio.sleep(delay)
        self._slot_alive[slot] = True
        self._restarts += 1
        METRICS.counter("federation.restarts").inc()
        self._events.append(FederationEvent(
            "restart", slot=slot, partition=slot, attempt=attempt,
            delay_s=delay))
        if self._fed[slot]:
            return
        home = self._pipelines[slot]
        if home is None or home.slot == slot:
            return
        self._pipelines[slot] = None
        try:
            await home.service.stop()
        except ServiceError:
            # The adopter itself just died; its checkpointed prefix
            # stands and the resume below replays the rest.
            pass
        self._pipelines[slot] = await self._start_pipeline(slot, slot)
        self._handbacks += 1
        METRICS.counter("federation.handbacks").inc()
        self._events.append(FederationEvent(
            "handback", slot=slot, partition=slot, attempt=attempt,
            delay_s=0.0))


def run_federated(wires: Sequence[bytes],
                  config: FederationConfig | None = None,
                  fault_plan: ServiceFaultPlan | None = None,
                  ) -> FederationReport:
    """Synchronous convenience wrapper around
    :meth:`FederationCoordinator.run`."""
    coordinator = FederationCoordinator(config, fault_plan)
    return asyncio.run(coordinator.run(wires))
