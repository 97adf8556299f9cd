"""The always-on gateway: ingest → decode fan-out → ordered merge.

:class:`GatewayService` is the asyncio orchestrator tying the service
package together. The dataflow is a straight line with one loop-bearing
queue in the middle::

    submit()/submit_many()          (receiver front-end, replay, tests)
        └─> BoundedPayloadQueue     (bounded; drop-oldest or block)
              └─> _pump()           (batches; inline or process pool)
                    └─> _merge()         (strictly batch-ordered)
                          └─> per-tenant TenantAggregate
                                └─> ServiceCheckpointer (when due)

Correctness properties the tests lean on:

* **Ordered merges, sequential observation.** The pump always awaits
  the *oldest* in-flight batch, so batches merge strictly in batch-id
  order, and their payloads are observed one at a time in stream
  order. Aggregates are therefore a pure function of the frame
  sequence — independent of batch boundaries, pool timing, worker
  deaths, *and* (the property federation rests on) of which gateway
  processed which stretch of the stream. The
  ``chaos-service-worker-kill`` and ``chaos-federation-*`` oracles of
  :mod:`repro.check.chaos` assert exact ``to_state`` equality, not
  tolerances.
* **Broken-pool rescue.** Batches decode on the shared
  :class:`repro.experiments.runner.ProcessPool`, which keeps every
  batch's frames until its result is taken: a broken pool is rebuilt
  and in-flight batches resubmitted, and a batch lost more than
  ``RETRIES`` times decodes in-process, so one poison batch cannot
  wedge the service.
* **Graceful drain.** ``stop()`` (wired to SIGTERM/SIGINT via
  :meth:`install_signal_handlers`) closes intake, drains the queue and
  every in-flight batch, writes a final checkpoint, then shuts the pool
  down — nothing accepted is ever dropped on the way out. The
  checkpoint thread and the pool are released even when that final
  save fails; the failure then surfaces as :class:`ServiceError`.
* **Checkpoints keep their interval and their order.** The pump, the
  service's one task, snapshots state between merges once a checkpoint
  is due, so a full queue cannot starve it. One checkpoint thread
  writes every snapshot: the fsync never stalls ingest, and a periodic
  save in flight at ``stop()`` lands *before* the final one. A
  periodic ``OSError`` is counted in ``service.checkpoint_failures``.
* **Pump failures are loud.** An unexpected exception in the decode/
  merge pump closes intake (so producers fail fast instead of feeding
  a dead pipeline), bumps ``service.pump_failures``, and is
  re-raised from :meth:`GatewayService.stop` with the original cause.
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..experiments.runner import ProcessPool
from ..obs.metrics import METRICS
from .checkpoint import ServiceCheckpointer
from .ingest import decode_batch_task, decode_wires
from .queues import BackpressurePolicy, BoundedPayloadQueue
from .tenants import DEFAULT_TENANT_BITS, TenantAggregate


class ServiceError(RuntimeError):
    """Raised for gateway lifecycle misuse (submit before start, ...)."""


@dataclass
class ServiceConfig:
    """Tunables for one :class:`GatewayService`."""

    checkpoint_dir: str | None = None
    queue_capacity: int = 65536
    policy: BackpressurePolicy = BackpressurePolicy.DROP_OLDEST
    batch_size: int = 2048
    flush_after_s: float = 0.05
    #: 0 decodes inline on the event loop thread (the single-core fast
    #: path); >0 fans batches out over a persistent process pool.
    workers: int = 0
    checkpoint_interval_s: float = 5.0
    durable_checkpoints: bool = True
    metrics_interval_s: float = 1.0
    #: Hard ceiling on how long stop() waits for the drain. ``None``
    #: waits forever (the pre-federation behaviour); a finite deadline
    #: makes a hung drain fail loudly instead of stalling CI.
    drain_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time snapshot of the gateway's counters."""

    ingested: int
    decode_errors: int
    batches_dispatched: int
    batches_merged: int
    rescued_batches: int
    checkpoints_written: int
    queue_depth: int
    queue_accepted: int
    dropped_oldest: int
    blocked_puts: int
    tenant_count: int
    device_count: int


class GatewayService:
    """One always-on Wi-LE gateway. See the module docstring for the
    dataflow; typical embedding::

        service = GatewayService(ServiceConfig(checkpoint_dir=...))
        await service.start()          # resumes from checkpoint if any
        await service.submit_many(wires)
        await service.stop()           # drain + final checkpoint
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.queue = BoundedPayloadQueue(self.config.queue_capacity,
                                         self.config.policy)
        self.tenants: dict[int, TenantAggregate] = {}
        self.checkpointer: ServiceCheckpointer | None = None
        if self.config.checkpoint_dir is not None:
            self.checkpointer = ServiceCheckpointer(
                self.config.checkpoint_dir,
                durable=self.config.durable_checkpoints)
        self._started = False
        self._stopped = False
        self._pump_task: asyncio.Task | None = None
        self._pool: ProcessPool | None = None
        #: Set when the pump dies unexpectedly; poisons intake.
        self._pump_error: BaseException | None = None
        #: All checkpoint saves go through this one thread so they are
        #: strictly ordered (periodic saves never shadow the final one).
        self._checkpoint_executor: ThreadPoolExecutor | None = None
        #: The periodic save in flight: a concurrent future, which the
        #: checkpoint thread settles while the pump holds the loop.
        self._periodic_save: Future | None = None
        self._checkpoint_due = math.inf
        #: (ingested, monotonic time) at the last gauge refresh.
        self._rate_mark = (0, 0.0)
        # Batches merge in id order, so the ones in flight are exactly
        # _next_merge_id .. _next_batch_id - 1.
        self._next_batch_id = 0
        self._next_merge_id = 0
        # Counters (ingested/decode_errors resume from the checkpoint).
        self._ingested = 0
        self._decode_errors = 0
        self._checkpoints_written = 0
        self._last_checkpoint_monotonic: float | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Resume state, build the pool, start the pump."""
        if self._started:
            raise ServiceError("service already started")
        self._started = True
        self._restore_checkpoint()
        now = time.monotonic()
        if self.checkpointer is not None:
            self._checkpoint_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="service-checkpoint")
            if self.config.checkpoint_interval_s > 0:
                self._checkpoint_due = now + self.config.checkpoint_interval_s
        self._rate_mark = (self._ingested, now)
        if self.config.workers > 0:
            self._pool = ProcessPool(self.config.workers)
        self._pump_task = asyncio.ensure_future(self._pump())

    async def stop(self) -> None:
        """Graceful drain: close intake, finish every accepted payload,
        write a final checkpoint, release the pool. Idempotent."""
        if not self._started:
            raise ServiceError("service never started")
        if self._stopped:
            return
        self._stopped = True
        await self.queue.close()
        pump_error: BaseException | None = None
        drain_expired = False
        try:
            await asyncio.wait_for(self._pump_task,
                                   self.config.drain_deadline_s)
        except asyncio.TimeoutError:
            # wait_for already cancelled the pump; the merged prefix is
            # still consistent and worth checkpointing below.
            drain_expired = True
            METRICS.counter("service.drain_deadline").inc()
        except Exception as error:
            pump_error = error
        try:
            if self.checkpointer is not None:
                try:
                    await self._write_checkpoint()
                except OSError as error:
                    METRICS.counter("service.checkpoint_failures").inc()
                    raise ServiceError(
                        "final checkpoint failed; state merged since the "
                        "last durable generation is not on disk"
                    ) from error
        finally:
            if self._checkpoint_executor is not None:
                self._checkpoint_executor.shutdown(wait=True)
                self._checkpoint_executor = None
            self._settle_periodic_save()
            self._publish_metrics()
            self._close_pool()
        if self._periodic_save is not None:
            raise self._periodic_save.exception()
        if pump_error is not None:
            raise ServiceError(
                "gateway pump failed; state merged before the failure "
                "was checkpointed") from pump_error
        if drain_expired:
            raise ServiceError(
                f"drain deadline of {self.config.drain_deadline_s}s "
                "exceeded; merged prefix checkpointed, tail abandoned")

    async def kill(self) -> None:
        """Abandon the gateway without draining — in-process SIGKILL
        semantics for the federation supervisor. No drain, no final
        checkpoint; whatever the last periodic save captured is all a
        successor gets. The one blocking step is flushing the
        checkpoint thread (``wait=True``): it *fences* the dead
        gateway, guaranteeing no stale in-flight save lands after a
        peer has adopted the partition's checkpoint directory.
        Idempotent, and safe after :meth:`stop`."""
        if not self._started:
            raise ServiceError("service never started")
        self._stopped = True
        await self.queue.close()
        self._pump_task.cancel()
        try:
            await self._pump_task
        except (asyncio.CancelledError, Exception):
            pass
        if self._checkpoint_executor is not None:
            self._checkpoint_executor.shutdown(wait=True)
            self._checkpoint_executor = None
        self._settle_periodic_save()
        self._close_pool()

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def pump_error(self) -> BaseException | None:
        """The exception that killed the pump, if any — the federation
        supervisor's fastest death signal."""
        return self._pump_error

    @property
    def pending_batches(self) -> int:
        """Batches submitted to the pool but not yet merged."""
        return self._next_batch_id - self._next_merge_id

    @property
    def frames_processed(self) -> int:
        """Frames fully accounted for: merged payloads plus decode
        errors. With BLOCK backpressure (no drops) this is an exact
        stream offset — the federation layer uses it as the replay
        watermark."""
        return self._ingested + self._decode_errors

    def install_signal_handlers(self, signals: Iterable[int]) -> None:
        """Route the given signals (typically SIGTERM/SIGINT) to a
        graceful :meth:`stop`. Call from inside the running loop."""
        loop = asyncio.get_running_loop()
        for signum in signals:
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.stop()))

    # -- intake --------------------------------------------------------------

    async def submit(self, wire: bytes) -> None:
        """Offer one raw beacon frame to the gateway."""
        self._check_intake()
        await self.queue.put(wire)

    async def submit_many(self, wires: Sequence[bytes]) -> int:
        """Offer a chunk of raw frames (one queue lock round).

        Returns the number admitted (== ``len(wires)``). If the queue
        closes mid-chunk the raised :class:`QueueClosed` carries
        ``admitted``, the count already accepted — a retry must skip
        that prefix or it double-ingests it.
        """
        self._check_intake()
        return await self.queue.put_many(wires)

    def _check_intake(self) -> None:
        if not self._started:
            raise ServiceError("submit before start()")
        if self._pump_error is not None:
            raise ServiceError("gateway pump failed; intake is closed"
                               ) from self._pump_error
        if self._stopped:
            raise ServiceError("submit after stop()")

    # -- decode fan-out ------------------------------------------------------

    async def _pump(self) -> None:
        try:
            while True:
                batch = await self.queue.get_batch(self.config.batch_size,
                                                   self.config.flush_after_s)
                if batch:
                    await self._dispatch(batch)
                elif self.queue.closed and not len(self.queue):
                    break
                self._run_due_duties()
            while self.pending_batches:
                await self._merge_oldest()
        except Exception as error:
            # A dead pump must not be silent while intake keeps
            # accepting: poison intake, count it, and re-raise so
            # stop() surfaces the original cause.
            self._pump_error = error
            METRICS.counter("service.pump_failures").inc()
            await self.queue.close()
            raise

    async def _before_dispatch(self, batch: list) -> None:
        """Subclass hook, awaited before each batch is dispatched. The
        federation chaos harness overrides it to fire deterministic
        frame-count-triggered faults (hang, slow-drain, kill) at the
        exact same stream offset on every run."""

    async def _dispatch(self, batch: list) -> None:
        await self._before_dispatch(batch)
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        if self._pool is None:
            self._merge(*decode_wires(batch))
            return
        self._pool.submit(batch_id, decode_batch_task, (batch_id, batch))
        # Bound in-flight work so the frames the pool retains (for
        # rescue) stay proportional to the pool, not the backlog.
        while self.pending_batches >= 2 * self.config.workers:
            await self._merge_oldest()

    async def _merge_oldest(self) -> None:
        self._merge(*await self._pool.take_async(self._next_merge_id))

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()

    # -- ordered merge -------------------------------------------------------

    def _merge(self, payloads: list, errors: int) -> None:
        """Fold the next batch in order. Payloads are observed one at a
        time in stream order (not merged as batch partials), so every
        float moment in every aggregate matches the sequential stream
        exactly, whatever the batching."""
        self._next_merge_id += 1
        self._decode_errors += errors
        METRICS.counter("service.decode_errors").inc(errors)
        tenants = self.tenants
        for payload in payloads:
            tenant_id = payload.device_id >> DEFAULT_TENANT_BITS
            aggregate = tenants.get(tenant_id)
            if aggregate is None:
                aggregate = tenants[tenant_id] = TenantAggregate(
                    tenant_id=tenant_id)
            aggregate.observe(payload)
        self._ingested += len(payloads)
        METRICS.counter("service.ingested").inc(len(payloads))

    # -- checkpointing -------------------------------------------------------

    def _restore_checkpoint(self) -> None:
        if self.checkpointer is None:
            return
        payload = self.checkpointer.load()
        if payload is None:
            return
        self.tenants = payload["tenants"]
        self._ingested = int(payload.get("ingested", 0))
        self._decode_errors = int(payload.get("decode_errors", 0))

    def _snapshot_state(self) -> dict:
        """Exact serialisable state, taken synchronously on the loop
        (never mid-merge)."""
        return {
            "ingested": self._ingested,
            "decode_errors": self._decode_errors,
            "tenants": {str(tenant_id): aggregate.to_state()
                        for tenant_id, aggregate
                        in sorted(self.tenants.items())},
        }

    def _start_save(self) -> Future:
        """Snapshot on the loop; the checkpoint thread writes it."""
        return self._checkpoint_executor.submit(self.checkpointer.save,
                                                self._snapshot_state())

    async def _write_checkpoint(self) -> None:
        await asyncio.wrap_future(self._start_save())
        self._count_checkpoint()

    def _count_checkpoint(self) -> None:
        self._checkpoints_written += 1
        METRICS.counter("service.checkpoints").inc()
        self._last_checkpoint_monotonic = time.monotonic()

    def _settle_periodic_save(self) -> None:
        """Count the periodic save once its thread is done with it. One
        that raised anything but ``OSError`` stays in place: no periodic
        save follows it, and :meth:`stop` raises it."""
        saving = self._periodic_save
        if saving is None or not saving.done():
            return
        error = saving.exception()
        if error is None:
            self._count_checkpoint()
        elif isinstance(error, OSError):
            METRICS.counter("service.checkpoint_failures").inc()
        else:
            return
        self._periodic_save = None

    # -- periodic duties -----------------------------------------------------

    def _run_due_duties(self) -> None:
        """Start a checkpoint and refresh the gauges once each is due.
        The pump calls this between batches and on each flush-timer
        wake; it does not wait for the save, it polls its future."""
        now = time.monotonic()
        self._settle_periodic_save()
        if self._periodic_save is None and now >= self._checkpoint_due:
            self._periodic_save = self._start_save()
            # Whole intervals on from the last due time: a late save
            # skips the slots it missed instead of drifting.
            interval = self.config.checkpoint_interval_s
            self._checkpoint_due += interval * (
                math.floor((now - self._checkpoint_due) / interval) + 1)
        last_ingested, last_time = self._rate_mark
        if 0 < self.config.metrics_interval_s <= now - last_time:
            METRICS.gauge("service.ingest_rate_per_s").set(
                (self._ingested - last_ingested) / (now - last_time))
            self._rate_mark = (self._ingested, now)
            self._publish_metrics()

    def _publish_metrics(self) -> None:
        """Refresh the gauges. The counters (``service.ingested``, ...)
        are incremented where their events happen and count what this
        process did; totals restored from a checkpoint stay in
        :meth:`stats`."""
        METRICS.gauge("service.queue_depth").set(float(len(self.queue)))
        if self._last_checkpoint_monotonic is not None:
            METRICS.gauge("service.checkpoint_age_s").set(
                time.monotonic() - self._last_checkpoint_monotonic)

    def stats(self) -> ServiceStats:
        return ServiceStats(
            ingested=self._ingested,
            decode_errors=self._decode_errors,
            batches_dispatched=self._next_batch_id,
            batches_merged=self._next_merge_id,
            rescued_batches=0 if self._pool is None else self._pool.rescued,
            checkpoints_written=self._checkpoints_written,
            queue_depth=len(self.queue),
            queue_accepted=self.queue.accepted,
            dropped_oldest=self.queue.dropped_oldest,
            blocked_puts=self.queue.blocked_puts,
            tenant_count=len(self.tenants),
            device_count=sum(aggregate.device_count
                             for aggregate in self.tenants.values()),
        )
