"""Bounded asyncio queues with explicit, counted backpressure.

A production ingest path must decide what happens when the consumer
falls behind; an unbounded buffer just converts overload into an OOM
kill minutes later. The gateway service makes the decision explicit:

* ``drop-oldest`` — the queue stays bounded by evicting the *oldest*
  queued payload to admit the newest. Beacons are periodic state
  reports, so the newest sample is worth more than a stale one; this is
  the lossy-but-live policy an always-on gateway defaults to.
* ``block`` — the producer coroutine suspends until space frees. This
  is the lossless policy replays, benches and the chaos smoke use,
  because it makes the ingested stream — and therefore every aggregate
  — exactly reproducible.

Every drop and every blocked put is counted, on the queue and in
:data:`repro.obs.metrics.METRICS` as ``service.dropped_oldest`` /
``service.blocked_puts``, so backpressure is observable rather than
silent.
"""

from __future__ import annotations

import asyncio
import enum
from collections import deque
from typing import Sequence

from ..obs.metrics import METRICS


class QueueClosed(RuntimeError):
    """Raised when putting into a queue that is closed for intake.

    ``admitted`` is how many items of the *offending call* were already
    accepted before the close was observed. It is only ever non-zero
    for :meth:`BoundedPayloadQueue.put_many`, which can block mid-chunk
    under the BLOCK policy and be interrupted by a close — a caller
    that retries after this error must skip the first ``admitted``
    items or it double-ingests them.
    """

    def __init__(self, message: str, admitted: int = 0) -> None:
        super().__init__(message)
        self.admitted = admitted


class BackpressurePolicy(enum.Enum):
    """What a full queue does to the *next* payload."""

    DROP_OLDEST = "drop-oldest"
    BLOCK = "block"

    @classmethod
    def parse(cls, name: str) -> "BackpressurePolicy":
        """Accept the CLI spellings (``drop-oldest`` / ``block``)."""
        for policy in cls:
            if policy.value == name:
                return policy
        raise ValueError(f"unknown backpressure policy {name!r}; "
                         f"choose from {[p.value for p in cls]}")


class BoundedPayloadQueue:
    """A capacity-bounded FIFO between the ingest front-end and the
    decode fan-out, with the drop/block decision made at put time.

    All methods must be called from the event loop that created the
    queue (standard asyncio single-thread discipline). ``get_batch``
    is the only consumer API: the decode stage works in batches, so
    per-item handoff would only add wakeup overhead.
    """

    def __init__(self, capacity: int,
                 policy: BackpressurePolicy = BackpressurePolicy.DROP_OLDEST,
                 ) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.policy = policy
        self._items: deque = deque()
        self._closed = False
        self._condition = asyncio.Condition()
        #: Lifetime accounting of this queue (drops and blocked puts
        #: are also counted in METRICS as they happen).
        self.accepted = 0
        self.dropped_oldest = 0
        self.blocked_puts = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    async def put(self, item) -> None:
        """Enqueue one payload, applying the backpressure policy.

        Under ``drop-oldest`` the call never suspends: a full queue
        evicts its oldest entry and admits ``item``. Under ``block`` it
        suspends until space frees. Raises :class:`QueueClosed` once
        the queue is closed for intake.
        """
        async with self._condition:
            await self._wait_for_room()
            self._admit(item)
            self._condition.notify_all()

    async def put_many(self, items: Sequence) -> int:
        """Enqueue a chunk under one lock round — the replay fast path.

        Identical policy semantics to per-item :meth:`put`; under
        ``block`` the call suspends whenever the queue fills mid-chunk.
        Returns the number of items admitted (``len(items)`` on
        success). Admission is **not** all-or-nothing: a close that
        lands while a mid-chunk put is blocked raises
        :class:`QueueClosed` with its ``admitted`` attribute set to the
        prefix length already accepted (those items stay drainable).
        """
        admitted = 0
        async with self._condition:
            try:
                for item in items:
                    if len(self._items) >= self.capacity \
                            and self.policy is BackpressurePolicy.BLOCK:
                        self._condition.notify_all()  # wake the consumer
                        await self._wait_for_room()
                    self._admit(item)
                    admitted += 1
            except QueueClosed as error:
                error.admitted = admitted
                raise
            finally:
                self._condition.notify_all()
        return admitted

    async def _wait_for_room(self) -> None:
        """BLOCK-policy wait (no-op under DROP_OLDEST); caller holds
        the condition. Counts one blocked put per suspension."""
        if self._closed:
            raise QueueClosed("queue is closed for intake")
        if self.policy is not BackpressurePolicy.BLOCK:
            return
        if len(self._items) >= self.capacity:
            self.blocked_puts += 1
            METRICS.counter("service.blocked_puts").inc()
            await self._condition.wait_for(
                lambda: len(self._items) < self.capacity or self._closed)
            if self._closed:
                raise QueueClosed("queue closed while a put was blocked")

    def _admit(self, item) -> None:
        if self._closed:
            raise QueueClosed("queue is closed for intake")
        if len(self._items) >= self.capacity:
            # Only reachable under DROP_OLDEST (BLOCK waited for room).
            self._items.popleft()
            self.dropped_oldest += 1
            METRICS.counter("service.dropped_oldest").inc()
        self._items.append(item)
        self.accepted += 1

    async def get_batch(self, max_items: int,
                        flush_after_s: float | None = None) -> list:
        """Dequeue up to ``max_items`` payloads.

        Waits for the first payload (bounded by ``flush_after_s`` when
        given), then drains whatever is queued up to the cap — batches
        fill under load and shrink when traffic is light, which keeps
        both throughput and latency reasonable without tuning. Returns
        ``[]`` when the flush timer fires on an empty queue, and
        forever once the queue is closed and fully drained.
        """
        async with self._condition:
            if not self._items and not self._closed:
                waiter = self._condition.wait_for(
                    lambda: bool(self._items) or self._closed)
                if flush_after_s is None:
                    await waiter
                else:
                    try:
                        await asyncio.wait_for(waiter, flush_after_s)
                    except asyncio.TimeoutError:
                        return []
            batch = []
            while self._items and len(batch) < max_items:
                batch.append(self._items.popleft())
            if batch:
                self._condition.notify_all()
            return batch

    async def close(self) -> None:
        """Stop intake; queued payloads remain drainable via
        :meth:`get_batch` (which then returns ``[]`` forever)."""
        async with self._condition:
            self._closed = True
            self._condition.notify_all()
