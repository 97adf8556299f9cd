"""A small deterministic discrete-event simulation engine.

Everything in the reproduction that has a timeline — beacon schedules,
association exchanges, sleep timers, the multimeter's sample clock —
runs on this engine. Events fire in (time, insertion-order) order, so
two runs of the same scenario produce byte-identical traces.

Time is a float in **seconds**. Microsecond-scale protocol steps and
multi-minute sleep intervals coexist fine within double precision.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable


class SimulationError(RuntimeError):
    """Raised for scheduling into the past or running a broken event loop."""


@dataclass(slots=True)
class _ScheduledEvent:
    time_s: float
    callback: Callable[[], None]
    cancelled: bool = False
    popped: bool = False


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; lets the owner cancel."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: _ScheduledEvent, sim: "Simulator") -> None:
        self._event = event
        self._sim = sim

    def cancel(self) -> None:
        self._sim._cancel(self._event)

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time_s(self) -> float:
        return self._event.time_s


class Simulator:
    """The event loop: schedule callbacks, then :meth:`run`.

    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.schedule(2.0, lambda: order.append("b"))
    >>> _ = sim.schedule(1.0, lambda: order.append("a"))
    >>> sim.run()
    >>> order
    ['a', 'b']
    """

    #: Compact the heap when more than half its entries are cancelled
    #: (and it is at least this big) — long-running scenarios cancel far
    #: more timers (ACK timeouts, periodic tasks) than ever fire, and
    #: without compaction those tombstones pile up until popped.
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        #: ``(time_s, order, event)`` entries: tuples compare in C, and
        #: ``order`` is unique, so the event itself is never compared.
        self._heap: list[tuple[float, int, _ScheduledEvent]] = []
        self._order = itertools.count()
        self._now_s = 0.0
        self._running = False
        self._cancelled_in_heap = 0
        self.events_processed = 0
        self.events_scheduled = 0
        self.events_cancelled = 0
        self.heap_compactions = 0

    @property
    def now_s(self) -> float:
        return self._now_s

    def schedule(self, delay_s: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after ``delay_s`` simulated seconds."""
        if delay_s < 0:
            raise SimulationError(f"cannot schedule {delay_s}s into the past")
        return self.at(self._now_s + delay_s, callback)

    def at(self, time_s: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``time_s``."""
        if time_s < self._now_s:
            raise SimulationError(
                f"cannot schedule at {time_s}s, now is {self._now_s}s")
        order = next(self._order)
        event = _ScheduledEvent(time_s, callback)
        heapq.heappush(self._heap, (time_s, order, event))
        self.events_scheduled += 1
        return EventHandle(event, self)

    def _cancel(self, event: _ScheduledEvent) -> None:
        """Mark ``event`` cancelled and keep the tombstone count exact.

        Idempotent; cancelling an event that already fired (or was
        already cancelled) is a no-op. Compaction runs lazily once the
        majority of the heap is dead weight, so `n` cancels cost
        amortised O(log n) instead of leaving an O(n) scan to
        :meth:`pending_events` and a heap that only ever grows.
        """
        if event.cancelled or event.popped:
            return
        event.cancelled = True
        self._cancelled_in_heap += 1
        self.events_cancelled += 1
        if (len(self._heap) >= self.COMPACT_MIN_SIZE
                and self._cancelled_in_heap * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors.

        Safe mid-run: the event loop re-reads ``self._heap[0]`` on every
        iteration, and (time, order) is a total order, so heapify cannot
        change the pop sequence of live events.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.heap_compactions += 1

    def run(self, until_s: float | None = None,
            max_events: int | None = None) -> None:
        """Process events until the queue drains, ``until_s`` is reached,
        or ``max_events`` callbacks have fired.

        Advancing to ``until_s`` with a drained queue still moves the
        clock, so idle periods integrate correctly in the energy model.
        When ``max_events`` stops the loop with live events still queued
        before ``until_s``, the clock stays at the last fired event —
        jumping to ``until_s`` would strand the queued events in the
        past (``at()`` on their timestamps would raise) and charge idle
        current for a window that was never simulated.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        processed = 0
        drained = True
        try:
            while self._heap:
                time_s, _order, event = self._heap[0]
                if event.cancelled:
                    heapq.heappop(self._heap)
                    event.popped = True
                    self._cancelled_in_heap -= 1
                    continue
                if until_s is not None and time_s > until_s:
                    break
                if max_events is not None and processed >= max_events:
                    drained = False
                    break
                heapq.heappop(self._heap)
                event.popped = True
                self._now_s = time_s
                event.callback()
                processed += 1
                self.events_processed += 1
            if drained and until_s is not None and until_s > self._now_s:
                self._now_s = until_s
        finally:
            self._running = False

    def pending_events(self) -> int:
        """Live (non-cancelled) events still queued — O(1)."""
        return len(self._heap) - self._cancelled_in_heap

    def call_every(self, interval_s: float, callback: Callable[[], None],
                   start_delay_s: float | None = None) -> "PeriodicTask":
        """Schedule ``callback`` every ``interval_s`` until cancelled."""
        return PeriodicTask(self, interval_s, callback, start_delay_s)


class PeriodicTask:
    """A repeating event; cancel with :meth:`stop`."""

    def __init__(self, sim: Simulator, interval_s: float,
                 callback: Callable[[], None],
                 start_delay_s: float | None = None) -> None:
        if interval_s <= 0:
            raise SimulationError(f"interval must be positive, got {interval_s}")
        self._sim = sim
        self._interval_s = interval_s
        self._callback = callback
        self._stopped = False
        self._handle: EventHandle | None = None
        first = interval_s if start_delay_s is None else start_delay_s
        self._handle = sim.schedule(first, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._handle = self._sim.schedule(self._interval_s, self._fire)

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
