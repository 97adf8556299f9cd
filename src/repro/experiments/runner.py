"""Parallel experiment fan-out, the shared process pool, and timing hooks.

The paper's headline artifacts come from sweeps — seeds × beacon
intervals × channel loads — and every sweep cell is an independent,
deterministic simulation (each cell builds its own :class:`Simulator`
and seeds its own RNGs). That independence is the whole contract here:

* :class:`ProcessPool` is the one process pool in the repository: the
  sweeps, the sharded fleet and the gateway service all fan out over
  it. It keeps every input until its result is taken, so a worker that
  dies costs a resubmission, never a result (nor the metrics the input
  recorded: taking a result merges them into this process).
* :func:`injected` and :func:`fault_point` are the fault seam that
  proves it: a kill plan armed in the caller rides with each input's
  first attempt, and the worker reaching an armed point SIGKILLs itself.
* :class:`ParallelRunner` fans a function over a work list through that
  pool, **returning results in input order** regardless of completion
  order, so a parallel sweep is byte-identical to the serial loop it
  replaces. ``workers=1`` is a plain serial loop; anything the pool
  cannot pickle (lambdas, closures) silently degrades to serial so
  interactive callers and tests never break.
* :class:`StageTimings` records wall-clock ``perf_counter`` spans, one
  per experiment of a ``python -m repro.experiments`` run, so
  ``--timings`` can show where the run's time went and whether the
  fan-out actually paid off.

Nothing here imports the simulation layers, so worker processes only
materialise what the mapped function itself pulls in; nor, until a pool
is built, the process-pool stack (``multiprocessing``,
``concurrent.futures.process``, ``pickle``), so a serial run and the
gateway's import never load it.
"""

from __future__ import annotations

import math
import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import (TYPE_CHECKING, Any, Callable, Hashable, Iterable,
                    Iterator, Sequence, TypeVar)

from ..obs.metrics import METRICS

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

_T = TypeVar("_T")
_R = TypeVar("_R")

class RunnerError(ValueError):
    """Raised for invalid runner configuration."""


def _call_chunk(fn: Callable[[_T], _R], chunk: Sequence[_T]) -> list[_R]:
    """Worker-side unit of dispatch: one chunk, results in chunk order.

    Module-level (not a closure) so it pickles under spawn.
    """
    return [fn(item) for item in chunk]


@dataclass(frozen=True, slots=True)
class TimingSpan:
    """One recorded wall-clock span."""

    stage: str
    elapsed_s: float


class StageTimings:
    """An append-only registry of named wall-clock spans.

    Aggregation is by stage name, so the table only adds up when spans
    do not nest. Spans are recorded in the parent around a whole
    fan-out, which is the honest number (it includes the pool overhead
    the speedup has to beat).
    """

    def __init__(self) -> None:
        self._spans: list[TimingSpan] = []

    @contextmanager
    def span(self, stage: str) -> Iterator[None]:
        """Record the wall-clock duration of the enclosed block."""
        start = perf_counter()
        try:
            yield
        finally:
            self.record(stage, perf_counter() - start)

    def record(self, stage: str, elapsed_s: float) -> None:
        if elapsed_s < 0:
            raise RunnerError(f"negative span duration {elapsed_s}")
        self._spans.append(TimingSpan(stage, elapsed_s))

    @property
    def spans(self) -> tuple[TimingSpan, ...]:
        return tuple(self._spans)

    def totals(self) -> dict[str, float]:
        """Total seconds per stage, in first-recorded order."""
        merged: dict[str, float] = {}
        for span in self._spans:
            merged[span.stage] = merged.get(span.stage, 0.0) + span.elapsed_s
        return merged

    def total_s(self) -> float:
        return sum(span.elapsed_s for span in self._spans)

    def clear(self) -> None:
        self._spans.clear()

    def render(self, title: str = "Stage timings") -> str:
        from .report import render_timings
        return render_timings(self, title=title)


#: Resubmissions an input gets after losing its worker; a further loss
#: runs it in-process, so one poison input costs throughput, never the
#: result.
RETRIES = 2


#: The kill plan, as ``(point, key)`` pairs, that :func:`injected` arms
#: in this process; and the plan of the input this pool worker runs,
#: which is ``None`` outside a pool worker, so no point fires there.
_armed: frozenset[tuple[str, Hashable]] | None = None
_running: frozenset[tuple[str, Hashable]] | None = None


@contextmanager
def injected(plan: dict[str, Hashable]) -> Iterator[None]:
    """Arm ``plan`` (``{point: key}``) for the :class:`ProcessPool`
    inputs submitted inside the block: the worker running an input's
    first attempt SIGKILLs itself at ``fault_point(point, key)``. A
    resubmission carries no plan, so it proceeds."""
    global _armed
    previous, _armed = _armed, frozenset(plan.items())
    try:
        yield
    finally:
        _armed = previous


def fault_point(point: str, key: Hashable) -> None:
    """SIGKILL this pool worker if its input's plan arms ``point`` at
    ``key``; a no-op everywhere else."""
    if _running is not None and (point, key) in _running:
        os.kill(os.getpid(), signal.SIGKILL)


def _pooled(fn: Callable[..., _R], args: tuple,
            plan: frozenset[tuple[str, Hashable]] | None,
            ) -> tuple[_R, list[dict]]:
    """Worker side of :class:`ProcessPool`: ``fn(*args)`` under the
    input's kill plan, and the metrics it recorded. A worker serves
    many inputs (and a forked one starts with the parent's registry),
    so the registry is emptied first."""
    global _running
    METRICS.clear()
    _running = plan
    return fn(*args), METRICS.snapshot()


def _merged(outcome: tuple[_R, list[dict]]) -> _R:
    """Parent side of :func:`_pooled`: merge the metrics, return the
    result."""
    result, records = outcome
    METRICS.merge(records)
    return result


@dataclass(slots=True)
class _Job:
    """One retained input; ``future`` is ``None`` once it is due to run
    in-process."""

    fn: Callable[..., Any]
    args: tuple
    plan: frozenset[tuple[str, Hashable]] | None
    future: Future | None = None
    losses: int = 0


class ProcessPool:
    """A keyed process pool that loses no submitted work.

    ``submit(key, fn, *args)`` hands one input to a worker and keeps it
    until ``take(key)`` (or ``await take_async(key)``) returns its
    result, so taking keys in submission order yields results in that
    order whatever order the workers finish in. Taking a result also
    merges the metrics its input recorded in the worker into this
    process's registry, which so ends as a serial run leaves it. A
    worker that dies (``BrokenProcessPool``: SIGKILL, OOM, segfault)
    breaks the pool: it is replaced at once, with no backoff sleep, and
    every input still in flight resubmitted (finished results are kept;
    a lost attempt's metrics die with it). An input lost more than
    :data:`RETRIES` times runs in-process when taken. ``rescued`` counts
    the inputs resubmitted or moved in-process. Genuine exceptions from
    ``fn`` propagate from ``take``; the constructor raises
    :class:`OSError` when the platform cannot host a pool.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.rescued = 0
        self._jobs: dict[Hashable, _Job] = {}
        self._executor: ProcessPoolExecutor | None = self._new_executor()

    def _new_executor(self) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor(max_workers=self.workers)

    def submit(self, key: Hashable, fn: Callable[..., Any],
               *args: Any) -> None:
        """Start ``fn(*args)`` on a worker, retained under ``key``."""
        from concurrent.futures.process import BrokenProcessPool
        job = _Job(fn, args, _armed)
        try:
            self._start(job)
        except BrokenProcessPool:
            # A worker died since the last take: replace the pool, then
            # start this job on the new one.
            self._replace_broken()
            self._start(job)
        self._jobs[key] = job

    def _start(self, job: _Job) -> None:
        if self._executor is not None and job.losses <= RETRIES:
            job.future = self._executor.submit(
                _pooled, job.fn, job.args,
                None if job.losses else job.plan)
        else:
            job.future = None

    def take(self, key: Hashable) -> Any:
        """Block until ``key``'s result is ready; release its input."""
        from concurrent.futures.process import BrokenProcessPool
        job = self._jobs[key]
        while job.future is not None:
            try:
                outcome = job.future.result()
            except BrokenProcessPool:
                self._replace_broken()
            else:
                del self._jobs[key]
                return _merged(outcome)
        del self._jobs[key]
        return job.fn(*job.args)

    async def take_async(self, key: Hashable) -> Any:
        """:meth:`take` for an event loop, which keeps serving its other
        tasks while it waits."""
        import asyncio  # here, not at import: the sweeps never need it
        from concurrent.futures.process import BrokenProcessPool
        job = self._jobs[key]
        while job.future is not None:
            try:
                outcome = await asyncio.wrap_future(job.future)
            except BrokenProcessPool:
                self._replace_broken()
            else:
                del self._jobs[key]
                return _merged(outcome)
        del self._jobs[key]
        return job.fn(*job.args)

    def _replace_broken(self) -> None:
        """Replace a broken pool and resubmit what it lost."""
        METRICS.counter("runner.pool_breaks").inc()
        self._shutdown()
        try:
            self._executor = self._new_executor()
        except OSError:
            self._executor = None  # everything left runs in-process
        for job in self._jobs.values():
            future = job.future
            if future is None or (future.done() and not future.cancelled()
                                  and future.exception() is None):
                continue  # already due in-process, or done before the break
            job.losses += 1
            self.rescued += 1
            METRICS.counter("runner.rescued").inc()
            self._start(job)
            if job.future is None:
                METRICS.counter("runner.chunks_rescued").inc()

    def _shutdown(self) -> None:
        if self._executor is None:
            return
        if self._jobs:
            # A worker stuck on an input — or a pool whose queue-feeder
            # thread choked pickling — never drains, so its manager
            # thread never exits and a plain join (here, or in
            # CPython's atexit hook) blocks forever. Kill the workers
            # first: the manager sees the pool break, cleans up, and
            # the join below returns.
            workers = getattr(self._executor, "_processes", None) or {}
            for process in list(workers.values()):
                try:
                    process.kill()
                except (OSError, ValueError):
                    pass  # already exited
        # Always reap threads and processes: with fork-start workers,
        # executor threads left running across many pool lifetimes make
        # later forks inherit mid-critical-section locks and deadlock.
        self._executor.shutdown(wait=True, cancel_futures=True)
        self._executor = None

    def close(self) -> None:
        """Release the workers, abandoning any input not yet taken."""
        self._shutdown()
        self._jobs.clear()


class ParallelRunner:
    """Deterministic process-pool fan-out over an independent work list.

    Args:
        workers: pool size; ``1`` (the default) runs a plain serial loop
            in-process — no pool, no pickling, no surprises.

    Determinism contract: ``map(fn, items)`` returns ``[fn(x) for x in
    items]`` — same values, same order — however the work was scheduled.
    That holds because every experiment cell is self-contained (own
    simulator, own seeded RNGs, no shared mutable state), which is a
    property this module *relies on*, not one it can enforce.

    Functions (and results) must be picklable to cross the process
    boundary; when they are not, or when the platform cannot spawn
    workers at all, the runner falls back to the serial loop. A worker
    gets ``ceil(n / (workers * 4))`` items per dispatch: large enough to
    amortise IPC, small enough to keep the pool balanced when cells have
    uneven cost. Lost chunks are rescued by :class:`ProcessPool`: the
    sweep completes with the same values in the same order, it just
    takes longer.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise RunnerError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Apply ``fn`` to every item; results in input order.

        At ``workers=1`` each item is drawn only after ``fn`` has
        returned for the one before, so a generator of large inputs
        never has them all alive at once. A pool needs their count to
        size its chunks, so it materialises ``items`` first.
        """
        work = items if self.workers == 1 else list(items)
        if self.workers == 1 or len(work) <= 1:
            return [fn(item) for item in work]
        import pickle
        try:
            # An unpicklable fn (a lambda, a closure) must never reach a
            # pool: submit() succeeds and the pickling error only fires
            # later inside the executor's queue-feeder thread, which
            # leaves the manager thread permanently unjoinable — any
            # later shutdown(wait=True), or CPython's own atexit hook,
            # deadlocks. Probe up front and stay in-process instead.
            pickle.dumps((fn, work[0]))
        except Exception:
            return [fn(item) for item in work]
        chunk = max(1, math.ceil(len(work) / (self.workers * 4)))
        chunks = [work[i:i + chunk] for i in range(0, len(work), chunk)]
        results: list[_R] = []
        try:
            pool = ProcessPool(min(self.workers, len(chunks)))
            try:
                for index, part in enumerate(chunks):
                    pool.submit(index, _call_chunk, fn, part)
                for index in range(len(chunks)):
                    results.extend(pool.take(index))
            finally:
                pool.close()
        except (OSError, pickle.PicklingError, AttributeError, TypeError):
            # No worker processes on this platform, or unpicklable
            # results (CPython reports local lambdas as AttributeError
            # and unpicklable objects as TypeError). Cells are
            # side-effect-free, so running the items not yet taken
            # in-process gives the identical answer (and counts no
            # taken item's metrics twice) — and re-raises any genuine
            # error from ``fn`` itself.
            return results + [fn(item) for item in work[len(results):]]
        return results


def run_grid(fn: Callable[[_T], _R], items: Iterable[_T], *,
             workers: int = 1) -> list[_R]:
    """Fan ``fn`` over ``items``; results in input order.

    The convenience wrapper the experiment harnesses share: one line per
    sweep. Items are consumed as :meth:`ParallelRunner.map` consumes
    them: lazily at ``workers=1``, all up front for a pool.
    """
    return ParallelRunner(workers=workers).map(fn, items)
