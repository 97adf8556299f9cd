"""Parallel experiment fan-out and per-stage timing hooks.

The paper's headline artifacts come from sweeps — seeds × beacon
intervals × channel loads — and every sweep cell is an independent,
deterministic simulation (each cell builds its own :class:`Simulator`
and seeds its own RNGs). That independence is the whole contract here:

* :class:`ParallelRunner` fans a function over a work list with a
  process pool, **returning results in input order** regardless of
  completion order, so a parallel sweep is byte-identical to the serial
  loop it replaces. ``workers=1`` is a plain serial loop; anything the
  pool cannot pickle (lambdas, closures) silently degrades to serial so
  interactive callers and tests never break.
* :class:`StageTimings` records wall-clock ``perf_counter`` spans, one
  per experiment of a ``python -m repro.experiments`` run, so
  ``--timings`` can show where the run's time went and whether the
  fan-out actually paid off.

Nothing here imports the simulation layers, so worker processes only
materialise what the mapped function itself pulls in.
"""

from __future__ import annotations

import math
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")


class RunnerError(ValueError):
    """Raised for invalid runner configuration."""


class _PoolUnusable(Exception):
    """Internal: the pool cannot run this function at all (unpicklable
    function or results, or the platform cannot spawn workers) — the
    whole map must fall back to the serial loop."""


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


class ParallelRunner:
    """Deterministic process-pool fan-out over an independent work list.

    Args:
        workers: pool size; ``1`` (the default) runs a plain serial loop
            in-process — no pool, no pickling, no surprises.
        chunk_size: items handed to a worker per dispatch. Defaults to
            ``ceil(n / (workers * 4))`` — large enough to amortise IPC,
            small enough to keep the pool balanced when cells have
            uneven cost.

    Determinism contract: ``map(fn, items)`` returns ``[fn(x) for x in
    items]`` — same values, same order — however the work was scheduled.
    That holds because every experiment cell is self-contained (own
    simulator, own seeded RNGs, no shared mutable state), which is a
    property this module *relies on*, not one it can enforce.

    Functions (and results) must be picklable to cross the process
    boundary; when they are not, or when the platform cannot spawn
    workers at all, the runner falls back to the serial loop and notes
    it in :attr:`last_backend`.

    Robustness contract: a worker that dies mid-run (OOM-killed,
    segfaulted) or hangs past ``timeout_s`` loses only its own chunks.
    Lost chunks are retried on a fresh pool up to ``retries`` times with
    exponential backoff, and whatever is *still* missing afterwards is
    recomputed serially in-process — the sweep completes with the same
    values in the same order, it just takes longer. ``last_backend``
    reports ``"process-pool-recovered"`` when any rescue happened.
    """

    def __init__(self, workers: int = 1, chunk_size: int | None = None,
                 timeout_s: float | None = None, retries: int = 2,
                 backoff_s: float = 0.25) -> None:
        if workers < 1:
            raise RunnerError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise RunnerError(f"chunk_size must be >= 1, got {chunk_size}")
        if timeout_s is not None and timeout_s <= 0:
            raise RunnerError(f"timeout must be positive, got {timeout_s}")
        if retries < 0:
            raise RunnerError(f"retries cannot be negative, got {retries}")
        if backoff_s < 0:
            raise RunnerError(f"backoff cannot be negative, got {backoff_s}")
        self.workers = workers
        self.chunk_size = chunk_size
        #: Per-chunk result deadline; ``None`` waits forever. A chunk
        #: that misses it counts as lost (the stuck pool is torn down)
        #: and goes through the retry/serial-rescue path.
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        #: How the last :meth:`map` actually executed: ``"serial"``,
        #: ``"process-pool"``, ``"process-pool-recovered"`` (pool plus
        #: retry/serial rescue of lost chunks) or ``"serial-fallback"``.
        self.last_backend: str | None = None

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Apply ``fn`` to every item; results in input order."""
        work = list(items)
        if self.workers == 1 or len(work) <= 1:
            self.last_backend = "serial"
            return [fn(item) for item in work]
        try:
            # An unpicklable fn (a lambda, a closure) must never reach a
            # pool: submit() succeeds and the pickling error only fires
            # later inside the executor's queue-feeder thread, which
            # leaves the manager thread permanently unjoinable — any
            # later shutdown(wait=True), or CPython's own atexit hook,
            # deadlocks. Probe up front and stay in-process instead.
            pickle.dumps((fn, work[0]))
        except Exception:
            self.last_backend = "serial-fallback"
            return [fn(item) for item in work]
        chunk = (self.chunk_size if self.chunk_size is not None
                 else max(1, math.ceil(len(work) / (self.workers * 4))))
        chunks = [work[i:i + chunk] for i in range(0, len(work), chunk)]
        slots: list[list[_R] | None] = [None] * len(chunks)
        pending = list(range(len(chunks)))
        recovered = False
        try:
            for attempt in range(self.retries + 1):
                if not pending:
                    break
                if attempt > 0:
                    recovered = True
                    self._metric("runner_retry_rounds_total").inc()
                    time.sleep(self.backoff_s * (2 ** (attempt - 1)))
                pending = self._pool_round(fn, chunks, slots, pending)
        except _PoolUnusable:
            # Unpicklable function/result (CPython reports local lambdas
            # as AttributeError and unpicklable objects as TypeError),
            # or no worker processes on this platform. Cells are
            # side-effect-free, so a serial rerun is safe and gives the
            # identical answer — and re-raises any genuine error from
            # ``fn`` itself.
            self.last_backend = "serial-fallback"
            return [fn(item) for item in work]
        if pending:
            # Retries exhausted with chunks still lost: finish the job
            # in-process, touching only the missing cells.
            recovered = True
            self._metric("runner_chunks_rescued_total").inc(len(pending))
            for index in pending:
                slots[index] = [fn(item) for item in chunks[index]]
        self.last_backend = ("process-pool-recovered" if recovered
                             else "process-pool")
        results: list[_R] = []
        for part in slots:
            assert part is not None
            results.extend(part)
        return results

    def _pool_round(self, fn: Callable[[_T], _R],
                    chunks: Sequence[Sequence[_T]],
                    slots: list[list[_R] | None],
                    pending: Sequence[int]) -> list[int]:
        """Submit ``pending`` chunks to a fresh pool; return the indices
        still missing afterwards (worker death / timeout). Raises
        :class:`_PoolUnusable` when process-pool execution cannot work
        at all, and re-raises genuine exceptions from ``fn``."""
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(pending)))
        except OSError as error:
            raise _PoolUnusable from error
        lost: list[int] = []
        abnormal = False
        try:
            try:
                futures = [(pool.submit(_call_chunk, fn, chunks[index]),
                            index) for index in pending]
            except (BrokenProcessPool, OSError, RuntimeError) as error:
                abnormal = True
                raise _PoolUnusable from error
            for future, index in futures:
                try:
                    slots[index] = future.result(timeout=self.timeout_s)
                except (pickle.PicklingError, AttributeError,
                        TypeError) as error:
                    abnormal = True
                    raise _PoolUnusable from error
                except FuturesTimeout:
                    self._metric("runner_task_timeouts_total").inc()
                    lost.append(index)
                    abnormal = True
                except BrokenProcessPool:
                    self._metric("runner_pool_breaks_total").inc()
                    lost.append(index)
                except OSError:
                    lost.append(index)
        finally:
            if abnormal:
                # A worker stuck past its deadline — or a pool whose
                # queue-feeder thread choked pickling — will never
                # drain, so its manager thread never exits and a plain
                # join (here, or in CPython's atexit hook) blocks
                # forever. Kill the workers first: the manager sees the
                # pool break, cleans up, and the join below returns.
                workers = getattr(pool, "_processes", None) or {}
                for process in list(workers.values()):
                    try:
                        process.kill()
                    except Exception:
                        pass
            # Every round must reap its threads and processes: with
            # fork-start workers, executor threads left running across
            # many pool lifetimes make later forks inherit
            # mid-critical-section locks and deadlock.
            pool.shutdown(wait=True, cancel_futures=True)
        return lost

    @staticmethod
    def _metric(name: str):
        from ..obs.metrics import METRICS
        return METRICS.counter(name)


def run_grid(fn: Callable[[_T], _R], items: Sequence[_T], *,
             workers: int = 1, timeout_s: float | None = None,
             retries: int = 2) -> list[_R]:
    """Fan ``fn`` over ``items``; results in input order.

    The convenience wrapper the experiment harnesses share: one line per
    sweep.
    """
    return ParallelRunner(workers=workers, timeout_s=timeout_s,
                          retries=retries).map(fn, items)
