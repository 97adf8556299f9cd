"""Tests for the parallel experiment runner and its determinism contract.

The load-bearing property: a sweep run with ``workers>1`` must be
byte-identical to the serial loop it replaces. Everything else (timing
spans, fallbacks, chunking) exists to make that fan-out usable.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.contention import run_contention_point
from repro.experiments.reliability import run_reliability_point
from repro.experiments.runner import (
    ParallelRunner,
    ProcessPool,
    RunnerError,
    StageTimings,
    fault_point,
    injected,
    run_grid,
)
from repro.experiments.statistics import replicate, replicate_many
from repro.obs.metrics import METRICS
from repro.security.keys import (
    PMK_CACHE_MAX,
    pmk_cache_clear,
    pmk_cache_len,
    pmk_from_passphrase,
)


def square(value):
    """Module-level so it pickles into pool workers."""
    return value * value


def pid_of(_value):
    """The process that ran this item."""
    return os.getpid()


def reliability_rate(seed):
    point = run_reliability_point(2, offered_load=0.3, rounds=5, seed=seed)
    return point.delivery_rate


def contention_delay(seed):
    point = run_contention_point(0.4, True, rounds=5, seed=seed)
    return point.mean_access_delay_s


def fleet_metrics(seed):
    point = run_contention_point(0.3, False, rounds=5, seed=seed)
    return {"rate": point.delivery_rate,
            "sent": float(point.beacons_sent)}


def record(value):
    """Count one input and set a gauge in whichever process runs it."""
    METRICS.counter("test.pool.inputs").inc()
    METRICS.gauge("test.pool.last").set(value)
    return value


def record_then_die(value):
    """:func:`record`, then reach the ``"test.record"`` fault point."""
    record(value)
    fault_point("test.record", value)
    return value


def record_unpicklable(value):
    """:func:`record`; results from 2 on cannot cross back to the
    parent."""
    record(value)
    return value if value < 2 else (lambda: value)


@pytest.fixture
def metrics():
    METRICS.clear()
    yield METRICS
    METRICS.clear()


class TestParallelRunner:
    def test_serial_map(self):
        runner = ParallelRunner()
        assert runner.map(square, [1, 2, 3]) == [1, 4, 9]
        assert runner.map(pid_of, [1, 2, 3]) == [os.getpid()] * 3

    def test_parallel_map_preserves_order(self):
        runner = ParallelRunner(workers=4)
        items = list(range(20))
        assert runner.map(square, items) == [square(item) for item in items]
        assert os.getpid() not in runner.map(pid_of, items)

    def test_single_item_stays_serial(self):
        runner = ParallelRunner(workers=4)
        assert runner.map(square, [7]) == [49]
        assert runner.map(pid_of, [7]) == [os.getpid()]

    def test_lambda_degrades_to_serial(self):
        runner = ParallelRunner(workers=2)
        assert runner.map(lambda value: value + 1, [1, 2]) == [2, 3]
        assert runner.map(lambda _value: os.getpid(), [1, 2]) \
            == [os.getpid()] * 2

    def test_empty_items(self):
        assert ParallelRunner(workers=4).map(square, []) == []

    def test_validation(self):
        with pytest.raises(RunnerError):
            ParallelRunner(workers=0)


class TestDeterminism:
    """ISSUE criterion: parallel replicate byte-identical to serial,
    for at least two distinct experiments."""

    SEEDS = tuple(range(6))

    def test_reliability_parallel_matches_serial(self):
        serial = replicate(reliability_rate, self.SEEDS, workers=1)
        parallel = replicate(reliability_rate, self.SEEDS, workers=4)
        assert parallel.values == serial.values

    def test_contention_parallel_matches_serial(self):
        serial = replicate(contention_delay, self.SEEDS, workers=1)
        parallel = replicate(contention_delay, self.SEEDS, workers=4)
        assert parallel.values == serial.values

    def test_replicate_many_parallel_matches_serial(self):
        serial = replicate_many(fleet_metrics, self.SEEDS, workers=1)
        parallel = replicate_many(fleet_metrics, self.SEEDS, workers=4)
        assert set(serial) == set(parallel)
        for name in serial:
            assert parallel[name].values == serial[name].values


class TestPoolMetrics:
    """Metrics recorded in a pool worker come home once per take."""

    def test_worker_metrics_merge_on_take(self, metrics):
        pool = ProcessPool(2)
        try:
            for key in range(4):
                pool.submit(key, record, float(key))
            assert metrics.get("test.pool.inputs") is None  # not taken yet
            for key in range(4):
                assert pool.take(key) == key
                assert metrics.get("test.pool.inputs").value == key + 1
                assert metrics.get("test.pool.last").value == key
        finally:
            pool.close()

    @pytest.mark.parametrize("retries", [2, 0],
                             ids=["resubmitted", "in-process"])
    def test_rescued_input_counted_once(self, retries, metrics,
                                        monkeypatch):
        monkeypatch.setattr("repro.experiments.runner.RETRIES", retries)
        pool = ProcessPool(2)
        try:
            with injected({"test.record": 7.0}):
                pool.submit(0, record_then_die, 7.0)
            assert pool.take(0) == 7.0
            assert pool.rescued == 1
        finally:
            pool.close()
        assert metrics.get("runner.pool_breaks").value == 1
        assert metrics.get("runner.rescued").value == 1
        assert metrics.get("test.pool.inputs").value == 1
        assert metrics.get("test.pool.last").value == 7.0

    def test_serial_fallback_counts_each_item_once(self, metrics):
        # Results from 2 on cannot leave a worker, so the lambdas below
        # were built by the in-process fallback.
        results = ParallelRunner(workers=2).map(record_unpicklable, range(4))
        assert results[:2] == [0, 1]
        assert [result() for result in results[2:]] == [2, 3]
        assert metrics.get("test.pool.inputs").value == 4


#: A pool run in an interpreter that has imported nothing but the
#: runner, which loads the process-pool stack only when it builds a
#: pool: every name the pool path uses must then import itself. The
#: tests above cannot show that, since earlier tests have already
#: loaded ``multiprocessing`` into this process.
FRESH_POOL = """
import functools, json, sys
from repro.experiments.runner import (ParallelRunner, ProcessPool,
                                     fault_point, injected)
from repro.obs.metrics import METRICS

preloaded = [name for name in ("multiprocessing", "pickle",
                               "concurrent.futures.process")
             if name in sys.modules]
runner = ParallelRunner(workers=2)
mapped = runner.map(abs, range(-4, 0))
# A kill can only fire in a pool worker, so a map that quietly ran
# serially breaks no pool.
with injected({"fresh": 2}):
    killed = runner.map(functools.partial(fault_point, "fresh"), range(4))
map_breaks = METRICS.counter("runner.pool_breaks").value
pool = ProcessPool(2)
try:
    with injected({"fresh": 0}):
        pool.submit("take", fault_point, "fresh", 0)
        taken = pool.take("take")
        import asyncio
        pool.submit("async", fault_point, "fresh", 0)
        awaited = asyncio.run(pool.take_async("async"))
finally:
    pool.close()
print(json.dumps({"preloaded": preloaded, "mapped": mapped,
                  "killed": killed, "map_breaks": map_breaks,
                  "taken": taken, "awaited": awaited,
                  "rescued": pool.rescued}))
"""


def test_pool_in_a_fresh_interpreter():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    result = subprocess.run(
        [sys.executable, "-c", FRESH_POOL],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "preloaded": [], "mapped": [4, 3, 2, 1], "killed": [None] * 4,
        "map_breaks": 1, "taken": None, "awaited": None, "rescued": 2}


class TestRunGrid:
    def test_maps_in_input_order(self):
        assert run_grid(square, [1, 2, 3]) == [1, 4, 9]
        assert run_grid(square, [3, 2, 1], workers=2) == [9, 4, 1]

    def test_serial_draws_each_item_after_the_last_returns(self):
        # What lets a serial fleet run hold one shard spec at a time.
        events = []

        def items():
            for item in range(3):
                events.append(("draw", item))
                yield item

        def record(item):
            events.append(("call", item))
            return square(item)

        assert run_grid(record, items()) == [0, 1, 4]
        assert events == [("draw", 0), ("call", 0), ("draw", 1),
                          ("call", 1), ("draw", 2), ("call", 2)]
        assert run_grid(square, (item for item in range(3)),
                        workers=2) == [0, 1, 4]


class TestStageTimings:
    def test_span_records_elapsed(self):
        timings = StageTimings()
        with timings.span("work"):
            pass
        assert len(timings.spans) == 1
        assert timings.spans[0].stage == "work"
        assert timings.spans[0].elapsed_s >= 0.0

    def test_span_records_on_exception(self):
        timings = StageTimings()
        with pytest.raises(ValueError):
            with timings.span("boom"):
                raise ValueError("boom")
        assert [span.stage for span in timings.spans] == ["boom"]

    def test_totals_aggregate_by_stage(self):
        timings = StageTimings()
        timings.record("a", 1.0)
        timings.record("b", 2.0)
        timings.record("a", 3.0)
        assert timings.totals() == {"a": 4.0, "b": 2.0}
        assert timings.total_s() == 6.0

    def test_negative_span_rejected(self):
        with pytest.raises(RunnerError):
            StageTimings().record("bad", -1.0)

    def test_clear(self):
        timings = StageTimings()
        timings.record("a", 1.0)
        timings.clear()
        assert timings.spans == ()

    def test_render_lists_stages(self):
        timings = StageTimings()
        timings.record("alpha", 0.25)
        timings.record("beta", 0.75)
        text = timings.render()
        assert "alpha" in text and "beta" in text and "total" in text

    def test_render_empty(self):
        assert "no spans" in StageTimings().render()


class TestPmkCache:
    def test_hit_returns_same_bytes(self):
        pmk_cache_clear()
        first = pmk_from_passphrase("hotnets2019", b"GoogleWifi")
        second = pmk_from_passphrase("hotnets2019", b"GoogleWifi")
        assert first == second
        assert pmk_cache_len() == 1

    def test_distinct_networks_distinct_entries(self):
        pmk_cache_clear()
        pmk_from_passphrase("hotnets2019", b"GoogleWifi")
        pmk_from_passphrase("hotnets2019", b"OtherNet")
        assert pmk_cache_len() == 2

    def test_bounded_with_lru_eviction(self):
        pmk_cache_clear()
        for index in range(PMK_CACHE_MAX + 5):
            pmk_from_passphrase(f"passphrase{index:03d}", b"Net")
        assert pmk_cache_len() == PMK_CACHE_MAX

    def test_clear(self):
        pmk_from_passphrase("hotnets2019", b"GoogleWifi")
        pmk_cache_clear()
        assert pmk_cache_len() == 0
