"""Tests for the discrete-event engine and device clocks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.clock import ClockError, JitteryClock, crystal_population
from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_time_ordering(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_fifo_tie_break(self):
        sim = Simulator()
        order = []
        for index in range(5):
            sim.schedule(1.0, lambda index=index: order.append(index))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now_s))
        sim.run()
        assert seen == [3.5]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(
            1.0, lambda: seen.append(sim.now_s)))
        sim.run()
        assert seen == [2.0]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(1.0, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert not fired and handle.cancelled

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_scheduled_and_cancelled_counters(self):
        sim = Simulator()
        handle = sim.schedule(2.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        handle.cancel()
        sim.run()
        assert sim.events_scheduled == 2
        assert sim.events_cancelled == 1
        assert sim.events_processed == 1

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        assert sim.pending_events() == 1


class TestHeapCompaction:
    def test_mass_cancellation_shrinks_heap(self):
        sim = Simulator()
        handles = [sim.schedule(1.0 + index, lambda: None)
                   for index in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        assert sim.heap_compactions >= 1
        assert len(sim._heap) <= 100
        assert sim.pending_events() == 50

    def test_small_heaps_not_compacted(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        for handle in handles:
            handle.cancel()
        assert sim.heap_compactions == 0

    def test_compaction_preserves_order(self):
        sim = Simulator()
        order = []
        keep = []
        for index in range(100):
            handle = sim.schedule(
                1.0 + index, lambda index=index: order.append(index))
            if index % 2:
                handle.cancel()
            else:
                keep.append(index)
        sim.run()
        assert order == keep

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # must not corrupt the tombstone counter
        assert sim.pending_events() == 0
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events() == 1

    def test_cancel_idempotent(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events() == 1
        assert not keep.cancelled

    def test_pending_exact_during_run(self):
        sim = Simulator()
        seen = []
        later = [sim.schedule(5.0 + index, lambda: None)
                 for index in range(4)]
        sim.schedule(1.0, lambda: later[0].cancel())
        sim.schedule(2.0, lambda: seen.append(sim.pending_events()))
        sim.run()
        assert seen == [3]


class TestRunControl:
    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until_s=5.0)
        assert fired == [1]
        assert sim.now_s == 5.0

    def test_run_until_advances_idle_clock(self):
        sim = Simulator()
        sim.run(until_s=42.0)
        assert sim.now_s == 42.0

    def test_remaining_events_fire_on_next_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.run(until_s=5.0)
        sim.run()
        assert fired == [1]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for index in range(10):
            sim.schedule(1.0 + index, lambda index=index: fired.append(index))
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.run())
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()


class TestPeriodicTask:
    def test_fires_on_interval(self):
        sim = Simulator()
        times = []
        sim.call_every(2.0, lambda: times.append(sim.now_s))
        sim.run(until_s=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_start_delay(self):
        sim = Simulator()
        times = []
        sim.call_every(2.0, lambda: times.append(sim.now_s), start_delay_s=0.5)
        sim.run(until_s=5.0)
        assert times == [0.5, 2.5, 4.5]

    def test_stop(self):
        sim = Simulator()
        times = []
        task = sim.call_every(1.0, lambda: times.append(sim.now_s))
        sim.schedule(2.5, task.stop)
        sim.run(until_s=10.0)
        assert times == [1.0, 2.0]

    def test_bad_interval(self):
        with pytest.raises(SimulationError):
            Simulator().call_every(0.0, lambda: None)


class TestJitteryClock:
    def test_perfect_clock(self):
        assert JitteryClock().actual_interval_s(10.0) == 10.0

    def test_drift_direction(self):
        slow = JitteryClock(drift_ppm=100.0)
        assert slow.actual_interval_s(1.0) == pytest.approx(1.0001)
        fast = JitteryClock(drift_ppm=-100.0)
        assert fast.actual_interval_s(1.0) == pytest.approx(0.9999)

    def test_jitter_reproducible_by_seed(self):
        first = JitteryClock(jitter_std_s=1e-3, seed=42)
        second = JitteryClock(jitter_std_s=1e-3, seed=42)
        assert [first.actual_interval_s(1.0) for _ in range(5)] == \
               [second.actual_interval_s(1.0) for _ in range(5)]

    def test_jitter_varies_across_calls(self):
        clock = JitteryClock(jitter_std_s=1e-3, seed=1)
        values = {clock.actual_interval_s(1.0) for _ in range(10)}
        assert len(values) > 1

    @given(st.floats(1e-3, 1e4), st.integers(0, 1000))
    def test_always_positive(self, nominal, seed):
        clock = JitteryClock(drift_ppm=-500.0, jitter_std_s=nominal, seed=seed)
        assert clock.actual_interval_s(nominal) > 0

    def test_validation(self):
        with pytest.raises(ClockError):
            JitteryClock(drift_ppm=1e6)
        with pytest.raises(ClockError):
            JitteryClock(jitter_std_s=-1.0)
        with pytest.raises(ClockError):
            JitteryClock().actual_interval_s(0.0)


class TestCrystalPopulation:
    def test_count(self):
        assert len(crystal_population(10)) == 10

    def test_reproducible(self):
        first = crystal_population(5, seed=3)
        second = crystal_population(5, seed=3)
        assert [clock.drift_ppm for clock in first] == \
               [clock.drift_ppm for clock in second]

    def test_distinct_drifts(self):
        drifts = {clock.drift_ppm for clock in crystal_population(20)}
        assert len(drifts) == 20

    def test_negative_count_rejected(self):
        with pytest.raises(ClockError):
            crystal_population(-1)


class TestMaxEventsClockRegression:
    """``run(until_s=..., max_events=...)`` must not jump the clock past
    live queued events (regression: the old loop force-advanced to
    ``until_s``, so re-scheduling at a pending event's time raised
    "cannot schedule into the past" and idle integration over-counted)."""

    def test_clock_stays_at_last_fired_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run(until_s=10.0, max_events=1)
        assert fired == ["a"]
        assert sim.now_s == 1.0
        assert sim.pending_events() == 1

    def test_can_schedule_before_pending_event_after_partial_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(5.0, lambda: fired.append("c"))
        sim.run(until_s=10.0, max_events=1)
        # The pre-fix clock sat at 10.0 here, so this raised.
        sim.at(2.0, lambda: fired.append("b"))
        sim.run(until_s=10.0)
        assert fired == ["a", "b", "c"]
        assert sim.now_s == 10.0

    def test_resumed_run_completes_in_order(self):
        sim = Simulator()
        fired = []
        for delay in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(delay, lambda delay=delay: fired.append(delay))
        sim.run(until_s=10.0, max_events=2)
        assert fired == [1.0, 2.0] and sim.now_s == 2.0
        sim.run(until_s=10.0)
        assert fired == [1.0, 2.0, 3.0, 4.0] and sim.now_s == 10.0

    def test_drained_queue_still_advances_to_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until_s=10.0, max_events=5)
        assert sim.now_s == 10.0

    def test_pending_event_beyond_until_still_advances(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(20.0, lambda: fired.append(2))
        # max_events also exhausted, but the only remaining event lies
        # beyond until_s: the window [now, until_s] was fully simulated.
        sim.run(until_s=10.0, max_events=1)
        assert fired == [1] and sim.now_s == 10.0

    def test_max_events_without_until_keeps_clock(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.schedule(7.0, lambda: None)
        sim.run(max_events=1)
        assert sim.now_s == 3.0
