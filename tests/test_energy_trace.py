"""Tests for current traces and their integration (repro.energy.trace)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.energy.trace import CurrentTrace, TraceError, TraceSegment


def simple_trace():
    trace = CurrentTrace()
    trace.append(1.0, 0.001, "sleep")
    trace.append(0.5, 0.100, "active")
    trace.append(1.0, 0.001, "sleep")
    return trace


class TestConstruction:
    def test_append_advances_cursor(self):
        trace = CurrentTrace()
        trace.append(1.0, 0.01, "a")
        assert trace.cursor_s == 1.0
        segment = trace.append(2.0, 0.02, "b")
        assert segment.start_s == 1.0 and segment.end_s == 3.0

    def test_add_segment_with_gap(self):
        trace = CurrentTrace()
        trace.add_segment(0.0, 1.0, 0.01, "a")
        trace.add_segment(5.0, 1.0, 0.02, "b")
        assert trace.duration_s == 6.0
        assert trace.current_at(3.0) == 0.0  # the gap is zero current

    def test_overlap_rejected(self):
        trace = CurrentTrace()
        trace.add_segment(0.0, 2.0, 0.01, "a")
        with pytest.raises(TraceError, match="overlap"):
            trace.add_segment(1.0, 1.0, 0.02, "b")

    def test_negative_duration_rejected(self):
        with pytest.raises(TraceError):
            TraceSegment(0.0, -1.0, 0.01, "bad")

    def test_negative_current_rejected(self):
        with pytest.raises(TraceError):
            TraceSegment(0.0, 1.0, -0.01, "bad")

    def test_start_offset(self):
        trace = CurrentTrace(start_s=10.0)
        trace.append(1.0, 0.01, "a")
        assert trace.start_s == 10.0 and trace.end_s == 11.0

    def test_iteration_and_len(self):
        trace = simple_trace()
        assert len(trace) == 3
        assert [segment.label for segment in trace] == ["sleep", "active", "sleep"]


class TestIntegration:
    def test_total_charge(self):
        trace = simple_trace()
        expected = 1.0 * 0.001 + 0.5 * 0.100 + 1.0 * 0.001
        assert trace.charge_c() == pytest.approx(expected)

    def test_energy(self):
        trace = simple_trace()
        assert trace.energy_j(3.3) == pytest.approx(3.3 * trace.charge_c())

    def test_windowed_charge(self):
        trace = simple_trace()
        # Window covering only half of the active segment.
        assert trace.charge_c(1.0, 1.25) == pytest.approx(0.25 * 0.100)

    def test_window_straddling_segments(self):
        trace = simple_trace()
        expected = 0.5 * 0.001 + 0.5 * 0.100 + 0.5 * 0.001
        assert trace.charge_c(0.5, 2.0) == pytest.approx(expected)

    def test_bad_window_rejected(self):
        with pytest.raises(TraceError):
            simple_trace().charge_c(2.0, 1.0)

    def test_bad_voltage_rejected(self):
        with pytest.raises(TraceError):
            simple_trace().energy_j(0.0)

    def test_average_current(self):
        trace = simple_trace()
        assert trace.average_current_a() == pytest.approx(
            trace.charge_c() / 2.5)

    def test_peak(self):
        assert simple_trace().peak_current_a() == 0.100
        assert CurrentTrace().peak_current_a() == 0.0

    @given(st.lists(st.tuples(st.floats(1e-6, 10.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=20))
    def test_charge_is_sum_of_segments(self, spans):
        trace = CurrentTrace()
        for duration, current in spans:
            trace.append(duration, current, "x")
        assert trace.charge_c() == pytest.approx(
            sum(duration * current for duration, current in spans), rel=1e-9)


class TestLabels:
    def test_charge_by_label(self):
        totals = simple_trace().charge_by_label()
        assert totals["sleep"] == pytest.approx(0.002)
        assert totals["active"] == pytest.approx(0.05)

    def test_duration_by_label(self):
        durations = simple_trace().duration_by_label()
        assert durations["sleep"] == pytest.approx(2.0)

    def test_labels_in_first_appearance_order(self):
        assert simple_trace().labels() == ["sleep", "active"]


class TestSampling:
    def test_sample_count(self):
        times, currents = simple_trace().sample(1000.0)
        assert len(times) == len(currents) == 2500

    def test_sampled_values_match_segments(self):
        _times, currents = simple_trace().sample(100.0)
        assert currents[0] == pytest.approx(0.001)
        assert currents[120] == pytest.approx(0.100)

    def test_sampled_integral_approximates_exact(self):
        trace = simple_trace()
        times, currents = trace.sample(50_000.0)
        sampled_charge = float(np.sum(currents)) / 50_000.0
        assert sampled_charge == pytest.approx(trace.charge_c(), rel=1e-3)

    def test_bad_rate_rejected(self):
        with pytest.raises(TraceError):
            simple_trace().sample(0.0)

    def test_current_at(self):
        trace = simple_trace()
        assert trace.current_at(0.5) == 0.001
        assert trace.current_at(1.2) == 0.100
        assert trace.current_at(99.0) == 0.0


class TestSamplingGridRegression:
    """The sample grid must be integer-indexed (regression: a float-step
    ``np.arange`` drifted and could emit a wrong sample count over
    multi-minute windows at 50 kS/s)."""

    RATE_HZ = 50_000.0
    #: A trace start where ``np.arange(t0, t0 + 300, 1/50e3)`` emits
    #: 15,000,001 samples — one beyond the window end.
    DRIFTY_START_S = 262.97320595023706

    def _trace_300s(self, start_s):
        # 300 s of alternating sleep/active, like a long scenario run.
        trace = CurrentTrace(start_s=start_s)
        for _cycle in range(100):
            trace.append(2.9, 1e-6, "sleep")
            trace.append(0.1, 0.080, "active")
        assert trace.duration_s == pytest.approx(300.0)
        return trace

    def test_exact_sample_count_over_300s_at_50ksps(self):
        trace = self._trace_300s(self.DRIFTY_START_S)
        t1 = trace.start_s + 300.0
        times, currents = trace.sample(self.RATE_HZ, trace.start_s, t1)
        assert len(times) == len(currents) == 15_000_000
        # Every sample lies inside [t0, t1) — the drifting grid emitted
        # a sample at (or past) the window end.
        assert times[-1] < t1

    def test_grid_is_integer_indexed(self):
        trace = self._trace_300s(self.DRIFTY_START_S)
        times, _currents = trace.sample(self.RATE_HZ)
        k = np.arange(len(times))
        assert np.array_equal(times, trace.start_s + k / self.RATE_HZ)

    def test_sampled_integral_matches_exact_within_boundary_bound(self):
        trace = self._trace_300s(0.0)
        _times, currents = trace.sample(self.RATE_HZ)
        sampled_c = float(np.sum(currents)) / self.RATE_HZ
        exact_c = trace.charge_c()
        # Each of the 200 segment boundaries can mis-attribute at most
        # one sample period of the worst-case current.
        bound_c = 2 * (len(trace) + 1) * trace.peak_current_a() / self.RATE_HZ
        assert abs(sampled_c - exact_c) <= bound_c
        assert sampled_c == pytest.approx(exact_c, rel=1e-4)

    def test_gap_samples_are_zero_with_interval_lookup(self):
        trace = CurrentTrace()
        trace.add_segment(0.0, 1.0, 0.010, "a")
        trace.add_segment(3.0, 1.0, 0.020, "b")
        times, currents = trace.sample(10.0)
        in_gap = (times >= 1.0) & (times < 3.0)
        assert np.all(currents[in_gap] == 0.0)
        assert currents[0] == pytest.approx(0.010)
        assert currents[-1] == pytest.approx(0.020)

    def test_window_before_first_segment_is_zero(self):
        trace = CurrentTrace(start_s=5.0)
        trace.append(1.0, 0.010, "a")
        times, currents = trace.sample(10.0, 0.0, 5.0)
        assert len(times) == 50
        assert np.all(currents == 0.0)

    def test_boundary_sample_belongs_to_later_segment(self):
        trace = CurrentTrace()
        trace.append(1.0, 0.010, "a")
        trace.append(1.0, 0.020, "b")
        _times, currents = trace.sample(2.0)  # samples at 0.0, 0.5, 1.0, 1.5
        assert currents[2] == pytest.approx(0.020)

    def test_empty_window(self):
        times, currents = simple_trace().sample(1000.0, 1.0, 1.0)
        assert len(times) == 0 and len(currents) == 0


#: (gap before, duration, current) of one segment. Quarter-second steps
#: put segment edges exactly on the sample grids below, zero gaps make
#: segments abut, and zero durations make empty segments.
_SEGMENT = st.tuples(st.integers(0, 3), st.integers(0, 6),
                     st.sampled_from([0.0, 1e-6, 0.010, 0.080, 0.250]))


class TestSampleMatchesCurrentAt:
    """``sample`` fills one slice per segment; ``current_at`` bisects
    the segment starts. Every sample must read what ``current_at``
    reads at its instant."""

    @given(segments=st.lists(_SEGMENT, max_size=12),
           start_s=st.sampled_from([0.0, 0.75, 262.97320595023706]),
           lead_s=st.sampled_from([0.0, 0.25, 1.3]),
           anchor=st.none() | st.integers(0, 11),
           tail_s=st.sampled_from([0.0, 0.5, 2.0]),
           rate_hz=st.sampled_from([2.0, 4.0, 8.0, 10.0, 1000.0]),
           overlap=st.booleans())
    def test_every_sample_reads_current_at(self, segments, start_s, lead_s,
                                           anchor, tail_s, rate_hz, overlap):
        trace = CurrentTrace(start_s=start_s)
        for gap, duration, current in segments:
            start = trace.cursor_s + 0.25 * gap
            if (overlap and gap == 0 and len(trace)
                    and trace.segments[-1].duration_s > 0):
                start -= 1e-13  # the overlap _push forgives
            trace.add_segment(start, 0.25 * duration, current, "s")
        # Windows start before the first segment, or exactly on a
        # segment start (inside the forgiven overlap, if any).
        t0 = start_s - lead_s
        if anchor is not None and len(trace):
            t0 = trace.segments[anchor % len(trace)].start_s
        times, currents = trace.sample(rate_hz, t0, trace.end_s + tail_s)
        expected = [trace.current_at(t) for t in times.tolist()]
        assert currents.tolist() == expected

    def test_empty_segment_inside_a_forgiven_overlap(self):
        """A sample in the 1e-12 overlap that ``_push`` forgives belongs
        to the later segment, even an empty one (so it reads zero)."""
        trace = CurrentTrace()
        trace.append(1.0, 0.010, "a")
        trace.add_segment(1.0 - 1e-13, 0.0, 0.020, "empty")
        trace.add_segment(2.0, 1.0, 0.030, "b")
        times, currents = trace.sample(4.0, 1.0 - 1e-13, 3.0)
        assert trace.current_at(times[0]) == 0.0
        assert currents.tolist() == [trace.current_at(t)
                                     for t in times.tolist()]
