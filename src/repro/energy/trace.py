"""Current-draw traces: the reproduction's stand-in for multimeter data.

The paper derives every result by sampling the ESP32's supply current at
50 kS/s and integrating. Here, scenario runs emit a
:class:`CurrentTrace` — an ordered list of labelled piecewise-constant
segments — which integrates *exactly* (no sampling error), and which the
simulated Keysight multimeter (:mod:`repro.testbed.multimeter`) can
re-sample at 50 kS/s to emulate the paper's measurement front end.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np


class TraceError(ValueError):
    """Raised for malformed trace construction or queries."""


@dataclass(frozen=True, slots=True)
class TraceSegment:
    """A span of constant current draw.

    Attributes:
        start_s: segment start time (simulation seconds).
        duration_s: length of the span.
        current_a: supply current during the span, amperes.
        label: phase name ("deep-sleep", "boot", "assoc", "tx", ...).
    """

    start_s: float
    duration_s: float
    current_a: float
    label: str

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise TraceError(f"negative duration {self.duration_s}")
        if self.current_a < 0:
            raise TraceError(f"negative current {self.current_a}")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def charge_c(self) -> float:
        return self.current_a * self.duration_s


class CurrentTrace:
    """An append-only, time-ordered sequence of current segments.

    Build with :meth:`append` (advances an internal cursor) or
    :meth:`add_segment` (explicit start time). Segments may not overlap;
    gaps are treated as zero current.
    """

    def __init__(self, start_s: float = 0.0) -> None:
        self._segments: list[TraceSegment] = []
        #: Parallel list of segment start times; segments are appended
        #: in time order, so this stays sorted and point queries can
        #: bisect it instead of scanning every segment.
        self._starts: list[float] = []
        self._cursor_s = start_s

    # -- construction --------------------------------------------------------

    def append(self, duration_s: float, current_a: float, label: str) -> TraceSegment:
        """Add a segment at the cursor and advance it."""
        segment = TraceSegment(self._cursor_s, duration_s, current_a, label)
        self._push(segment)
        self._cursor_s = segment.end_s
        return segment

    def add_segment(self, start_s: float, duration_s: float,
                    current_a: float, label: str) -> TraceSegment:
        """Add a segment at an explicit time (must not rewind)."""
        segment = TraceSegment(start_s, duration_s, current_a, label)
        self._push(segment)
        self._cursor_s = max(self._cursor_s, segment.end_s)
        return segment

    def _push(self, segment: TraceSegment) -> None:
        if self._segments and segment.start_s < self._segments[-1].end_s - 1e-12:
            raise TraceError(
                f"segment at {segment.start_s}s overlaps previous ending "
                f"{self._segments[-1].end_s}s")
        self._segments.append(segment)
        self._starts.append(segment.start_s)

    @property
    def cursor_s(self) -> float:
        return self._cursor_s

    # -- inspection ------------------------------------------------------------

    @property
    def segments(self) -> tuple[TraceSegment, ...]:
        return tuple(self._segments)

    @property
    def start_s(self) -> float:
        if not self._segments:
            return self._cursor_s
        return self._segments[0].start_s

    @property
    def end_s(self) -> float:
        if not self._segments:
            return self._cursor_s
        return self._segments[-1].end_s

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self):
        return iter(self._segments)

    # -- integration -------------------------------------------------------------

    def charge_c(self, t0_s: float | None = None,
                 t1_s: float | None = None) -> float:
        """Integral of current over [t0, t1] in coulombs (exact)."""
        t0 = self.start_s if t0_s is None else t0_s
        t1 = self.end_s if t1_s is None else t1_s
        if t1 < t0:
            raise TraceError(f"bad integration window [{t0}, {t1}]")
        total = 0.0
        for segment in self._segments:
            lo = max(segment.start_s, t0)
            hi = min(segment.end_s, t1)
            if hi > lo:
                total += segment.current_a * (hi - lo)
        return total

    def energy_j(self, voltage_v: float, t0_s: float | None = None,
                 t1_s: float | None = None) -> float:
        """Energy drawn from a constant ``voltage_v`` supply."""
        if voltage_v <= 0:
            raise TraceError(f"supply voltage must be positive, got {voltage_v}")
        return voltage_v * self.charge_c(t0_s, t1_s)

    def average_current_a(self, t0_s: float | None = None,
                          t1_s: float | None = None) -> float:
        t0 = self.start_s if t0_s is None else t0_s
        t1 = self.end_s if t1_s is None else t1_s
        if t1 <= t0:
            raise TraceError("empty averaging window")
        return self.charge_c(t0, t1) / (t1 - t0)

    def peak_current_a(self) -> float:
        if not self._segments:
            return 0.0
        return max(segment.current_a for segment in self._segments)

    def charge_by_label(self) -> dict[str, float]:
        """Coulombs attributed to each phase label."""
        totals: dict[str, float] = {}
        for segment in self._segments:
            totals[segment.label] = totals.get(segment.label, 0.0) + segment.charge_c
        return totals

    def duration_by_label(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for segment in self._segments:
            totals[segment.label] = totals.get(segment.label, 0.0) + segment.duration_s
        return totals

    def labels(self) -> list[str]:
        """Phase labels in first-appearance order."""
        seen: list[str] = []
        for segment in self._segments:
            if segment.label not in seen:
                seen.append(segment.label)
        return seen

    # -- sampling ----------------------------------------------------------------

    def sample(self, rate_hz: float, t0_s: float | None = None,
               t1_s: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Sample the trace at ``rate_hz`` like a bench multimeter.

        Returns (times, currents). Each sample reports the current at the
        sample instant (zero in gaps), matching an instantaneous-aperture
        DMM reading.

        The grid is integer-indexed (``t0 + k / rate_hz``): a float-step
        ``np.arange`` accumulates one ulp of drift per step, which over a
        multi-minute window at 50 kS/s shifts samples off segment
        boundaries and can even change the sample count. Each segment
        then fills one slice of the output: two ``searchsorted`` calls
        of the (ordered) segment starts and ends into the sample grid
        give every slice, so nothing per sample is allocated beyond the
        two returned arrays.
        """
        if rate_hz <= 0:
            raise TraceError(f"sample rate must be positive, got {rate_hz}")
        t0 = self.start_s if t0_s is None else t0_s
        t1 = self.end_s if t1_s is None else t1_s
        if t1 < t0:
            raise TraceError("bad sampling window")
        # Samples lie at t0 + k/rate for 0 <= k, strictly before t1; the
        # relative guard keeps a nominally-integral span (300 s at
        # 50 kS/s) whose float product lands a few ulps high from
        # rounding up to an extra sample.
        span = (t1 - t0) * rate_hz
        count = max(0, int(np.ceil(span * (1.0 - 1e-12))))
        times = np.arange(count, dtype=np.float64)
        times /= rate_hz
        times += t0
        currents = np.zeros(count)
        if self._segments and count:
            starts = np.array(self._starts)
            ends = np.array([segment.end_s for segment in self._segments])
            # A sample belongs to the last segment starting at or before
            # it (current_at's rule), so a segment's slice stops where
            # the next one starts even if it overlaps it by the 1e-12
            # that _push forgives.
            np.minimum(ends[:-1], starts[1:], out=ends[:-1])
            firsts = np.searchsorted(times, starts).tolist()
            stops = np.searchsorted(times, ends).tolist()
            for first, stop, segment in zip(firsts, stops, self._segments):
                currents[first:stop] = segment.current_a
        return times, currents

    def current_at(self, time_s: float) -> float:
        """Instantaneous current at ``time_s`` (zero in gaps).

        O(log n) bisect over the ordered segment starts — the scalar
        twin of :meth:`sample`'s per-segment slices (the two must
        classify any instant identically; the
        ``trace-sample-vs-integral`` oracle in :mod:`repro.check`
        leans on that). See docs/PERFORMANCE.md for the benchmark.
        """
        index = bisect.bisect_right(self._starts, time_s) - 1
        if index < 0:
            return 0.0
        segment = self._segments[index]
        if time_s < segment.end_s:
            return segment.current_a
        return 0.0
