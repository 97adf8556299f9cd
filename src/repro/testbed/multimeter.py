"""The simulated Keysight 34465A digital multimeter.

Paper §5.1: "we utilize a Keysight 34465A digital multimeter to measure
the current draw from the ESP32 WiFi module. This multimeter is capable
of taking 50,000 samples per second with pico ampere accuracy ... we
place the multimeter in series with the 3.3 volt DC power source and
the module."

The model samples a :class:`~repro.energy.trace.CurrentTrace` at the
instrument's rate, applies the spec-sheet gain/offset error for the
selected range, and integrates charge/energy the way the paper's
analysis scripts did. A seeded noise source keeps runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..energy.trace import CurrentTrace

#: Instrument limits from the 34465A datasheet.
MAX_SAMPLE_RATE_HZ = 50_000.0

#: DC current ranges (A) and their one-year accuracy (% reading, % range).
CURRENT_RANGES: tuple[tuple[float, float, float], ...] = (
    (100e-6, 0.050, 0.005),
    (1e-3, 0.050, 0.005),
    (10e-3, 0.050, 0.005),
    (100e-3, 0.050, 0.005),
    (1.0, 0.100, 0.010),
    (3.0, 0.180, 0.020),
)


class MultimeterError(ValueError):
    """Raised for invalid instrument configuration."""


@dataclass(frozen=True, slots=True)
class Reading:
    """One acquisition: sample times, measured currents, and integrals."""

    times_s: np.ndarray
    currents_a: np.ndarray
    sample_rate_hz: float
    range_a: float

    @property
    def duration_s(self) -> float:
        if len(self.times_s) == 0:
            return 0.0
        return float(self.times_s[-1] - self.times_s[0]) + 1.0 / self.sample_rate_hz

    def charge_c(self) -> float:
        """Trapezoid-free charge estimate: sum(current) * dt, as the
        paper's average-times-duration method effectively does."""
        return float(np.sum(self.currents_a)) / self.sample_rate_hz

    def energy_j(self, voltage_v: float) -> float:
        if voltage_v <= 0:
            raise MultimeterError("supply voltage must be positive")
        return self.charge_c() * voltage_v

    def average_current_a(self) -> float:
        if len(self.currents_a) == 0:
            return 0.0
        return float(np.mean(self.currents_a))

    def peak_current_a(self) -> float:
        if len(self.currents_a) == 0:
            return 0.0
        return float(np.max(self.currents_a))


class Keysight34465A:
    """A bench DMM in series with the device's supply line.

    Args:
        sample_rate_hz: up to the instrument's 50 kS/s.
        noise: apply spec-sheet gain/offset error plus quantisation-scale
            gaussian noise. Off by default so calibration tests integrate
            exactly; the measurement-error tests switch it on.
        seed: RNG seed for the noise source, which is built at the first
            noisy acquisition (a quiet meter never loads ``numpy.random``).
    """

    def __init__(self, sample_rate_hz: float = MAX_SAMPLE_RATE_HZ,
                 noise: bool = False, seed: int = 0) -> None:
        if not 0 < sample_rate_hz <= MAX_SAMPLE_RATE_HZ:
            raise MultimeterError(
                f"sample rate must be in (0, {MAX_SAMPLE_RATE_HZ:.0f}] S/s")
        self.sample_rate_hz = sample_rate_hz
        self.noise = noise
        self.seed = seed
        self._rng: np.random.Generator | None = None

    @staticmethod
    def select_range(peak_current_a: float) -> tuple[float, float, float]:
        """Smallest range containing the expected peak (auto-ranging)."""
        for range_a, gain_pct, offset_pct in CURRENT_RANGES:
            if peak_current_a <= range_a:
                return range_a, gain_pct, offset_pct
        raise MultimeterError(
            f"current {peak_current_a} A exceeds the instrument's 3 A range")

    def acquire(self, trace: CurrentTrace,
                t0_s: float | None = None,
                t1_s: float | None = None) -> Reading:
        """Sample ``trace`` over [t0, t1] like the series ammeter did."""
        times, currents = trace.sample(self.sample_rate_hz, t0_s, t1_s)
        range_a, gain_pct, offset_pct = self.select_range(
            trace.peak_current_a() or 1e-6)
        if self.noise:
            if self._rng is None:
                self._rng = np.random.default_rng(self.seed)
            gain = 1.0 + self._rng.normal(0.0, gain_pct / 100.0 / 3.0,
                                          size=currents.shape)
            offset = self._rng.normal(0.0, range_a * offset_pct / 100.0 / 3.0,
                                      size=currents.shape)
            currents = np.clip(currents * gain + offset, 0.0, None)
        return Reading(times_s=times, currents_a=currents,
                       sample_rate_hz=self.sample_rate_hz, range_a=range_a)
