"""Imperfect device clocks: crystal drift and wake-up jitter.

Section 6 of the paper argues that two Wi-LE devices sharing the same
transmission period will "automatically differ away from each other due
to the jitter of their clocks". The multi-device experiment
(:mod:`repro.experiments.multi_device`) tests exactly that claim, so the
clock model matters: each device's crystal has a fixed parts-per-million
frequency error plus a small random per-wake jitter, both seeded for
reproducibility.
"""

from __future__ import annotations

import random
from array import array


class ClockError(ValueError):
    """Raised for nonsensical clock parameters."""


def _check_clock(drift_ppm: float, jitter_std_s: float) -> None:
    """Raise :class:`ClockError` unless the parameters describe a clock."""
    if abs(drift_ppm) >= 1e6:
        raise ClockError(f"drift of {drift_ppm} ppm is not a clock")
    if jitter_std_s < 0:
        raise ClockError("jitter cannot be negative")


class JitteryClock:
    """A sleep timer with ppm-scale systematic drift and random jitter.

    Typical 32.768 kHz watch crystals are +/-20 ppm; cheap RC oscillators
    used during ESP32 deep sleep are far worse (up to ~5 % at temperature
    extremes — we default to a conservative 100 ppm plus gaussian jitter).

    Args:
        drift_ppm: systematic frequency error in parts per million.
            Positive means the device's timer runs slow (intervals come
            out longer than nominal).
        jitter_std_s: standard deviation of the per-interval gaussian
            jitter, in seconds.
        seed: RNG seed; every device gets its own.
    """

    def __init__(self, drift_ppm: float = 0.0, jitter_std_s: float = 0.0,
                 seed: int = 0) -> None:
        _check_clock(drift_ppm, jitter_std_s)
        self.drift_ppm = drift_ppm
        self.jitter_std_s = jitter_std_s
        self.seed = seed
        self._rng = random.Random(seed)

    def actual_interval_s(self, nominal_s: float) -> float:
        """The real-world duration of a nominal timer interval.

        Never returns a non-positive value: jitter is clamped so a timer
        always makes forward progress.
        """
        if nominal_s <= 0:
            raise ClockError(f"nominal interval must be positive, got {nominal_s}")
        drifted = nominal_s * (1.0 + self.drift_ppm / 1e6)
        if self.jitter_std_s > 0:
            drifted += self._rng.gauss(0.0, self.jitter_std_s)
        return max(drifted, nominal_s * 1e-3)


def crystal_draws(count: int, drift_std_ppm: float, jitter_std_s: float,
                  seed: int) -> tuple[array, array]:
    """The ``drift_ppm`` (``array('d')``) and ``clock_seed``
    (``array('q')``) columns of ``count`` manufactured crystals.

    Each crystal draws its ppm error, then its jitter seed, from one
    ``random.Random(seed)`` stream, and is checked as
    :class:`JitteryClock` would check it, so callers that keep only the
    numbers (:func:`repro.fleet.generate_fleet`) need no live clock.
    The columns hold 16 bytes per crystal, not a tuple of two objects.
    """
    if count < 0:
        raise ClockError("cannot build a negative number of clocks")
    rng = random.Random(seed)
    drifts = array("d")
    seeds = array("q")
    for _ in range(count):
        drift_ppm = rng.gauss(0.0, drift_std_ppm)
        _check_clock(drift_ppm, jitter_std_s)
        drifts.append(drift_ppm)
        seeds.append(rng.randrange(2**31))
    return drifts, seeds


def crystal_population(count: int, drift_std_ppm: float = 20.0,
                       jitter_std_s: float = 200e-6,
                       seed: int = 0) -> list[JitteryClock]:
    """Manufacture ``count`` clocks with normally distributed drifts.

    Models a batch of devices: each crystal's ppm error is drawn once at
    "manufacture time" and stays fixed, as in real hardware.
    """
    return [JitteryClock(drift_ppm=drift_ppm, jitter_std_s=jitter_std_s,
                         seed=clock_seed)
            for drift_ppm, clock_seed in zip(*crystal_draws(
                count, drift_std_ppm, jitter_std_s, seed))]
