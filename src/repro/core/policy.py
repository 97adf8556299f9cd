"""Adaptive reporting policies: when is a transmission worth 84 µJ?

The paper's device transmits on a fixed period. Real sensor firmware
usually does better: skip the radio when the reading hasn't changed
(delta-triggered reporting with a heartbeat so liveness tracking still
works). The policy composes with :class:`~repro.core.device.WiLEDevice`
through its sensor callback — it wraps the real sensor and returns
``None`` readings when the transmission should be skipped.

A Wi-LE-specific subtlety: the 84 µJ transmission is *not* where the
energy goes — the 0.35 s main-core boot (~54 mJ) is. Delta suppression
only pays off because the ESP32's ULP coprocessor can run the sensor
check during deep sleep: a suppressed wake costs a ~2 ms / 150 µA ULP
window (≈1 µJ) instead of a boot. :class:`~repro.core.device.WiLEDevice`
models exactly that when the sensor callback returns ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .payload import SensorReading

ReadingSource = Callable[[], tuple[SensorReading, ...]]


class PolicyError(ValueError):
    """Raised for nonsensical policy parameters."""


@dataclass
class DeltaPolicyStats:
    """How much traffic a delta policy suppressed."""

    wakes: int = 0
    transmitted: int = 0
    suppressed: int = 0
    heartbeats: int = 0

    @property
    def suppression_rate(self) -> float:
        return self.suppressed / self.wakes if self.wakes else 0.0


class DeltaTriggeredReporter:
    """Send only when a reading moved, plus periodic heartbeats.

    Args:
        source: the actual sensor read.
        threshold: minimum absolute change (per numeric reading kind)
            that justifies a transmission.
        heartbeat_every: transmit unconditionally every Nth wake so
            gateways can still track liveness (gateway liveness uses
            learned intervals; an all-quiet sensor must not look dead).
    """

    def __init__(self, source: ReadingSource, threshold: float,
                 heartbeat_every: int = 10) -> None:
        if threshold < 0:
            raise PolicyError("threshold cannot be negative")
        if heartbeat_every < 1:
            raise PolicyError("heartbeat interval must be >= 1 wake")
        self._source = source
        self.threshold = threshold
        self.heartbeat_every = heartbeat_every
        self.stats = DeltaPolicyStats()
        self._last_sent: dict[int, float] = {}
        self._wakes_since_send = 0

    def __call__(self) -> tuple[SensorReading, ...] | None:
        """The sensor callback a WiLEDevice runs each wake.

        Returns the readings to send, or ``None`` when the wake should
        be a ULP-only check with no transmission.
        """
        self.stats.wakes += 1
        readings = self._source()
        self._wakes_since_send += 1
        if self._wakes_since_send >= self.heartbeat_every:
            self.stats.heartbeats += 1
            self._remember(readings)
            return readings
        if self._changed(readings):
            self._remember(readings)
            return readings
        self.stats.suppressed += 1
        return None

    def _changed(self, readings: tuple[SensorReading, ...]) -> bool:
        for reading in readings:
            if not isinstance(reading.value, (int, float)):
                return True  # opaque payloads always count as news
            last = self._last_sent.get(int(reading.kind))
            if last is None or abs(reading.value - last) >= self.threshold:
                return True
        return False

    def _remember(self, readings: tuple[SensorReading, ...]) -> None:
        self.stats.transmitted += 1
        self._wakes_since_send = 0
        for reading in readings:
            if isinstance(reading.value, (int, float)):
                self._last_sent[int(reading.kind)] = float(reading.value)
