"""Experiment: §6 "Network of IoT devices" — collisions and clock jitter.

The paper's claim: "if two devices happen to transmit at the same time
and they have the same transmission period, their transmissions will
automatically differ away from each other due to the jitter of their
clocks."

The experiment puts N Wi-LE devices with identical nominal periods (and
initially synchronised wake-ups — the worst case) on one channel, gives
each a distinct crystal (ppm drift + gaussian wake jitter), and measures
per-round collision behaviour at a monitor-mode receiver. The claim
holds if the delivery rate recovers after the synchronised start and the
long-run loss rate is small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import SensorKind, SensorReading, WiLEDevice, WiLEReceiver
from ..sim import Position, Simulator, WirelessMedium, crystal_population
from .report import render_table


@dataclass(frozen=True, slots=True)
class MultiDeviceReport:
    device_count: int
    rounds: int
    interval_s: float
    sent: int
    delivered_unique: int
    lost_collision: int
    first_half_delivery_rate: float
    second_half_delivery_rate: float
    #: Unique messages decoded per wake round. A tuple, not a list: the
    #: report is frozen, and a mutable member would let callers change
    #: the data behind the immutability promise (and break hashing).
    per_round_unique: tuple[int, ...]

    @property
    def delivery_rate(self) -> float:
        return self.delivered_unique / self.sent if self.sent else 0.0

    @property
    def desynchronised(self) -> bool:
        """Did jitter pull the initially synchronised fleet apart?"""
        return self.second_half_delivery_rate >= self.first_half_delivery_rate

    def to_dict(self) -> dict:
        """JSON-serialisable form for artifacts."""
        return {
            "device_count": self.device_count,
            "rounds": self.rounds,
            "interval_s": self.interval_s,
            "sent": self.sent,
            "delivered_unique": self.delivered_unique,
            "lost_collision": self.lost_collision,
            "delivery_rate": self.delivery_rate,
            "first_half_delivery_rate": self.first_half_delivery_rate,
            "second_half_delivery_rate": self.second_half_delivery_rate,
            "desynchronised": self.desynchronised,
            "per_round_unique": list(self.per_round_unique),
        }

    def render(self) -> str:
        rows = [
            ["devices", str(self.device_count)],
            ["rounds", str(self.rounds)],
            ["interval", f"{self.interval_s:.0f} s"],
            ["beacons sent", str(self.sent)],
            ["unique messages delivered", str(self.delivered_unique)],
            ["medium-level collision losses", str(self.lost_collision)],
            ["delivery rate (first half)", f"{self.first_half_delivery_rate:.3f}"],
            ["delivery rate (second half)", f"{self.second_half_delivery_rate:.3f}"],
            ["jitter desynchronises fleet", str(self.desynchronised)],
        ]
        return render_table(
            "Section 6: multi-device Wi-LE with synchronised starts",
            ["metric", "value"], rows)


def run_multi_device(device_count: int = 8, rounds: int = 40,
                     interval_s: float = 10.0,
                     drift_std_ppm: float = 50.0,
                     jitter_std_s: float = 2e-3,
                     seed: int = 7) -> MultiDeviceReport:
    """All devices wake at t=interval (synchronised), then drift apart."""
    sim = Simulator()
    medium = WirelessMedium(sim)
    clocks = crystal_population(device_count, drift_std_ppm=drift_std_ppm,
                                jitter_std_s=jitter_std_s, seed=seed)
    receiver = WiLEReceiver(sim, medium, position=Position(5.0, 5.0),
                            dedup_window=rounds * 4)
    devices = []
    for index, clock in enumerate(clocks):
        device = WiLEDevice(sim, medium, device_id=0x100 + index,
                            position=Position(float(index % 4),
                                              float(index // 4)),
                            clock=clock)
        value = 15.0 + index
        device.start(interval_s,
                     lambda value=value: (
                         SensorReading(SensorKind.TEMPERATURE_C, value),))
        devices.append(device)
    horizon_s = interval_s * (rounds + 1.5)
    sim.run(until_s=horizon_s)
    for device in devices:
        device.stop()

    sent = sum(len(device.transmissions) for device in devices)
    delivered = len(receiver.messages)

    # Per-round delivery: bucket received messages by wake round.
    edges = np.arange(0.5, rounds + 1.5) * interval_s
    times = np.array([message.time_s for message in receiver.messages])
    per_round = tuple(int(np.sum((times >= lo) & (times < hi)))
                      for lo, hi in zip(edges[:-1], edges[1:]))
    half = len(per_round) // 2
    first = float(np.sum(per_round[:half])) / (half * device_count)
    second = (float(np.sum(per_round[half:]))
              / ((len(per_round) - half) * device_count))

    return MultiDeviceReport(
        device_count=device_count,
        rounds=rounds,
        interval_s=interval_s,
        sent=sent,
        delivered_unique=delivered,
        lost_collision=medium.frames_lost_collision,
        first_half_delivery_rate=first,
        second_half_delivery_rate=second,
        per_round_unique=per_round)
