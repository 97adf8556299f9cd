"""Experiment: beacon repetition — Wi-LE's ACK-less reliability knob.

Wi-LE beacons are broadcast: nothing acknowledges them, so nothing can
retransmit on loss. The native redundancy mechanism is *repetition* —
send the identical beacon k times (receivers already deduplicate by
sequence number) and let each copy take an independent shot through the
busy channel.

The sweep measures, on a 50 %-loaded channel with fire-blind injection:

* unique-message delivery vs k (expected ~ 1-(1-p)^k for per-copy
  success p);
* radio energy per *delivered* message — the efficiency trade, since
  every copy costs another airtime (the warm-up is paid once per train).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..core import SensorKind, SensorReading, WiLEDevice, WiLEReceiver
from ..dot11.airtime import frame_airtime_us
from ..dot11.rates import WILE_DEFAULT_RATE
from ..energy import calibration as cal
from ..sim import Position, Simulator, WirelessMedium
from .contention import BackgroundTraffic
from .report import format_si, render_table
from .runner import run_grid


@dataclass(frozen=True, slots=True)
class ReliabilityPoint:
    repeats: int
    offered_load: float
    messages_sent: int
    messages_delivered: int
    copies_on_air: int
    train_energy_j: float

    @property
    def delivery_rate(self) -> float:
        return (self.messages_delivered / self.messages_sent
                if self.messages_sent else 0.0)

    @property
    def energy_per_delivered_j(self) -> float:
        if self.messages_delivered == 0:
            return float("inf")
        return (self.train_energy_j * self.messages_sent
                / self.messages_delivered)


def train_energy_j(repeats: int, frame_bytes: int = 72) -> float:
    """Radio energy of one k-repeat train (warm-up once, k airtimes)."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    airtime_s = frame_airtime_us(frame_bytes, WILE_DEFAULT_RATE) / 1e6
    tx_w = cal.ESP32_WIFI_TX_A * cal.SUPPLY_VOLTAGE_V
    listen_w = cal.ESP32_WIFI_LISTEN_A * cal.SUPPLY_VOLTAGE_V
    gaps_s = (repeats - 1) * 2e-3
    return ((cal.WILE_RADIO_WARMUP_S + repeats * airtime_s) * tx_w
            + gaps_s * listen_w)


def run_reliability_point(repeats: int, offered_load: float = 0.5,
                          rounds: int = 40, interval_s: float = 0.25,
                          seed: int = 11) -> ReliabilityPoint:
    sim = Simulator()
    medium = WirelessMedium(sim)
    BackgroundTraffic(sim, medium, offered_load, seed=seed)
    device = WiLEDevice(sim, medium, device_id=0x2E,
                        position=Position(0.0, 0.0), boot_time_s=1e-3,
                        repeats=repeats)
    receiver = WiLEReceiver(sim, medium, position=Position(2.0, 0.0),
                            dedup_window=rounds * 8)
    device.start(interval_s, lambda: (
        SensorReading(SensorKind.TEMPERATURE_C, 17.0),))
    sim.run(until_s=(rounds + 2) * (interval_s + 3e-3))
    device.stop()
    messages_sent = len(device.transmissions)
    frame_bytes = (device.transmissions[0].frame_bytes
                   if device.transmissions else 72)
    return ReliabilityPoint(
        repeats=repeats,
        offered_load=offered_load,
        messages_sent=messages_sent,
        messages_delivered=receiver.stats.decoded,
        copies_on_air=messages_sent * repeats,
        train_energy_j=train_energy_j(repeats, frame_bytes))


def run_reliability(repeat_values: tuple[int, ...] = (1, 2, 3, 4),
                    offered_load: float = 0.5,
                    rounds: int = 40,
                    workers: int = 1) -> list[ReliabilityPoint]:
    """Sweep repetition counts; ``workers>1`` fans cells over processes."""
    return run_grid(
        partial(run_reliability_point, offered_load=offered_load,
                rounds=rounds),
        repeat_values, workers=workers)


def render(points: list[ReliabilityPoint]) -> str:
    rows = [[str(point.repeats),
             f"{point.messages_delivered}/{point.messages_sent}",
             f"{point.delivery_rate:.2f}",
             format_si(point.train_energy_j, "J"),
             format_si(point.energy_per_delivered_j, "J")]
            for point in points]
    load = points[0].offered_load if points else 0.0
    return render_table(
        f"Beacon repetition on a {load:.0%}-loaded channel (raw injection)",
        ["repeats", "delivered", "rate", "energy/train",
         "energy/delivered msg"], rows)
