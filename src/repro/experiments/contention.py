"""Experiment: Wi-LE beacons on a busy channel, with/without carrier sense.

The paper evaluates Wi-LE on a quiet bench; real 2.4 GHz channels carry
other people's traffic. Two questions the prototype's SDK answers
implicitly (its injection path runs the hardware CSMA/CA) but the paper
never quantifies:

1. How much delivery does raw (fire-blind) injection lose as channel
   load grows?
2. What does polite (listen-before-talk) injection cost in access delay
   — i.e. extra receiver-on energy — to win that delivery back?
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from ..core import SensorKind, SensorReading, WiLEDevice, WiLEReceiver
from ..dot11 import DataFrame, MacAddress
from ..dot11.airtime import frame_airtime_us
from ..dot11.rates import OFDM_24, PhyRate
from ..sim import Position, Radio, Simulator, WirelessMedium
from .report import render_table
from .runner import run_grid


class BackgroundTraffic:
    """Two stations saturating a fraction of the channel's airtime.

    Frames of ``frame_bytes`` go out so that airtime/interval equals the
    requested ``offered_load``; inter-frame gaps get a seeded +/-20 %
    jitter so the pattern cannot phase-lock with the device under test.
    """

    def __init__(self, sim: Simulator, medium: WirelessMedium,
                 offered_load: float, frame_bytes: int = 1200,
                 rate: PhyRate = OFDM_24, channel: int = 6,
                 position: Position | None = None, seed: int = 99) -> None:
        if not 0.0 <= offered_load < 0.95:
            raise ValueError(f"offered load {offered_load} out of [0, 0.95)")
        self.sim = sim
        self.offered_load = offered_load
        self.frame_bytes = frame_bytes
        self.rate = rate
        self.frames_sent = 0
        self._rng = random.Random(seed)
        position = position if position is not None else Position(1.0, 1.0)
        self._tx = Radio(sim, medium,
                         MacAddress.parse("02:bb:bb:bb:bb:01"),
                         position=position, channel=channel,
                         default_power_dbm=20.0)
        peer = MacAddress.parse("02:bb:bb:bb:bb:02")
        #: Every frame is the same value, so one object goes out each
        #: time and the medium encodes it once.
        self._frame = DataFrame(destination=peer, source=self._tx.mac,
                                bssid=peer, payload=bytes(frame_bytes - 34),
                                to_ds=True)
        self._airtime_s = frame_airtime_us(frame_bytes, rate) / 1e6
        if offered_load > 0:
            self._tx.power_on()
            self._schedule_next()

    def _schedule_next(self) -> None:
        # Gap measured from the *end* of the previous frame so the duty
        # cycle equals the offered load: airtime / (airtime + gap) = load.
        mean_gap = self._airtime_s / self.offered_load - self._airtime_s
        gap = mean_gap * self._rng.uniform(0.8, 1.2)
        self.sim.schedule(self._airtime_s + max(gap, 1e-6), self._fire)

    def _fire(self) -> None:
        self._tx.transmit(self._frame, self.rate)
        self.frames_sent += 1
        self._schedule_next()


@dataclass(frozen=True, slots=True)
class ContentionPoint:
    offered_load: float
    carrier_sense: bool
    beacons_sent: int
    beacons_delivered: int
    mean_access_delay_s: float
    max_access_delay_s: float

    @property
    def delivery_rate(self) -> float:
        return self.beacons_delivered / self.beacons_sent if self.beacons_sent else 0.0


def run_contention_point(offered_load: float, carrier_sense: bool,
                         rounds: int = 40, interval_s: float = 0.25,
                         seed: int = 5) -> ContentionPoint:
    """One (load, politeness) cell of the contention matrix."""
    sim = Simulator()
    medium = WirelessMedium(sim)
    BackgroundTraffic(sim, medium, offered_load, seed=seed)
    device = WiLEDevice(sim, medium, device_id=0xC0,
                        position=Position(0.0, 0.0),
                        boot_time_s=1e-3,  # keep the cycle tight for load
                        carrier_sense=carrier_sense)
    receiver = WiLEReceiver(sim, medium, position=Position(2.0, 0.0))
    device.start(interval_s, lambda: (
        SensorReading(SensorKind.TEMPERATURE_C, 17.0),))
    sim.run(until_s=(rounds + 2) * (interval_s + 2e-3))
    device.stop()
    sent = len(device.transmissions)
    stats = device.csma_stats
    return ContentionPoint(
        offered_load=offered_load,
        carrier_sense=carrier_sense,
        beacons_sent=sent,
        beacons_delivered=receiver.stats.decoded,
        mean_access_delay_s=(stats.total_wait_s / stats.transmissions
                             if stats and stats.transmissions else 0.0),
        max_access_delay_s=stats.max_wait_s if stats else 0.0)


def _contention_cell(cell: tuple[float, bool],
                     rounds: int) -> ContentionPoint:
    """Unpack one (load, carrier_sense) cell (picklable pool task)."""
    load, carrier_sense = cell
    return run_contention_point(load, carrier_sense, rounds=rounds)


def run_contention(loads: tuple[float, ...] = (0.0, 0.2, 0.5, 0.8),
                   rounds: int = 40,
                   workers: int = 1) -> list[ContentionPoint]:
    """Sweep the (load × politeness) matrix; cells are independent."""
    cells = [(load, carrier_sense)
             for load in loads for carrier_sense in (False, True)]
    return run_grid(partial(_contention_cell, rounds=rounds), cells,
                    workers=workers)


def render(points: list[ContentionPoint]) -> str:
    rows = [[f"{point.offered_load:.0%}",
             "LBT" if point.carrier_sense else "raw",
             f"{point.beacons_delivered}/{point.beacons_sent}",
             f"{point.delivery_rate:.2f}",
             f"{point.mean_access_delay_s * 1e3:.2f} ms",
             f"{point.max_access_delay_s * 1e3:.2f} ms"]
            for point in points]
    return render_table(
        "Wi-LE injection under channel contention",
        ["channel load", "injection", "delivered", "rate",
         "mean access delay", "max"], rows)
