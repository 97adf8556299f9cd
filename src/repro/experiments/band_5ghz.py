"""Experiment: Wi-LE on 5 GHz — the §1 spectrum-escape advantage.

"Low power WiFi communication provides significant advantages over BLE
such as ... enabling the use of the 5 GHz spectrum (allowing devices to
avoid the increasingly crowded 2.4 GHz spectrum used by BLE)."

Two parts:

* **Propagation price**: the same rate/power reaches less far at
  5.18 GHz than at 2.437 GHz (Friis: ~6.5 dB more path loss) — the
  range table quantifies the trade.
* **Congestion escape**: with heavy 2.4 GHz background traffic, a
  channel-6 Wi-LE device loses beacons to collisions while an otherwise
  identical channel-36 device (same fire-blind injection) delivers
  everything — something a BLE device, locked to 2.4 GHz, cannot do.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import SensorKind, SensorReading, WiLEDevice, WiLEReceiver
from ..dot11.channels import channel_frequency_hz
from ..dot11.rates import HT_MCS7_SGI, OFDM_6, OFDM_24, OFDM_54, PhyRate
from ..phy.range_model import max_range_m
from ..sim import Position, Simulator, WirelessMedium
from .contention import BackgroundTraffic
from .report import render_table

RANGE_RATES: tuple[PhyRate, ...] = (OFDM_6, OFDM_24, OFDM_54, HT_MCS7_SGI)


@dataclass(frozen=True, slots=True)
class BandRangeRow:
    rate: PhyRate
    range_2_4ghz_m: float
    range_5ghz_m: float

    @property
    def penalty(self) -> float:
        if self.range_5ghz_m == 0:
            return float("inf")
        return self.range_2_4ghz_m / self.range_5ghz_m


def band_range_table(tx_power_dbm: float = 0.0,
                     frame_bytes: int = 72) -> list[BandRangeRow]:
    """Range per rate on channel 6 (2.437 GHz) vs channel 36 (5.18 GHz)."""
    rows = []
    for rate in RANGE_RATES:
        rows.append(BandRangeRow(
            rate=rate,
            range_2_4ghz_m=max_range_m(
                rate, tx_power_dbm, frame_bytes,
                frequency_hz=channel_frequency_hz(6)),
            range_5ghz_m=max_range_m(
                rate, tx_power_dbm, frame_bytes,
                frequency_hz=channel_frequency_hz(36))))
    return rows


@dataclass(frozen=True, slots=True)
class CongestionEscape:
    load_2_4ghz: float
    delivered_on_2_4ghz: int
    delivered_on_5ghz: int
    sent_per_device: int

    @property
    def rate_2_4ghz(self) -> float:
        return self.delivered_on_2_4ghz / self.sent_per_device

    @property
    def rate_5ghz(self) -> float:
        return self.delivered_on_5ghz / self.sent_per_device


def run_congestion_escape(load: float = 0.7, rounds: int = 40,
                          interval_s: float = 0.25) -> CongestionEscape:
    """Same device, same raw injection; only the channel differs."""
    sim = Simulator()
    medium = WirelessMedium(sim)
    BackgroundTraffic(sim, medium, load, channel=6)
    crowded = WiLEDevice(sim, medium, device_id=0x24, channel=6,
                         position=Position(0.0, 0.0), boot_time_s=1e-3)
    clean = WiLEDevice(sim, medium, device_id=0x05, channel=36,
                       position=Position(0.0, 0.5), boot_time_s=1e-3)
    rx_2_4 = WiLEReceiver(sim, medium, channel=6, position=Position(2.0, 0.0))
    rx_5 = WiLEReceiver(sim, medium, channel=36, position=Position(2.0, 0.5))
    reading = (SensorReading(SensorKind.TEMPERATURE_C, 17.0),)
    crowded.start(interval_s, lambda: reading)
    clean.start(interval_s, lambda: reading)
    sim.run(until_s=(rounds + 2) * (interval_s + 2e-3))
    crowded.stop()
    clean.stop()
    sent = min(len(crowded.transmissions), len(clean.transmissions))
    return CongestionEscape(
        load_2_4ghz=load,
        delivered_on_2_4ghz=rx_2_4.stats.decoded,
        delivered_on_5ghz=rx_5.stats.decoded,
        sent_per_device=sent)


def render() -> str:
    range_rows = [[row.rate.name,
                   f"{row.range_2_4ghz_m:.1f} m",
                   f"{row.range_5ghz_m:.1f} m",
                   f"{row.penalty:.2f}x"]
                  for row in band_range_table()]
    escape = run_congestion_escape()
    escape_rows = [
        ["2.4 GHz (channel 6, crowded)",
         f"{escape.delivered_on_2_4ghz}/{escape.sent_per_device}",
         f"{escape.rate_2_4ghz:.2f}"],
        ["5 GHz (channel 36, clean)",
         f"{escape.delivered_on_5ghz}/{escape.sent_per_device}",
         f"{escape.rate_5ghz:.2f}"],
    ]
    return "\n\n".join([
        render_table("Range at 0 dBm: 2.4 GHz vs 5 GHz",
                     ["rate", "2.4 GHz", "5 GHz", "penalty"], range_rows),
        render_table(
            f"Congestion escape ({escape.load_2_4ghz:.0%} background load "
            "on 2.4 GHz only)",
            ["band", "delivered", "rate"], escape_rows),
    ])
