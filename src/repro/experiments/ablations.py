"""Ablations over Wi-LE's design choices.

DESIGN.md calls out three parameters the paper fixes without sweeping:

* **PHY rate** (§5.4 uses 72 Mbps): energy per packet vs rate, with the
  range each rate reaches at 0 dBm — showing the rate/range trade the
  paper's "similar range as BLE" remark implies.
* **Payload size** (the vendor IE holds ~250 B): energy and efficiency
  vs payload, including the multi-beacon fragmentation path beyond the
  single-IE limit.
* **Listen interval** (WiFi-PS wakes "only for every third beacon"):
  idle current vs beacon skipping, the knob behind Table 1's 4.5 mA.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import (
    SensorKind,
    SensorReading,
    WiLEDevice,
    WiLEReceiver,
    fragment_message,
)
from ..core.codec import encode_beacon
from ..core.payload import WileMessage
from ..dot11.airtime import frame_airtime_us
from ..dot11.rates import (
    CCK_11,
    DSSS_1,
    HT_MCS7_SGI,
    OFDM_6,
    OFDM_24,
    OFDM_54,
    PhyRate,
)
from ..energy import calibration as cal
from ..phy.range_model import max_range_m
from ..scenarios.wifi_ps import idle_current_for_listen_interval
from ..sim import Position, Simulator, WirelessMedium
from .report import format_si, render_table

ABLATION_RATES: tuple[PhyRate, ...] = (
    DSSS_1, CCK_11, OFDM_6, OFDM_24, OFDM_54, HT_MCS7_SGI)


@dataclass(frozen=True, slots=True)
class RatePoint:
    rate: PhyRate
    frame_bytes: int
    airtime_s: float
    energy_j: float
    range_m: float


def rate_sweep(readings=(SensorReading(SensorKind.TEMPERATURE_C, 17.0),),
               tx_power_dbm: float = 0.0) -> list[RatePoint]:
    """Wi-LE energy/packet and range across injection rates.

    Demonstrates why the paper injects at the top rate: the TX window is
    warm-up dominated, so slower rates buy range but cost energy
    roughly in proportion to their extra airtime.
    """
    message = WileMessage(device_id=1, sequence=1, readings=tuple(readings))
    frame_bytes = len(encode_beacon(message).to_bytes())
    points = []
    for rate in ABLATION_RATES:
        airtime_s = frame_airtime_us(frame_bytes, rate) / 1e6
        window_s = cal.WILE_RADIO_WARMUP_S + airtime_s
        energy_j = window_s * cal.ESP32_WIFI_TX_A * cal.SUPPLY_VOLTAGE_V
        points.append(RatePoint(
            rate=rate, frame_bytes=frame_bytes, airtime_s=airtime_s,
            energy_j=energy_j,
            range_m=max_range_m(rate, tx_power_dbm, frame_bytes)))
    return points


@dataclass(frozen=True, slots=True)
class PayloadPoint:
    payload_bytes: int
    beacons_needed: int
    total_energy_j: float
    energy_per_byte_j: float
    delivered: bool


def payload_sweep(sizes: tuple[int, ...] = (8, 32, 64, 128, 200, 400, 800),
                  rate: PhyRate = HT_MCS7_SGI) -> list[PayloadPoint]:
    """Energy vs payload size, crossing the single-IE fragmentation edge.

    Each point is verified end-to-end: the payload must reassemble at a
    monitor-mode receiver before its energy counts.
    """
    points = []
    for size in sizes:
        body = bytes(index & 0xFF for index in range(size))
        sim = Simulator()
        medium = WirelessMedium(sim)
        device = WiLEDevice(sim, medium, device_id=0x42,
                            position=Position(0.0, 0.0), rate=rate)
        receiver = WiLEReceiver(sim, medium, position=Position(2.0, 0.0))
        device.radio.power_on()
        fragments = fragment_message(0x42, sequence=1, body=body)
        total_energy = 0.0
        for fragment in fragments:
            beacon = device.template.build(fragment)
            record = device.inject(beacon)
            total_energy += record.energy_j
            sim.run(until_s=sim.now_s + 0.01)
        sim.run(until_s=sim.now_s + 0.1)
        delivered = any(got == body
                        for _device, got in receiver.reassembled_bodies)
        points.append(PayloadPoint(
            payload_bytes=size,
            beacons_needed=len(fragments),
            total_energy_j=total_energy,
            energy_per_byte_j=total_energy / size,
            delivered=delivered))
    return points


@dataclass(frozen=True, slots=True)
class ListenIntervalPoint:
    listen_interval: int
    idle_current_a: float
    average_power_1min_w: float


def listen_interval_sweep(intervals: tuple[int, ...] = (1, 2, 3, 5, 10, 20),
                          tx_interval_s: float = 60.0) -> list[ListenIntervalPoint]:
    """WiFi-PS idle current and 1-minute average power vs beacon skipping."""
    points = []
    for listen_interval in intervals:
        idle_a = idle_current_for_listen_interval(listen_interval)
        burst_j = cal.PAPER_ENERGY_PER_PACKET_J["WiFi-PS"]
        average_w = (burst_j / tx_interval_s
                     + idle_a * cal.SUPPLY_VOLTAGE_V)
        points.append(ListenIntervalPoint(listen_interval, idle_a, average_w))
    return points


def render_all() -> str:
    rate_rows = [[p.rate.name, f"{p.rate.data_rate_mbps:g} Mbps",
                  format_si(p.airtime_s, "s"), format_si(p.energy_j, "J"),
                  f"{p.range_m:.1f} m"]
                 for p in rate_sweep()]
    payload_rows = [[str(p.payload_bytes), str(p.beacons_needed),
                     format_si(p.total_energy_j, "J"),
                     format_si(p.energy_per_byte_j, "J/B"),
                     str(p.delivered)]
                    for p in payload_sweep()]
    listen_rows = [[str(p.listen_interval), format_si(p.idle_current_a, "A"),
                    format_si(p.average_power_1min_w, "W")]
                   for p in listen_interval_sweep()]
    return "\n\n".join([
        render_table("Ablation: Wi-LE injection rate (0 dBm)",
                     ["rate", "bitrate", "airtime", "energy/packet",
                      "range"], rate_rows),
        render_table("Ablation: payload size (fragmenting past one IE)",
                     ["payload B", "beacons", "energy", "energy/byte",
                      "delivered"], payload_rows),
        render_table("Ablation: WiFi-PS listen interval",
                     ["listen interval", "idle current",
                      "avg power @1 min"], listen_rows),
    ])
