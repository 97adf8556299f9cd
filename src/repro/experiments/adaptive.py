"""Experiment: adaptive reporting — what delta suppression really buys.

Two runs of the same device over the same slowly varying temperature:

* **fixed**: transmit every wake (the paper's behaviour);
* **delta**: transmit only on >=0.5 °C change, with a liveness
  heartbeat every 10th wake; suppressed wakes run on the ULP
  coprocessor (~1 µJ) instead of booting the main cores (~54 mJ).

The punchline is Wi-LE-specific: the beacon itself costs 84 µJ, so
suppressing *transmissions* alone would save almost nothing — the
savings come from suppressing *boots*, which only the ULP path enables.
The experiment separates the two effects explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from ..core import (
    DeltaTriggeredReporter,
    SensorKind,
    SensorReading,
    WiLEDevice,
    WiLEReceiver,
)
from ..energy import calibration as cal
from ..energy.esp32 import Esp32Recorder
from ..sim import Position, Simulator, WirelessMedium
from .report import format_si, render_table
from .runner import run_grid


def room_temperature(time_s: float) -> float:
    """A plausible slow diurnal-ish temperature track (deterministic)."""
    return 20.0 + 2.5 * math.sin(2 * math.pi * time_s / 3600.0) \
        + 0.3 * math.sin(2 * math.pi * time_s / 290.0)


@dataclass(frozen=True, slots=True)
class AdaptiveResult:
    name: str
    wakes: int
    transmissions: int
    average_current_a: float
    messages_delivered: int

    @property
    def suppression_rate(self) -> float:
        return 1.0 - self.transmissions / self.wakes if self.wakes else 0.0


def _run(policy: str, wake_interval_s: float = 60.0,
         horizon_s: float = 4 * 3600.0,
         threshold_c: float = 0.5) -> AdaptiveResult:
    sim = Simulator()
    medium = WirelessMedium(sim)
    recorder = Esp32Recorder()
    device = WiLEDevice(sim, medium, device_id=0xAD, recorder=recorder,
                        position=Position(0, 0))
    receiver = WiLEReceiver(sim, medium, position=Position(2, 0),
                            dedup_window=4096)

    def read_sensor() -> tuple[SensorReading, ...]:
        return (SensorReading(SensorKind.TEMPERATURE_C,
                              round(room_temperature(sim.now_s), 2)),)

    if policy == "delta":
        sensor = DeltaTriggeredReporter(read_sensor, threshold=threshold_c,
                                        heartbeat_every=10)
    elif policy == "fixed":
        sensor = read_sensor
    else:
        raise ValueError(f"unknown policy {policy!r}")

    device.start(wake_interval_s, sensor)
    sim.run(until_s=horizon_s)
    device.stop()
    # Close the trace at the horizon so both policies average over the
    # same wall-clock span.
    device._record_sleep_until(horizon_s)
    wakes = len(device.transmissions) + device.skipped_wakes
    return AdaptiveResult(
        name=policy,
        wakes=wakes,
        transmissions=len(device.transmissions),
        average_current_a=recorder.trace.average_current_a(),
        messages_delivered=receiver.stats.decoded)


def run_adaptive(wake_interval_s: float = 60.0,
                 horizon_s: float = 4 * 3600.0,
                 workers: int = 1) -> list[AdaptiveResult]:
    """Both policies over the same track; independent, so they can fan out."""
    return run_grid(
        partial(_run, wake_interval_s=wake_interval_s, horizon_s=horizon_s),
        ("fixed", "delta"), workers=workers)


def boot_vs_tx_energy() -> tuple[float, float, float]:
    """(boot_j, tx_j, ulp_j) — why suppression must target the boot."""
    boot_j = (cal.WILE_BOOT_S * cal.ESP32_BOOT_A * cal.SUPPLY_VOLTAGE_V)
    tx_j = cal.PAPER_ENERGY_PER_PACKET_J["Wi-LE"]
    ulp_j = cal.ULP_CHECK_S * cal.ESP32_ULP_ACTIVE_A * cal.SUPPLY_VOLTAGE_V
    return boot_j, tx_j, ulp_j


def render(results: list[AdaptiveResult]) -> str:
    rows = [[result.name, str(result.wakes), str(result.transmissions),
             f"{result.suppression_rate:.1%}",
             format_si(result.average_current_a, "A"),
             str(result.messages_delivered)]
            for result in results]
    table = render_table(
        "Adaptive reporting: fixed vs delta-triggered (0.5 C, 60 s wakes)",
        ["policy", "wakes", "tx", "suppressed", "avg current",
         "delivered"], rows)
    boot_j, tx_j, ulp_j = boot_vs_tx_energy()
    fixed, delta = results[0], results[1]
    saving = 1.0 - delta.average_current_a / fixed.average_current_a
    notes = (f"per-wake energies: boot {format_si(boot_j, 'J')}, "
             f"beacon TX {format_si(tx_j, 'J')}, "
             f"ULP check {format_si(ulp_j, 'J')}\n"
             f"average-current saving from delta+ULP: {saving:.1%} "
             "(suppressing only the 84 uJ TX would save "
             f"{tx_j / (boot_j + tx_j):.1%} of the active energy at most)")
    return f"{table}\n{notes}"
