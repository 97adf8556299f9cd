"""Experiment: §6 "Two-way communication" — windowed downlink energy.

The paper's proposal: the device announces a short receive slot after
selected beacons, so downlink waiting is bounded by the advertised
window instead of an always-on receiver.

The experiment (a) runs the protocol end to end — a responder queues a
command, the device announces a window, the command arrives inside it —
and (b) quantifies the energy claim: window-RX energy per interval vs
an always-listening receiver, across window sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import (
    SensorKind,
    SensorReading,
    TwoWayResponder,
    WiLEDevice,
    WiLEReceiver,
    always_on_rx_energy_j,
    rx_window_energy_j,
)
from ..sim import Position, Simulator, WirelessMedium
from .report import format_si, render_table


@dataclass(frozen=True, slots=True)
class TwoWayReport:
    interval_s: float
    window_ms: int
    commands_sent: int
    commands_received: int
    window_energy_j: float
    always_on_energy_j: float

    @property
    def savings_factor(self) -> float:
        if self.window_energy_j == 0:
            return float("inf")
        return self.always_on_energy_j / self.window_energy_j

    def render(self) -> str:
        rows = [
            ["uplink interval", f"{self.interval_s:.0f} s"],
            ["advertised RX window", f"{self.window_ms} ms"],
            ["commands queued/delivered",
             f"{self.commands_sent}/{self.commands_received}"],
            ["RX energy per interval (windowed)",
             format_si(self.window_energy_j, "J")],
            ["RX energy per interval (always-on)",
             format_si(self.always_on_energy_j, "J")],
            ["savings factor", f"{self.savings_factor:.0f}x"],
        ]
        return render_table("Section 6: two-way Wi-LE downlink",
                            ["metric", "value"], rows)


def run_two_way(interval_s: float = 10.0, window_ms: int = 20,
                commands: int = 3) -> TwoWayReport:
    sim = Simulator()
    medium = WirelessMedium(sim)
    device = WiLEDevice(sim, medium, device_id=0x77,
                        position=Position(0.0, 0.0), rx_window_ms=window_ms)
    received: list[bytes] = []
    device.downlink_callback = lambda message: received.append(
        bytes(message.readings[0].value))
    receiver = WiLEReceiver(sim, medium, position=Position(2.0, 0.0))
    responder = TwoWayResponder(sim, medium, receiver,
                                position=Position(2.0, 0.0))
    for index in range(commands):
        responder.queue_command(0x77, f"cmd-{index}".encode())
    device.start(interval_s, lambda: (
        SensorReading(SensorKind.TEMPERATURE_C, 17.0),))
    sim.run(until_s=interval_s * (commands + 2))
    device.stop()
    return TwoWayReport(
        interval_s=interval_s,
        window_ms=window_ms,
        commands_sent=len(responder.sent),
        commands_received=len(received),
        window_energy_j=rx_window_energy_j(window_ms),
        always_on_energy_j=always_on_rx_energy_j(interval_s))


def window_sweep(interval_s: float = 60.0,
                 windows_ms: tuple[int, ...] = (5, 10, 20, 50, 100, 500)) -> list[tuple[int, float, float]]:
    """(window_ms, windowed_energy_j, savings_factor) across window sizes."""
    always = always_on_rx_energy_j(interval_s)
    sweep = []
    for window_ms in windows_ms:
        windowed = rx_window_energy_j(window_ms)
        sweep.append((window_ms, windowed, always / windowed))
    return sweep
