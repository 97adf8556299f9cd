"""Experiment: collision avoidance policies for dense Wi-LE fleets.

Extends §6's jitter argument to the densities where luck runs out.
Three policies at identical fleet size and period:

* **synchronised** — the §6 worst case (all devices share a phase until
  jitter separates them);
* **random phase** — unsynchronised field power-ons;
* **slotted** — deterministic slot ownership from the device id
  (:class:`repro.core.scheduler.SlottedPhase`), no coordination frames.

The random-phase result is checked against the closed-form ALOHA
pair-overlap approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..core import SensorKind, SensorReading, WiLEDevice, WiLEReceiver
from ..core.scheduler import RandomPhase, SlottedPhase, collision_probability
from ..dot11.airtime import frame_airtime_us
from ..dot11.rates import WILE_DEFAULT_RATE
from ..sim import Position, Simulator, WirelessMedium, crystal_population
from .report import render_table
from .runner import run_grid

READING = (SensorReading(SensorKind.TEMPERATURE_C, 17.0),)


@dataclass(frozen=True, slots=True)
class PolicyResult:
    policy: str
    device_count: int
    rounds: int
    interval_s: float
    sent: int
    delivered: int
    collisions: int
    early_rate: float
    late_rate: float

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.sent if self.sent else 0.0


def _run_fleet(policy: str, device_count: int, rounds: int,
               interval_s: float, seed: int) -> PolicyResult:
    sim = Simulator()
    medium = WirelessMedium(sim)
    receiver = WiLEReceiver(sim, medium, position=Position(5.0, 5.0),
                            dedup_window=rounds * 4)
    clocks = crystal_population(device_count, drift_std_ppm=30.0,
                                jitter_std_s=1e-3, seed=seed)
    if policy == "random":
        phases = RandomPhase(interval_s, seed=seed)
        offsets = [phases.first_wake_s(0x200 + i) for i in range(device_count)]
    elif policy == "slotted":
        slotted = SlottedPhase(interval_s, slots=4 * device_count)
        assignment = slotted.assign([0x200 + i for i in range(device_count)])
        offsets = [slotted.wake_for_slot(assignment[0x200 + i])
                   for i in range(device_count)]
    elif policy == "synchronised":
        offsets = [interval_s] * device_count
    else:
        raise ValueError(f"unknown policy {policy!r}")

    devices = []
    for index in range(device_count):
        device = WiLEDevice(sim, medium, device_id=0x200 + index,
                            position=Position(float(index % 8),
                                              float(index // 8)),
                            clock=clocks[index])
        device.start(interval_s, lambda: READING,
                     first_wake_s=offsets[index])
        devices.append(device)
    horizon_s = interval_s * (rounds + 1.5)
    sim.run(until_s=horizon_s)
    for device in devices:
        device.stop()
    times = [message.time_s for message in receiver.messages]
    midpoint = horizon_s / 2.0
    sent = sum(len(device.transmissions) for device in devices)
    half_sent = max(sent / 2.0, 1.0)
    early = sum(1 for time_s in times if time_s < midpoint) / half_sent
    late = sum(1 for time_s in times if time_s >= midpoint) / half_sent
    return PolicyResult(
        policy=policy,
        device_count=device_count,
        rounds=rounds,
        interval_s=interval_s,
        sent=sent,
        delivered=len(receiver.messages),
        collisions=medium.frames_lost_collision,
        early_rate=min(early, 1.0),
        late_rate=min(late, 1.0))


def run_scheduling(device_count: int = 40, rounds: int = 50,
                   interval_s: float = 0.2, seed: int = 3,
                   workers: int = 1) -> list[PolicyResult]:
    """A deliberately harsh configuration: 40 devices every 200 ms.

    The early/late split exposes the dynamics: the synchronised fleet
    *improves* over time (jitter separates it — the paper's §6 claim),
    while random phases track the analytic ALOHA estimate and slot
    ownership stays near-perfect. (Over much longer horizons unsynced
    clocks accumulate jitter and slot ownership would erode toward the
    random baseline; within this run the slots hold.)
    """
    return run_grid(
        partial(_run_fleet, device_count=device_count, rounds=rounds,
                interval_s=interval_s, seed=seed),
        ("synchronised", "random", "slotted"), workers=workers)


def expected_random_delivery(device_count: int, interval_s: float,
                             frame_bytes: int = 72) -> float:
    """Closed-form per-beacon success estimate for the random policy."""
    airtime_s = frame_airtime_us(frame_bytes, WILE_DEFAULT_RATE) / 1e6
    vulnerable_s = 2.0 * airtime_s
    # One device succeeds if none of the other N-1 overlap it.
    per_other = min(vulnerable_s / interval_s, 1.0)
    return (1.0 - per_other) ** (device_count - 1)


def render(results: list[PolicyResult]) -> str:
    rows = [[result.policy,
             f"{result.delivered}/{result.sent}",
             f"{result.delivery_rate:.3f}",
             f"{result.early_rate:.3f}",
             f"{result.late_rate:.3f}",
             str(result.collisions)]
            for result in results]
    first = results[0]
    analytic = expected_random_delivery(first.device_count, first.interval_s)
    table = render_table(
        f"Scheduling policies: {first.device_count} devices, "
        f"{first.rounds} rounds @ {first.interval_s:g} s",
        ["policy", "delivered", "rate", "early half", "late half",
         "collision losses"], rows)
    return (f"{table}\n"
            f"analytic random-phase success estimate: {analytic:.4f}; "
            f"pairwise round-collision probability: "
            f"{collision_probability(first.device_count, first.interval_s, 2 * 52.8e-6):.3f}")
