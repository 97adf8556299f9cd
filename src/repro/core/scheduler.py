"""Transmission scheduling policies for Wi-LE fleets.

Section 6 leaves collision avoidance to luck ("their transmissions will
automatically differ away from each other"); at higher densities or
shorter periods a deployment wants to *engineer* the offsets. Two
policies are provided:

* :class:`RandomPhase` — each device starts at an independent random
  phase within the period (what unsynchronised field power-ons give you
  naturally; the §6 baseline).
* :class:`SlottedPhase` — the period is divided into slots and each
  device deterministically owns slot ``hash(device_id) % slots``; no
  coordination traffic is needed because the schedule is a pure function
  of the device id every party already knows.

Plus :func:`collision_probability`, the closed-form sanity check the
scheduler experiment compares the simulation against.
"""

from __future__ import annotations

import hashlib
import math
import random


class SchedulerError(ValueError):
    """Raised for impossible schedule parameters."""


class RandomPhase:
    """Independent uniform start phases (the uncoordinated baseline)."""

    def __init__(self, interval_s: float, seed: int = 0) -> None:
        if interval_s <= 0:
            raise SchedulerError("interval must be positive")
        self.interval_s = interval_s
        self._rng = random.Random(seed)

    def first_wake_s(self, device_id: int) -> float:
        return self._rng.uniform(0.0, self.interval_s)


class SlottedPhase:
    """Deterministic slot ownership derived from the device id.

    With ``slots >= fleet size`` and slot width comfortably above one
    beacon airtime plus worst-case clock drift, same-period collisions
    become impossible by construction instead of merely unlikely.
    """

    def __init__(self, interval_s: float, slots: int) -> None:
        if interval_s <= 0:
            raise SchedulerError("interval must be positive")
        if slots < 1:
            raise SchedulerError("need at least one slot")
        self.interval_s = interval_s
        self.slots = slots
        self.slot_width_s = interval_s / slots

    def slot_of(self, device_id: int) -> int:
        digest = hashlib.sha256(device_id.to_bytes(8, "little")).digest()
        return int.from_bytes(digest[:4], "little") % self.slots

    def first_wake_s(self, device_id: int) -> float:
        # Centre of the owned slot, so drift eats margin on both sides.
        return (self.slot_of(device_id) + 0.5) * self.slot_width_s

    def assign(self, device_ids: list[int]) -> dict[int, int]:
        """Conflict-free slot assignment for a *known* fleet.

        Pure hash slots suffer the birthday problem (two devices landing
        in one slot collide every round — worse than random phases). When
        the fleet membership is known to all parties, resolve conflicts
        with deterministic linear probing over ids in sorted order: the
        result is still a pure function of the membership list, so no
        coordination traffic is needed.
        """
        if len(device_ids) > self.slots:
            raise SchedulerError(
                f"{len(device_ids)} devices do not fit in {self.slots} slots")
        if len(set(device_ids)) != len(device_ids):
            raise SchedulerError("duplicate device ids")
        taken: set[int] = set()
        assignment: dict[int, int] = {}
        for device_id in sorted(device_ids):
            slot = self.slot_of(device_id)
            while slot in taken:
                slot = (slot + 1) % self.slots
            taken.add(slot)
            assignment[device_id] = slot
        return assignment

    def wake_for_slot(self, slot: int) -> float:
        if not 0 <= slot < self.slots:
            raise SchedulerError(f"slot {slot} out of range")
        return (slot + 0.5) * self.slot_width_s


def collision_probability(device_count: int, interval_s: float,
                          vulnerable_window_s: float) -> float:
    """Per-round probability that at least two of N unaligned devices
    overlap, each transmitting once per ``interval_s`` within a
    vulnerability window of ``vulnerable_window_s`` (≈ 2x airtime).

    Standard ALOHA-style approximation: a given pair overlaps with
    probability w/T; P(any) = 1 - prod over pairs.
    """
    if device_count < 0:
        raise SchedulerError("negative device count")
    if interval_s <= 0 or vulnerable_window_s < 0:
        raise SchedulerError("bad timing parameters")
    if device_count < 2:
        return 0.0
    pair_overlap = min(vulnerable_window_s / interval_s, 1.0)
    pairs = math.comb(device_count, 2)
    return 1.0 - (1.0 - pair_overlap) ** pairs
