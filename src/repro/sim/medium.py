"""The shared wireless medium: propagation, interference, delivery.

All radios attached to a :class:`WirelessMedium` share the channel the
way real 2.4 GHz devices do: a transmission occupies the air for its
computed airtime; receivers on the same channel decode it if the link
SNR supports the PHY rate *and* no overlapping transmission drowns it
out (with physical-layer capture if one signal is much stronger).

Collisions matter for the paper's §6 multi-device discussion — two Wi-LE
sensors transmitting in the same slot lose both beacons unless one
captures — and the jitter study shows the overlap decaying over time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..dot11.airtime import frame_airtime_us
from ..dot11.channels import channel_frequency_hz
from ..dot11.rates import PhyRate
from ..phy.link import frame_delivered
from ..phy.pathloss import (BANDWIDTH_HZ, CAPTURE_THRESHOLD_DB, MIN_DISTANCE_M,
                            PATH_LOSS_EXPONENT, noise_floor_dbm,
                            received_power_dbm)
from .engine import Simulator

if TYPE_CHECKING:
    from .radio import Radio


@dataclass(frozen=True, slots=True)
class Position:
    """A point in the 2-D deployment plane, metres."""

    x_m: float = 0.0
    y_m: float = 0.0

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x_m - other.x_m, self.y_m - other.y_m)


@dataclass
class Transmission:
    """One frame in flight on the medium."""

    sender: "Radio"
    frame: object
    frame_bytes: bytes
    rate: PhyRate
    power_dbm: float
    channel: int
    start_s: float
    end_s: float
    overlapping: list["Transmission"] = field(default_factory=list)

    @property
    def airtime_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True, slots=True)
class DeliveryReport:
    """Why a frame did or did not arrive at one receiver (for tests/stats)."""

    receiver: "Radio"
    delivered: bool
    reason: str
    snr_db: float


class MediumError(RuntimeError):
    """Raised for protocol-impossible medium operations."""


class WirelessMedium:
    """The 2.4 GHz channel shared by every attached radio.

    Propagation follows the constants of :mod:`repro.phy.pathloss`
    (log-distance exponent, capture threshold, noise bandwidth and
    minimum-distance clamp).

    Args:
        sim: the event engine driving completion callbacks.
        max_range_m: optional hard delivery cutoff. A receiver farther
            than this from the transmitter gets no delivery decision at
            all — no report, no counters — and, when set, listening
            radios are spatially indexed so completion cost scales with
            radios *in range*, not radios attached. The sharded fleet
            runner (:mod:`repro.fleet.shards`) relies on the cutoff for
            its invariance guarantee: with a halo at least as wide as
            every cutoff, a shard sees every transmitter that can
            physically affect its receivers, so sharded and unsharded
            runs produce identical delivery decisions.
        interference_range_m: optional hard cutoff for interference
            contributions (defaults to ``max_range_m``). Kept separate
            because interference stays relevant well past the distance
            at which a frame can still be decoded.
    """

    def __init__(self, sim: Simulator, max_range_m: float | None = None,
                 interference_range_m: float | None = None) -> None:
        if max_range_m is not None and max_range_m <= 0:
            raise MediumError(f"max range must be positive, got {max_range_m}")
        if interference_range_m is not None and interference_range_m <= 0:
            raise MediumError(
                f"interference range must be positive, got {interference_range_m}")
        self.sim = sim
        self.max_range_m = max_range_m
        self.interference_range_m = (interference_range_m
                                     if interference_range_m is not None
                                     else max_range_m)
        # Radios whose receiver is currently on, mapped to their attach
        # index. Completion scans only these instead of every attached
        # radio — at fleet scale almost all radios are asleep, so this
        # turns the per-transmission cost from O(attached) into
        # O(listening). Iteration stays in attach order for determinism.
        self._listening: dict[Radio, int] = {}
        self._attach_index: dict[Radio, int] = {}
        # With a delivery cutoff, listening radios are additionally
        # bucketed into a grid of max_range-sized cells (keyed by the
        # radio's position at power-on; a radio that moves while
        # listening must be relocated via :meth:`move_radio` to keep
        # its bucket current). Completion then scans only the 3x3
        # neighbourhood around the sender, which covers every radio
        # within range.
        self._cells: dict[tuple[int, int], dict[Radio, int]] = {}
        self._radio_cell: dict[Radio, tuple[int, int]] = {}
        self._active: list[Transmission] = []
        #: The last frame put on the air and its wire bytes. Frames are
        #: immutable values, so a sender that repeats one frame object
        #: (background traffic, a repeated beacon) is encoded once.
        self._last_frame: object = object()
        self._last_wire = b""
        self.frames_transmitted = 0
        self.frames_delivered = 0
        self.frames_lost_collision = 0
        self.frames_lost_snr = 0
        self.frames_lost_injected = 0
        #: Fault injection for tests: ``(transmission, radio) -> True``
        #: drops that delivery (models deep fades, interference bursts).
        self.fault_injector: Callable[[Transmission, "Radio"], bool] | None = None
        #: Optional per-link SNR degradation hook:
        #: ``(transmission, radio) -> extra path loss in dB`` subtracted
        #: from the received *signal* power only (interferers keep their
        #: full strength — a fade on the wanted link does not quiet the
        #: rest of the band). Used by :mod:`repro.faults` for
        #: deterministic degradation windows.
        self.link_impairment: Callable[[Transmission, "Radio"], float] | None = None
        self._delivery_listeners: list[Callable[[Transmission, DeliveryReport], None]] = []

    # -- membership --------------------------------------------------------

    def attach(self, radio: "Radio") -> None:
        if radio in self._attach_index:
            raise MediumError("radio already attached")
        self._attach_index[radio] = len(self._attach_index)
        self.radio_state_changed(radio)

    def radio_state_changed(self, radio: "Radio") -> None:
        """Keep the listening set in sync; called by the radio on every
        state transition (and by :meth:`attach`)."""
        index = self._attach_index.get(radio)
        if index is None:
            return
        if radio.is_receiver_on():
            self._listening[radio] = index
            if self.max_range_m is not None and radio not in self._radio_cell:
                cell = (int(radio.position.x_m // self.max_range_m),
                        int(radio.position.y_m // self.max_range_m))
                self._radio_cell[radio] = cell
                self._cells.setdefault(cell, {})[radio] = index
        else:
            self._listening.pop(radio, None)
            self._drop_from_cells(radio)

    def move_radio(self, radio: "Radio", position: Position) -> None:
        """Relocate ``radio`` and keep the listening index consistent.

        The cell index keys a listening radio by its position at
        power-on; a mobile device that moves while listening must go
        through here (not assign ``radio.position`` directly) or the
        3x3 completion scan would keep looking in its old cell.
        """
        radio.position = position
        if self.max_range_m is None or radio not in self._radio_cell:
            return
        cell = (int(position.x_m // self.max_range_m),
                int(position.y_m // self.max_range_m))
        if cell == self._radio_cell[radio]:
            return
        index = self._attach_index[radio]
        self._drop_from_cells(radio)
        self._radio_cell[radio] = cell
        self._cells.setdefault(cell, {})[radio] = index

    def _drop_from_cells(self, radio: "Radio") -> None:
        cell = self._radio_cell.pop(radio, None)
        if cell is None:
            return
        bucket = self._cells.get(cell)
        if bucket is not None:
            bucket.pop(radio, None)
            if not bucket:
                del self._cells[cell]

    def add_delivery_listener(
            self, listener: Callable[[Transmission, DeliveryReport], None]) -> None:
        """Observe every delivery decision (used by experiment harnesses)."""
        self._delivery_listeners.append(listener)

    # -- transmission -------------------------------------------------------

    def transmit(self, sender: "Radio", frame: object, rate: PhyRate,
                 power_dbm: float) -> Transmission:
        """Put ``frame`` on the air from ``sender``; returns the in-flight
        record. Completion (delivery decisions) fires at end of airtime."""
        if frame is not self._last_frame:
            wire = frame.to_bytes() if hasattr(frame, "to_bytes") else bytes(frame)
            self._last_frame, self._last_wire = frame, wire
        frame_bytes = self._last_wire
        airtime_s = frame_airtime_us(len(frame_bytes), rate) / 1e6
        now = self.sim.now_s
        transmission = Transmission(
            sender=sender, frame=frame, frame_bytes=frame_bytes, rate=rate,
            power_dbm=power_dbm, channel=sender.channel,
            start_s=now, end_s=now + airtime_s)
        # Record mutual overlap with everything already in the air on the
        # same channel; collisions are symmetric.
        for other in self._active:
            if other.channel == transmission.channel:
                other.overlapping.append(transmission)
                transmission.overlapping.append(other)
        self._active.append(transmission)
        self.frames_transmitted += 1
        self.sim.at(transmission.end_s, lambda: self._complete(transmission))
        return transmission

    def _complete(self, transmission: Transmission) -> None:
        self._active.remove(transmission)
        # Only radios with their receiver on can decode; iterate them in
        # attach order so listener invocation order matches a full scan
        # of every attached radio exactly. With a delivery cutoff,
        # the 3x3 cell neighbourhood around the sender bounds the scan
        # to radios that could possibly be in range.
        if self.max_range_m is not None:
            origin = transmission.sender.position
            column = int(origin.x_m // self.max_range_m)
            row = int(origin.y_m // self.max_range_m)
            items: list[tuple[Radio, int]] = []
            for dc in (-1, 0, 1):
                for dr in (-1, 0, 1):
                    bucket = self._cells.get((column + dc, row + dr))
                    if bucket:
                        items.extend(bucket.items())
            candidates = sorted(items, key=lambda item: item[1])
        else:
            candidates = sorted(self._listening.items(),
                                key=lambda item: item[1])
        for radio, _index in candidates:
            if radio is transmission.sender:
                continue
            report = self._deliver_to(transmission, radio)
            if report is None:
                continue
            for listener in self._delivery_listeners:
                listener(transmission, report)
            if report.delivered:
                self.frames_delivered += 1
                radio.deliver(transmission)
            elif report.reason == "collision":
                self.frames_lost_collision += 1
            elif report.reason == "snr":
                self.frames_lost_snr += 1

    def _deliver_to(self, transmission: Transmission,
                    radio: "Radio") -> DeliveryReport | None:
        """Decide delivery at one receiver; None if it was not listening."""
        if not radio.is_listening(transmission.channel):
            return None
        # Half-duplex: a radio that was itself transmitting during any
        # part of this frame's airtime cannot have received it.
        if any(other.sender is radio for other in transmission.overlapping):
            return None
        distance = max(MIN_DISTANCE_M,
                       transmission.sender.position.distance_to(radio.position))
        if self.max_range_m is not None and distance > self.max_range_m:
            return None
        if self.fault_injector is not None and self.fault_injector(
                transmission, radio):
            self.frames_lost_injected += 1
            return DeliveryReport(radio, False, "injected-fault", 0.0)
        frequency_hz = channel_frequency_hz(transmission.channel)
        signal_dbm = received_power_dbm(
            transmission.power_dbm, distance,
            exponent=PATH_LOSS_EXPONENT, frequency_hz=frequency_hz)
        if self.link_impairment is not None:
            signal_dbm -= self.link_impairment(transmission, radio)
        noise_dbm = noise_floor_dbm(BANDWIDTH_HZ)
        interference_mw = 0.0
        for other in transmission.overlapping:
            other_distance = max(MIN_DISTANCE_M,
                                 other.sender.position.distance_to(radio.position))
            if (self.interference_range_m is not None
                    and other_distance > self.interference_range_m):
                continue
            other_dbm = received_power_dbm(other.power_dbm, other_distance,
                                           exponent=PATH_LOSS_EXPONENT,
                                           frequency_hz=frequency_hz)
            interference_mw += 10.0 ** (other_dbm / 10.0)
        noise_plus_interference_mw = 10.0 ** (noise_dbm / 10.0) + interference_mw
        sinr_db = signal_dbm - 10.0 * math.log10(noise_plus_interference_mw)

        if transmission.overlapping and sinr_db < CAPTURE_THRESHOLD_DB:
            return DeliveryReport(radio, False, "collision", sinr_db)
        if not frame_delivered(sinr_db, len(transmission.frame_bytes),
                               transmission.rate):
            return DeliveryReport(radio, False, "snr", sinr_db)
        return DeliveryReport(radio, True, "ok", sinr_db)

    # -- carrier sense -------------------------------------------------------

    def channel_busy(self, channel: int) -> bool:
        """Is any transmission currently occupying ``channel``?"""
        return any(tx.channel == channel for tx in self._active)

    def busy_until_s(self, channel: int) -> float:
        """Simulation time when ``channel`` next goes idle (now if idle)."""
        ends = [tx.end_s for tx in self._active if tx.channel == channel]
        return max(ends, default=self.sim.now_s)
