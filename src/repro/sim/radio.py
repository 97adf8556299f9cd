"""A WiFi radio attached to the simulated medium.

The radio tracks its power-relevant state (off / idle-listening / RX /
TX / monitor), performs MAC-address filtering exactly the way a real NIC
does — which is the crux of Wi-LE: beacons are *broadcast management
frames*, so they pass the filter of every listening device without any
association — and reports each state change to its medium.
"""

from __future__ import annotations

import enum
import functools
from typing import Callable

from ..dot11.frames import Beacon, DataFrame, ManagementFrame
from ..dot11.mac import MacAddress
from ..dot11.parser import ParsedFrame, ParseError, parse_frame
from ..dot11.rates import PhyRate
from .engine import Simulator
from .medium import MediumError, Position, Transmission, WirelessMedium


class RadioState(enum.Enum):
    OFF = "off"
    IDLE = "idle"        # receiver on, address filter active
    RX = "rx"
    TX = "tx"
    MONITOR = "monitor"  # receiver on, promiscuous (no address filter)


RxCallback = Callable[[object, Transmission], None]

#: Distinct wires whose parsed frames stay shared between deliveries.
#: Every receiver in range of one transmission asks for the same wire
#: in a row, and background stations repeat identical frames, so a
#: small memo catches nearly all repeats; where every wire is new (a
#: fleet's beacons) each delivery misses once and evicts the oldest.
PARSE_MEMO_SIZE = 256


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse_wire(wire: bytes) -> ParsedFrame:
    """``parse_frame`` once per distinct wire.

    Parsed frames are deeply immutable (frozen dataclasses of bytes,
    tuples and enums), so every receiver may hold the same object. A
    wire that fails to parse raises, and ``lru_cache`` stores nothing
    for it, so it fails again on its next delivery. ``parse_frame`` is
    looked up at call time, so a wrapper installed on this module's
    global sees every real parse.
    """
    return parse_frame(wire)


class Radio:
    """One station's radio front end.

    Args:
        sim: event engine.
        medium: the shared channel to attach to.
        mac: this station's address, used for receive filtering.
        position: location in the deployment plane.
        channel: initial 2.4 GHz channel number.
        default_power_dbm: TX power if a transmit call does not override.
    """

    def __init__(self, sim: Simulator, medium: WirelessMedium,
                 mac: MacAddress, position: Position | None = None,
                 channel: int = 6, default_power_dbm: float = 0.0) -> None:
        self.sim = sim
        self.medium = medium
        self.mac = mac
        self.position = position if position is not None else Position()
        self.channel = channel
        self.default_power_dbm = default_power_dbm
        self.state = RadioState.OFF
        self.rx_callback: RxCallback | None = None
        self._tx_end_s = 0.0
        self.frames_sent = 0
        self.frames_received = 0
        medium.attach(self)

    # -- state management ----------------------------------------------------

    def _set_state(self, new_state: RadioState) -> None:
        if new_state is self.state:
            return
        self.state = new_state
        self.medium.radio_state_changed(self)

    def power_on(self, monitor: bool = False) -> None:
        """Enable the receiver (idle listening, or promiscuous monitor)."""
        self._set_state(RadioState.MONITOR if monitor else RadioState.IDLE)

    def power_off(self) -> None:
        self._set_state(RadioState.OFF)

    def set_channel(self, channel: int) -> None:
        from ..dot11.channels import ChannelError, band_of
        try:
            band_of(channel)
        except ChannelError as error:
            raise MediumError(str(error)) from None
        self.channel = channel

    def is_receiver_on(self) -> bool:
        """Is the receive chain powered (any channel)?"""
        return self.state in (RadioState.IDLE, RadioState.RX,
                              RadioState.MONITOR)

    def is_listening(self, channel: int) -> bool:
        """Can this radio currently hear ``channel`` at all?"""
        return self.channel == channel and self.is_receiver_on()

    # -- transmit --------------------------------------------------------------

    def transmit(self, frame: object, rate: PhyRate,
                 power_dbm: float | None = None) -> Transmission:
        """Inject ``frame`` onto the air at ``rate``.

        The radio must be powered (any state except OFF); it occupies the
        TX state for the frame's airtime and then returns to its previous
        state. This is exactly the ESP32's ``esp_wifi_80211_tx`` raw
        injection primitive that Wi-LE builds on.
        """
        if self.state is RadioState.OFF:
            raise MediumError("cannot transmit with the radio off")
        if self.state is RadioState.TX and self.sim.now_s < self._tx_end_s:
            raise MediumError("radio is already transmitting")
        power = self.default_power_dbm if power_dbm is None else power_dbm
        resume_state = self.state if self.state is not RadioState.TX else RadioState.IDLE
        transmission = self.medium.transmit(self, frame, rate, power)
        self._tx_end_s = transmission.end_s
        self._set_state(RadioState.TX)
        self.sim.at(transmission.end_s, lambda: self._set_state(resume_state))
        self.frames_sent += 1
        return transmission

    # -- receive ----------------------------------------------------------------

    def deliver(self, transmission: Transmission) -> None:
        """Called by the medium when a frame is decodable here.

        The frame is parsed from its wire bytes, exactly as a real NIC
        decodes what the ADC hands it, so serialisation bugs cannot
        hide; each distinct wire is parsed once and its frame shared by
        every delivery of it (see :data:`PARSE_MEMO_SIZE`). A malformed
        frame is dropped silently on every delivery, just like on real
        hardware.
        """
        try:
            frame = _parse_wire(transmission.frame_bytes)
        except ParseError:
            return
        if self.state is not RadioState.MONITOR and not self._passes_filter(frame):
            return
        self.frames_received += 1
        if self.rx_callback is not None:
            self.rx_callback(frame, transmission)

    def _passes_filter(self, frame: object) -> bool:
        """The NIC's address filter: unicast-to-me, or group-addressed.

        Beacons are addressed to ff:ff:ff:ff:ff:ff, so they always pass —
        the property Wi-LE exploits to reach unmodified receivers.
        """
        destination = self._destination_of(frame)
        if destination is None:
            return True
        return destination == self.mac or destination.is_multicast

    @staticmethod
    def _destination_of(frame: object) -> MacAddress | None:
        if isinstance(frame, (ManagementFrame, DataFrame, Beacon)):
            return frame.destination
        receiver = getattr(frame, "receiver", None)
        if isinstance(receiver, MacAddress):
            return receiver
        destination = getattr(frame, "destination", None)
        if isinstance(destination, MacAddress):
            return destination
        return None
