"""The Wi-LE IoT device: wake, inject one beacon, sleep.

This is the paper's §4 transmitter. Its entire duty cycle is:

1. the deep-sleep timer fires (2.5 uA while waiting);
2. the microcontroller boots and enables the radio — *without* any
   station-mode preparation, which is why Figure 3b's init phase is
   shorter than WiFi's;
3. the device inserts fresh sensor data into its precomputed beacon
   template and injects the frame at 72 Mbps / 0 dBm;
4. (optionally, §6 two-way extension) it keeps the receiver on for a
   short advertised window to catch downlink traffic;
5. it returns to deep sleep. No probe, no association, no handshake,
   no DHCP — none of §3.1 happens, ever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..dot11 import Beacon
from ..dot11.airtime import frame_airtime_us
from ..dot11.rates import WILE_DEFAULT_RATE, WILE_TX_POWER_DBM, PhyRate
from ..energy import calibration as cal
from ..energy.esp32 import Esp32PowerModel, Esp32Recorder, Esp32State
from ..sim import JitteryClock, Position, Radio, Simulator, Transmission, WirelessMedium
from .codec import BeaconTemplate, decode_beacon, device_mac, is_wile_beacon
from .crypto import encrypt_body
from .payload import (
    SensorReading,
    WileFlags,
    WileMessage,
    WileMessageType,
)


@dataclass(frozen=True, slots=True)
class TransmissionRecord:
    """Bookkeeping for one injected beacon."""

    time_s: float
    sequence: int
    frame_bytes: int
    airtime_s: float
    energy_j: float


#: The device's per-wake sensor read. Returning None (a reporting
#: policy's "nothing changed") skips the transmission: the wake costs
#: only a ULP-coprocessor check instead of a boot + beacon.
SensorCallback = Callable[[], "tuple[SensorReading, ...] | None"]
DownlinkCallback = Callable[[WileMessage], None]


class WiLEDevice:
    """A periodic Wi-LE sensor node.

    Args:
        sim / medium: simulation substrate.
        device_id: 32-bit unique identifier (paper §6: messages "must
            contain unique identifiers").
        channel: WiFi channel to inject on.
        rate: injection PHY rate (default HT MCS7 SGI = 72.2 Mbps).
        clock: the device's imperfect sleep timer.
        key: optional 16-byte payload encryption key (§6 security).
        rx_window_ms: if positive, every beacon advertises a receive
            window of this length after the transmission (§6 two-way).
        recorder: optional ESP32 energy recorder; when given, the device
            charges deep-sleep/boot/TX/listen segments to it, producing
            the Figure 3b-style trace.
    """

    def __init__(self, sim: Simulator, medium: WirelessMedium,
                 device_id: int,
                 position: Position | None = None,
                 channel: int = 6,
                 rate: PhyRate = WILE_DEFAULT_RATE,
                 clock: JitteryClock | None = None,
                 key: bytes | None = None,
                 rx_window_ms: int = 0,
                 recorder: Esp32Recorder | None = None,
                 boot_time_s: float = cal.WILE_BOOT_S,
                 warmup_s: float = cal.WILE_RADIO_WARMUP_S,
                 tx_power_dbm: float = WILE_TX_POWER_DBM,
                 carrier_sense: bool = False,
                 repeats: int = 1,
                 repeat_gap_s: float = 2e-3) -> None:
        from ..dot11.channels import supports_dsss
        from ..dot11.rates import PhyFamily
        if rate.family is PhyFamily.DSSS and not supports_dsss(channel):
            raise ValueError(
                f"rate {rate.name} is DSSS; channel {channel} is 5 GHz "
                "(OFDM only)")
        self.sim = sim
        self.device_id = device_id
        self.mac = device_mac(device_id)
        self.rate = rate
        self.clock = clock if clock is not None else JitteryClock(seed=device_id)
        self.key = key
        self.rx_window_ms = rx_window_ms
        self.recorder = recorder
        self.boot_time_s = boot_time_s
        self.warmup_s = warmup_s
        self.template = BeaconTemplate(source=self.mac, channel=channel)
        self.tx_power_dbm = tx_power_dbm
        self.radio = Radio(sim, medium, self.mac, position=position,
                           channel=channel,
                           default_power_dbm=tx_power_dbm)
        self.radio.rx_callback = self._on_frame
        self._csma = None
        if carrier_sense:
            from ..mac.csma import CsmaTransmitter
            self._csma = CsmaTransmitter(sim, self.radio, seed=device_id)
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        if repeat_gap_s < 0:
            raise ValueError("repeat gap cannot be negative")
        self.repeats = repeats
        self.repeat_gap_s = repeat_gap_s
        self.sequence = 0
        self.transmissions: list[TransmissionRecord] = []
        self.skipped_wakes = 0
        self.downlink_callback: DownlinkCallback | None = None
        self._sensor: SensorCallback = lambda: ()
        self._interval_s = 0.0
        self._running = False
        self._sleep_since_s = sim.now_s
        # Fault support (repro.faults): a reboot or shutdown bumps the
        # epoch, turning every already-scheduled continuation of the
        # interrupted duty cycle into a no-op. With no faults injected
        # the epoch never changes and behaviour is bit-identical to the
        # pre-fault code.
        self._epoch = 0
        self._wake_handle = None
        self.reboots = 0
        self.fault_energy_j = 0.0
        self.depleted = False

    # -- lifecycle ------------------------------------------------------------

    def start(self, interval_s: float, sensor: SensorCallback,
              first_wake_s: float | None = None) -> None:
        """Begin the periodic wake/transmit/sleep cycle.

        ``first_wake_s`` overrides the initial sleep (a scheduling
        policy's phase offset — see :mod:`repro.core.scheduler`);
        subsequent wakes follow ``interval_s`` on the device's clock.
        """
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        if first_wake_s is not None and first_wake_s < 0:
            raise ValueError(f"first wake cannot be negative: {first_wake_s}")
        self._interval_s = interval_s
        self._sensor = sensor
        self._running = True
        self._sleep_since_s = self.sim.now_s
        if first_wake_s is not None:
            self._wake_handle = self.sim.schedule(
                max(first_wake_s, 1e-9), self._guarded(self._wake))
        else:
            self._schedule_next_wake()

    def stop(self) -> None:
        self._running = False
        if self._wake_handle is not None:
            self._wake_handle.cancel()
            self._wake_handle = None

    def set_interval(self, interval_s: float) -> None:
        """Retarget the wake period (applies from the next sleep)."""
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        self._interval_s = interval_s

    @property
    def interval_s(self) -> float:
        return self._interval_s

    def _schedule_next_wake(self) -> None:
        if not self._running:
            return
        self._wake_handle = self.sim.schedule(
            self.clock.actual_interval_s(self._interval_s),
            self._guarded(self._wake))

    def _guarded(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Bind ``callback`` to the current fault epoch.

        A brownout or battery cutoff mid-cycle invalidates every
        continuation of that cycle (the post-boot transmit, the repeat
        train, the rx-window close, the back-to-sleep step); the stale
        callbacks still fire in the engine but do nothing.
        """
        epoch = self._epoch

        def run() -> None:
            if self._epoch == epoch:
                callback()

        return run

    # -- fault handling (driven by repro.faults) -----------------------------

    def reboot(self) -> None:
        """Brownout: the supply dips, the chip resets mid-whatever.

        Any in-flight duty-cycle state is lost; the device pays a full
        boot (the paper's 0.35 s / 46.8 mA window — brownouts are
        energetically expensive, which is why the resilience experiment
        tracks them) and then resumes its normal schedule from sleep.
        """
        if self.depleted:
            return
        self._epoch += 1
        self.reboots += 1
        if self._wake_handle is not None:
            self._wake_handle.cancel()
            self._wake_handle = None
        self.radio.power_off()
        self._record_sleep_until(self.sim.now_s)
        self._record(Esp32State.BOOT, self.boot_time_s, "reboot")
        model = (self.recorder.model if self.recorder is not None
                 else Esp32PowerModel())
        self.fault_energy_j += self.boot_time_s * model.power_w(
            Esp32State.BOOT)
        if self._running:
            self.sim.schedule(self.boot_time_s,
                              self._guarded(self._back_to_sleep))

    def shutdown(self) -> None:
        """Battery depleted: the device goes dark and stays dark."""
        if self.depleted:
            return
        self.depleted = True
        self._epoch += 1
        self._running = False
        if self._wake_handle is not None:
            self._wake_handle.cancel()
            self._wake_handle = None
        self.radio.power_off()
        self._record_sleep_until(self.sim.now_s)

    # -- the duty cycle ----------------------------------------------------------

    def _wake(self) -> None:
        if not self._running:
            return
        self._record_sleep_until(self.sim.now_s)
        readings = self._sensor()
        if readings is None:
            # A reporting policy (repro.core.policy) decided this wake
            # carries no news. On real hardware the check runs on the
            # ULP coprocessor, so the main cores never boot: the wake
            # costs a ~2 ms / 150 uA window instead of the 0.35 s boot.
            self.skipped_wakes += 1
            self._record(Esp32State.ULP, cal.ULP_CHECK_S, "ulp-check")
            self._back_to_sleep()
            return
        self._record(Esp32State.BOOT, self.boot_time_s, "boot")
        self.sim.schedule(self.boot_time_s, self._guarded(
            lambda: self._transmit_beacon(readings)))

    def _transmit_beacon(self, readings: tuple[SensorReading, ...]) -> None:
        message = self.build_message(readings)
        beacon = self.template.build(
            message, timestamp_us=int(self.sim.now_s * 1e6),
            sequence=self.sequence & 0xFFF)
        if self._csma is not None:
            self._inject_csma(beacon)
            return
        # Power management is handled by the train: the radio stays on
        # across repeats and _back_to_sleep turns it off at the end.
        self.radio.power_on()
        self._send_train(beacon, remaining=self.repeats, first=True)

    def _send_train(self, beacon: Beacon, remaining: int, first: bool) -> None:
        """Transmit the message, optionally repeated for reliability.

        Repetition is Wi-LE's native redundancy: there are no ACKs to
        retransmit against, but receivers deduplicate by sequence
        number, so sending the identical beacon k times trades k-fold
        TX energy for independent shots through a busy channel.
        """
        if first:
            self.inject(beacon)
            window_s = self._tx_window_s(beacon)
        else:
            window_s = self._inject_repeat(beacon)
        if remaining > 1:
            self._record(Esp32State.LISTEN, self.repeat_gap_s, "repeat-gap",
                         at_s=self.sim.now_s + window_s)
            self.sim.schedule(
                window_s + self.repeat_gap_s,
                self._guarded(
                    lambda: self._send_train(beacon, remaining - 1, False)))
            return
        if self.rx_window_ms > 0:
            rx_window_s = self.rx_window_ms / 1e3
            self._record(Esp32State.LISTEN, rx_window_s, "rx-window",
                         at_s=self.sim.now_s + window_s)
            self.sim.schedule(window_s + rx_window_s,
                              self._guarded(self._window_closed))
        else:
            self.sim.schedule(window_s, self._guarded(self._back_to_sleep))

    def _inject_repeat(self, beacon: Beacon) -> float:
        """One extra copy: no warm-up (the radio is already hot)."""
        airtime_s = frame_airtime_us(len(beacon.to_bytes()), self.rate) / 1e6
        tx_state = (Esp32State.TX_LOW if self.tx_power_dbm <= 10.0
                    else Esp32State.TX_HIGH)
        self._record(tx_state, airtime_s, "tx-repeat")
        self.radio.transmit(beacon, self.rate)
        return airtime_s

    def build_message(self, readings: tuple[SensorReading, ...]) -> WileMessage:
        """Construct (and, with a key, encrypt) the next message."""
        self.sequence = (self.sequence + 1) & 0xFFFF
        flags = WileFlags.NONE
        rx_window_ms = 0
        if self.rx_window_ms > 0:
            flags |= WileFlags.RX_WINDOW
            rx_window_ms = self.rx_window_ms
        message = WileMessage(device_id=self.device_id,
                              sequence=self.sequence,
                              message_type=WileMessageType.SENSOR_DATA,
                              readings=readings, flags=flags,
                              rx_window_ms=rx_window_ms)
        if self.key is None:
            return message
        # Re-encode with the body encrypted under the per-device key.
        import dataclasses
        encrypted = dataclasses.replace(
            message, flags=flags | WileFlags.ENCRYPTED, readings=(),
            raw_body=b"")
        header = encrypted.encode()[:9]
        ciphertext = encrypt_body(self.key, header, message.body_bytes())
        return dataclasses.replace(encrypted, raw_body=ciphertext)

    def _inject_csma(self, beacon: Beacon) -> None:
        """Polite injection: listen-before-talk, then the normal TX window.

        The access delay is spent with the receiver on (charged at the
        listen current); the per-packet energy figure still counts only
        the paper's TX window so Table 1 accounting stays comparable —
        the extra listen cost shows up in the recorder trace and the
        contention experiment's access-delay statistics.
        """
        self.radio.power_on()

        def on_sent(transmission, access_delay_s: float) -> None:
            if access_delay_s > 0:
                self._record(Esp32State.LISTEN, access_delay_s, "csma-wait",
                             at_s=self.sim.now_s - access_delay_s)
            airtime_s = transmission.end_s - self.sim.now_s
            tx_state = (Esp32State.TX_LOW if self.tx_power_dbm <= 10.0
                        else Esp32State.TX_HIGH)
            self._record(tx_state, self.warmup_s + airtime_s, "tx")
            self.transmissions.append(TransmissionRecord(
                time_s=self.sim.now_s,
                sequence=self.sequence,
                frame_bytes=len(transmission.frame_bytes),
                airtime_s=airtime_s,
                energy_j=self.energy_per_packet_j(
                    len(transmission.frame_bytes))))
            if self.rx_window_ms > 0:
                window_s = self.rx_window_ms / 1e3
                self._record(Esp32State.LISTEN, window_s, "rx-window",
                             at_s=transmission.end_s)
                self.sim.at(transmission.end_s + window_s,
                            self._guarded(self._window_closed))
            else:
                self.sim.at(transmission.end_s,
                            self._guarded(self._back_to_sleep))

        self._csma.enqueue(beacon, self.rate, on_sent=on_sent)

    @property
    def csma_stats(self):
        """Channel-access statistics when carrier sense is enabled."""
        if self._csma is None:
            return None
        return self._csma.stats

    def inject(self, beacon: Beacon) -> TransmissionRecord:
        """Raw beacon injection: radio on, warm-up, one frame, radio off."""
        was_off = not self.radio.is_listening(self.radio.channel)
        if was_off:
            self.radio.power_on()
        airtime_s = frame_airtime_us(len(beacon.to_bytes()), self.rate) / 1e6
        tx_state = (Esp32State.TX_LOW if self.tx_power_dbm <= 10.0
                    else Esp32State.TX_HIGH)
        self._record(tx_state, self.warmup_s + airtime_s, "tx")
        transmission = self.radio.transmit(beacon, self.rate)
        record = TransmissionRecord(
            time_s=self.sim.now_s,
            sequence=self.sequence,
            frame_bytes=len(transmission.frame_bytes),
            airtime_s=airtime_s,
            energy_j=self.energy_per_packet_j(len(transmission.frame_bytes)))
        self.transmissions.append(record)
        if was_off and self.rx_window_ms == 0:
            self.sim.at(transmission.end_s,
                        self._guarded(self.radio.power_off))
        return record

    def _window_closed(self) -> None:
        self.radio.power_off()
        self._back_to_sleep()

    def _back_to_sleep(self) -> None:
        self.radio.power_off()
        self._sleep_since_s = self.sim.now_s
        self._schedule_next_wake()

    # -- downlink (two-way extension) -----------------------------------------------

    def _on_frame(self, frame: object, transmission: Transmission) -> None:
        """During an RX window the device accepts Wi-LE downlink beacons
        addressed to it (matching device id)."""
        if self.downlink_callback is None:
            return
        if not is_wile_beacon(frame):
            return
        try:
            message = decode_beacon(frame)
        except Exception:
            return
        if message.device_id != self.device_id:
            return
        if message.message_type is WileMessageType.SENSOR_DATA:
            return  # our own kind of uplink, not a command
        self.downlink_callback(message)

    # -- energy accounting -----------------------------------------------------------

    def _tx_window_s(self, beacon: Beacon) -> float:
        return (self.warmup_s
                + frame_airtime_us(len(beacon.to_bytes()), self.rate) / 1e6)

    def energy_per_packet_j(self, frame_bytes: int) -> float:
        """The paper's §5.4 accounting: TX window x TX power.

        "To compute the energy per packet for Wi-LE ... we consider only
        the time required to transmit the packet and multiply that by
        the power consumption measured from the ESP32 modules."
        """
        airtime_s = frame_airtime_us(frame_bytes, self.rate) / 1e6
        window_s = self.warmup_s + airtime_s
        # The paper measures at 0 dBm; a long-range deployment raising the
        # PA toward 20 dBm pays the datasheet's high-power TX current.
        tx_state = (Esp32State.TX_LOW if self.tx_power_dbm <= 10.0
                    else Esp32State.TX_HIGH)
        if self.recorder is not None:
            power_w = self.recorder.model.power_w(tx_state)
        else:
            model = Esp32PowerModel()
            power_w = model.power_w(tx_state)
        return window_s * power_w

    def _record(self, state: Esp32State, duration_s: float, label: str,
                at_s: float | None = None) -> None:
        if self.recorder is None or duration_s <= 0:
            return
        start = self.sim.now_s if at_s is None else at_s
        if start < self.recorder.trace.cursor_s - 1e-12:
            return  # overlapping bookkeeping is skipped, never fatal
        self.recorder.spend_at(start, duration_s, state, label)

    def _record_sleep_until(self, now_s: float) -> None:
        if self.recorder is None:
            return
        gap = now_s - self.recorder.trace.cursor_s
        if gap > 0:
            self.recorder.spend_at(self.recorder.trace.cursor_s, gap,
                                   Esp32State.DEEP_SLEEP, "deep-sleep")
