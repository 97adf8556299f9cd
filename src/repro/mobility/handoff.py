"""AP-selection policies and the per-technology handoff cost model.

The paper's sharpest structural claim is mobility-shaped: a Wi-LE
device injects *connection-less* broadcast beacons, so moving between
APs costs it nothing — while a WiFi client re-runs §3.1's association
sequence (20 MAC frames + 7 higher-layer frames) on every AP change,
and a BLE slave re-runs advertising + connection establishment. This
module quantifies both halves:

* **policies** — strongest-RSSI, hysteresis, and sticky (dwell-time)
  AP selection, evaluated per epoch over a trajectory;
* **costs** — :func:`reassociation_cost` replays the *actual* protocol
  machines. The WiFi cost runs ``Station.connect_and_send`` against the
  full :class:`repro.mac.access_point.AccessPoint` implementation and
  integrates energy over the logged frame exchange (real frame sizes
  and airtimes, TX vs RX current per direction — not a constant); the
  BLE cost rebuilds advertising + CONNECT_REQ + one connection event
  from the real BLE PDU codecs; the Wi-LE cost is the structural no-op:
  exactly zero frames, zero seconds, zero joules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..dot11 import MacAddress
from ..dot11.airtime import frame_airtime_us
from ..dot11.rates import OFDM_24
from ..energy import calibration as cal
from ..energy.cc2541 import Cc2541PowerModel
from ..mac import AccessPoint, FrameDirection, FrameLayer, Station
from ..security import pmk_from_passphrase
from ..sim import Position, Simulator, WirelessMedium
from .grid import DEFAULT_SENSITIVITY_DBM, ApGrid, ApSite
from .trajectories import Trajectory

HANDOFF_TECHNOLOGIES = ("Wi-LE", "WiFi-PS", "WiFi-DC", "BLE")

POLICY_KINDS = ("strongest", "hysteresis", "sticky")

#: Per-frame CPU/interrupt window charged around each replayed frame —
#: the same margin the WiFi-DC scenario uses.
FRAME_EVENT_WINDOW_S = 0.002

#: Advertising events a BLE slave runs before the master's CONNECT_REQ
#: lands (scan/connect latency of a typical central).
BLE_REPAIR_ADV_EVENTS = 3


class HandoffError(ValueError):
    """Raised for impossible handoff configurations."""


@dataclass(frozen=True, slots=True)
class HandoffPolicy:
    """One AP-selection rule, evaluated per epoch.

    * ``strongest`` — always camp on the strongest detectable AP.
    * ``hysteresis`` — switch only when a challenger beats the serving
      AP by more than ``hysteresis_db`` (suppresses boundary ping-pong).
    * ``sticky`` — refuse to switch within ``dwell_s`` of the last
      switch; after the dwell expires, behave like ``strongest``.

    Losing the serving AP entirely (below sensitivity) always forces a
    reselection, whatever the policy.
    """

    kind: str = "strongest"
    hysteresis_db: float = 3.0
    dwell_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise HandoffError(f"unknown policy {self.kind!r}; "
                               f"choose from {POLICY_KINDS}")
        if self.hysteresis_db < 0:
            raise HandoffError("hysteresis must be >= 0")
        if self.dwell_s < 0:
            raise HandoffError("dwell must be >= 0")

    def select(self, serving: ApSite | None, serving_rssi: float | None,
               best: ApSite | None, best_rssi: float,
               now_s: float, last_switch_s: float) -> ApSite | None:
        """The AP to camp on this epoch (None = outage)."""
        if best is None:
            return None  # nothing detectable: outage
        if serving is None or serving_rssi is None:
            return best  # (re)acquisition: take the strongest
        if best.ap_id == serving.ap_id:
            return serving
        if self.kind == "strongest":
            return best
        if self.kind == "hysteresis":
            return best if best_rssi > serving_rssi + self.hysteresis_db \
                else serving
        # sticky: hold the serving AP through the dwell window.
        if now_s - last_switch_s < self.dwell_s:
            return serving
        return best


@dataclass(frozen=True, slots=True)
class HandoffCost:
    """What one AP change costs a given technology."""

    technology: str
    mac_frames: int
    higher_frames: int
    airtime_s: float
    latency_s: float
    energy_j: float


def _replay_wifi_association() -> tuple[int, int, float, float, float]:
    """Run the full §3.1 sequence through the real Station/AccessPoint
    machines and integrate the station's energy over the logged frames.

    Returns ``(mac_frames, higher_frames, airtime_s, latency_s,
    energy_j)``. Energy is per-frame: each station->AP frame is charged
    its computed airtime at the association TX current, each AP->station
    frame its airtime at the listen current, plus a per-frame processing
    window; the remaining latency (AP/DHCP response waits) sits in
    automatic light sleep — the §5.1 currents laid over the §3.1
    exchange, so the cost scales with what actually crossed the air.
    """
    sim = Simulator()
    medium = WirelessMedium(sim)
    ssid, passphrase = "GoogleWifi", "hotnets2019"
    pmk = pmk_from_passphrase(passphrase, ssid.encode("utf-8"))
    ap = AccessPoint(sim, medium, ssid=ssid, passphrase=passphrase,
                     position=Position(0.0, 0.0), beaconing=False, pmk=pmk)
    station = Station(sim, medium, MacAddress.parse("24:0a:c4:32:17:02"),
                      ssid=ssid, passphrase=passphrase,
                      position=Position(2.0, 0.0), rate=OFDM_24, pmk=pmk)
    completed: dict[str, float] = {}
    station.connect_and_send(ap.mac, bytes(cal.SENSOR_PAYLOAD_BYTES),
                             on_complete=lambda: completed.setdefault(
                                 "done", sim.now_s))
    sim.run(until_s=10.0)
    if "done" not in completed:
        raise HandoffError("association replay did not complete")

    entries = [entry for entry in station.frame_log.entries
               if entry.layer in (FrameLayer.MAC, FrameLayer.HIGHER)]
    mac_frames = sum(1 for e in entries if e.layer is FrameLayer.MAC)
    higher_frames = sum(1 for e in entries if e.layer is FrameLayer.HIGHER)
    latency_s = station.phase_marks["net_phase_end"]

    airtime_s = 0.0
    active_j = 0.0
    for entry in entries:
        frame_airtime = frame_airtime_us(max(entry.size_bytes, 1),
                                         OFDM_24) / 1e6
        airtime_s += frame_airtime
        if entry.direction is FrameDirection.STATION_TO_AP:
            current_a = cal.ESP32_WIFI_TX_HIGH_A
        else:
            current_a = cal.ESP32_WIFI_LISTEN_A
        active_j += frame_airtime * current_a * cal.SUPPLY_VOLTAGE_V
        active_j += (FRAME_EVENT_WINDOW_S * cal.ESP32_NET_ACTIVE_A
                     * cal.SUPPLY_VOLTAGE_V)
    idle_s = max(0.0, latency_s - airtime_s
                 - len(entries) * FRAME_EVENT_WINDOW_S)
    idle_j = idle_s * cal.ESP32_AUTO_LIGHT_SLEEP_A * cal.SUPPLY_VOLTAGE_V
    return mac_frames, higher_frames, airtime_s, latency_s, active_j + idle_j


def _replay_ble_repair() -> tuple[int, int, float, float, float]:
    """BLE re-pairing: advertising events until the CONNECT_REQ, then
    one connection event to resume the data schedule.

    Frame accounting uses the real PDU codecs (ADV_IND on the three
    advertising channels, the 34-byte CONNECT_REQ, one empty master PDU
    + one slave data PDU); energy comes from the CC2541 phase model —
    one phase-model event per advertising event and one for the
    connection event, the same accounting the BLE scenario uses.
    """
    from ..ble.airtime import T_IFS_US, airtime_us
    from ..ble.packets import (
        ACCESS_ADDRESS_BYTES,
        ADVERTISING_CHANNELS,
        CRC_BYTES,
        PREAMBLE_BYTES,
    )
    overhead = PREAMBLE_BYTES + ACCESS_ADDRESS_BYTES + CRC_BYTES
    # ADV_IND: 2-byte header + 6-byte AdvA + up to 31 bytes data (empty
    # here: the device is advertising for reconnection, not broadcasting
    # telemetry).
    adv_on_air = overhead + 2 + 6
    # CONNECT_REQ: 2-byte header + 6 + 6 + 22-byte LLData.
    connect_on_air = overhead + 2 + 34
    # First connection event: empty master poll + slave data PDU.
    event_on_air = (overhead + 2) + (overhead + 2 + cal.SENSOR_PAYLOAD_BYTES)

    adv_events = BLE_REPAIR_ADV_EVENTS
    mac_frames = adv_events * len(ADVERTISING_CHANNELS) + 1 + 2
    airtime_s = (adv_events * len(ADVERTISING_CHANNELS)
                 * airtime_us(adv_on_air)
                 + airtime_us(connect_on_air)
                 + airtime_us(event_on_air)) / 1e6
    model = Cc2541PowerModel()
    # One phase-model event per advertising event, one for the
    # connection event; the transmitWindow delay between them passes at
    # sleep current.
    transmit_window_s = 1.25e-3 + adv_events * (3 * T_IFS_US / 1e6)
    events = adv_events + 1
    latency_s = events * model.event_duration_s() + transmit_window_s
    energy_j = (events * model.energy_per_event_j()
                + transmit_window_s * model.sleep_current_a
                * model.supply_voltage_v)
    return mac_frames, 0, airtime_s, latency_s, energy_j


def reassociation_cost(technology: str) -> HandoffCost:
    """What changing AP costs ``technology``. The WiFi cost replays a
    full simulated association (~ms of wall clock, and the MAC layer
    counts its frames), so a sweep resolves it once per technology and
    hands the :class:`HandoffCost` to every walk.

    Wi-LE's entry is the structural point, not a small number: beacons
    are connection-less broadcast frames, so there is no association
    state to rebuild and the cost is **exactly** zero. Both WiFi modes
    replay the full §3.1 exchange (WiFi-PS must re-associate before its
    next PS-poll cycle; WiFi-DC re-runs the sequence against the new AP
    with none of its cached state valid).
    """
    if technology not in HANDOFF_TECHNOLOGIES:
        raise HandoffError(f"unknown technology {technology!r}; "
                           f"choose from {HANDOFF_TECHNOLOGIES}")
    if technology == "Wi-LE":
        return HandoffCost(technology="Wi-LE", mac_frames=0,
                           higher_frames=0, airtime_s=0.0, latency_s=0.0,
                           energy_j=0.0)
    if technology == "BLE":
        mac, higher, airtime, latency, energy = _replay_ble_repair()
    else:
        mac, higher, airtime, latency, energy = _replay_wifi_association()
    return HandoffCost(technology=technology, mac_frames=mac,
                       higher_frames=higher, airtime_s=airtime,
                       latency_s=latency, energy_j=energy)


@dataclass
class DeviceMobilityStats:
    """One device's walk through the grid: epochs, handoffs, delivery."""

    device_id: int
    epochs: int = 0
    handoffs: int = 0          # AP -> different-AP changes
    reacquisitions: int = 0    # outage -> coverage transitions
    outage_epochs: int = 0
    outage_s: float = 0.0
    beacons_sent: int = 0
    beacons_delivered: int = 0
    serving_history: list[int] = field(default_factory=list)

    @property
    def association_events(self) -> int:
        """Events that pay the re-association cost."""
        return self.handoffs + self.reacquisitions


def walk_trajectory(trajectory: Trajectory, grid: ApGrid,
                    policy: HandoffPolicy, duration_s: float,
                    interval_s: float, first_wake_s: float = 0.0,
                    sensitivity_dbm: float = DEFAULT_SENSITIVITY_DBM,
                    ) -> DeviceMobilityStats:
    """Evaluate AP selection per epoch along ``trajectory`` and count
    the beacons that get through.

    Per epoch: the strongest detectable AP is found through the grid's
    O(1) candidate index, the policy picks the camped AP, and every AP
    change (or coverage reacquisition) is one association event, which
    :func:`reassociation_cost` prices per technology. Nothing here
    depends on the technology, so one walk scores all of them. A wake
    at ``first_wake_s + k * interval_s`` is delivered iff its epoch has
    a camped AP. Every policy camps on an AP exactly when some AP is
    detectable, so this one count is also what any-AP delivery (Wi-LE's
    connection-less injection, WiFi-DC's fresh association per wake)
    gets through: all four technologies deliver the same wakes.
    """
    if duration_s < trajectory.epoch_s or interval_s <= 0:
        raise HandoffError("duration must span an epoch and interval "
                           "must be positive")
    stats = DeviceMobilityStats(device_id=trajectory.device_id)
    epoch_s = trajectory.epoch_s
    epochs = int(duration_s // epoch_s)
    stats.epochs = epochs

    serving: ApSite | None = None
    last_switch_s = -math.inf
    for epoch in range(epochs):
        now_s = epoch * epoch_s
        x_m, y_m = trajectory.epoch_position(epoch)
        found = grid.best(x_m, y_m, sensitivity_dbm=sensitivity_dbm)
        best, best_rssi = found if found is not None else (None, -math.inf)
        previous = serving
        serving_rssi = (grid.rssi_dbm(serving, x_m, y_m)
                        if serving is not None else None)
        if serving_rssi is not None and serving_rssi < sensitivity_dbm:
            serving, serving_rssi = None, None  # lost the serving AP
        chosen = policy.select(serving, serving_rssi, best, best_rssi,
                               now_s, last_switch_s)
        if chosen is None:
            stats.outage_epochs += 1
        elif previous is None:
            # outage (or cold start) -> coverage: reacquisition
            stats.reacquisitions += 1
            last_switch_s = now_s
        elif chosen.ap_id != previous.ap_id:
            # AP -> different AP, whether policy-chosen or forced by
            # losing the serving signal: handoff
            stats.handoffs += 1
            last_switch_s = now_s
        serving = chosen
        stats.serving_history.append(serving.ap_id if serving else -1)

    stats.outage_s = stats.outage_epochs * epoch_s

    wake = first_wake_s if first_wake_s > 0 else interval_s
    while wake <= duration_s:
        epoch = min(int(wake // epoch_s), epochs - 1)
        stats.beacons_sent += 1
        stats.beacons_delivered += stats.serving_history[epoch] != -1
        wake += interval_s
    return stats
