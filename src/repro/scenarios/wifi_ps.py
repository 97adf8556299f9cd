"""WiFi power-save (WiFi-PS) scenario — §5.3, Table 1 column 4.

"The WiFi chip associates with an access point and maintains the
connection by utilizing aggressive power saving mode ... the WiFi chip
wakes up only for every third beacon frame. Finally, the microcontroller
is in the automatic light sleep mode."

Energy per packet is an order of magnitude below WiFi-DC (no
re-association), but the idle current is ~2000x deep sleep — the trade
Figure 4's crossover comes from. The scenario first *proves the
protocol works* (associate once, enter PS, transmit on the live
association, fetch buffered downlink via TIM/PS-Poll), then integrates
the calibrated transmission-burst phases.
"""

from __future__ import annotations

from ..dot11 import MacAddress
from ..energy import calibration as cal
from ..energy.esp32 import Esp32PowerModel
from ..energy.trace import CurrentTrace
from ..mac import BEACON_INTERVAL_S, AccessPoint, Station, StationState
from ..security import pmk_from_passphrase
from ..sim import Position, Simulator, WirelessMedium
from .base import ScenarioError, ScenarioResult, emit_scenario_metrics

STATION_MAC = MacAddress.parse("24:0a:c4:32:17:02")

#: The paper's aggressive setting: wake for every third beacon.
LISTEN_INTERVAL = 3


def run_wifi_ps(payload: bytes = bytes(cal.SENSOR_PAYLOAD_BYTES),
                ssid: str = "GoogleWifi", passphrase: str = "hotnets2019",
                model: Esp32PowerModel | None = None,
                listen_interval: int = LISTEN_INTERVAL) -> ScenarioResult:
    """Associate once, power-save, transmit one message on the live
    association, and integrate the transmission burst."""
    model = model if model is not None else Esp32PowerModel()

    sim = Simulator()
    medium = WirelessMedium(sim)
    pmk = pmk_from_passphrase(passphrase, ssid.encode("utf-8"))
    ap = AccessPoint(sim, medium, ssid=ssid, passphrase=passphrase,
                     position=Position(0.0, 0.0), beaconing=True, pmk=pmk)
    station = Station(sim, medium, STATION_MAC, ssid=ssid,
                      passphrase=passphrase, position=Position(2.0, 0.0),
                      pmk=pmk)
    station.listen_interval = listen_interval
    progress: dict[str, float] = {}
    station.connect_and_send(ap.mac, b"",
                             on_complete=lambda: progress.setdefault(
                                 "associated", sim.now_s))
    sim.run(until_s=3.0)
    if "associated" not in progress:
        raise ScenarioError("WiFi-PS association did not complete")

    station.enter_power_save()
    sim.run(until_s=4.0)
    if station.state is not StationState.POWER_SAVE:
        raise ScenarioError("station failed to enter power-save mode")

    # Transmit the sensor reading on the maintained association.
    station.send_data(payload,
                      on_complete=lambda: progress.setdefault("sent", sim.now_s))
    sim.run(until_s=6.0)
    if "sent" not in progress:
        raise ScenarioError("WiFi-PS data transmission did not complete")

    trace = _transmission_burst_trace(model)
    burst_duration = trace.duration_s
    energy_j = trace.energy_j(model.supply_voltage_v)
    result = ScenarioResult(
        name="WiFi-PS",
        energy_per_packet_j=energy_j,
        t_tx_s=burst_duration,
        idle_current_a=cal.WIFI_PS_IDLE_A,
        supply_voltage_v=model.supply_voltage_v,
        trace=trace,
        frame_log=station.frame_log,
        details={
            "listen_interval": listen_interval,
            "beacon_interval_s": BEACON_INTERVAL_S,
            "associated_at_s": progress["associated"],
            "sent_at_s": progress["sent"],
        })
    emit_scenario_metrics(result)
    return result


def _transmission_burst_trace(model: Esp32PowerModel) -> CurrentTrace:
    """The calibrated wake -> sync -> TX -> settle burst (Table 1 fit)."""
    trace = CurrentTrace()
    trace.append(cal.WIFI_PS_WAKE_S, cal.WIFI_PS_WAKE_A, "wake")
    trace.append(cal.WIFI_PS_SYNC_S, cal.WIFI_PS_SYNC_A, "beacon-sync")
    trace.append(cal.WIFI_PS_TX_S, cal.WIFI_PS_TX_A, "tx")
    trace.append(cal.WIFI_PS_SETTLE_S, cal.WIFI_PS_SETTLE_A, "settle")
    return trace


def idle_current_for_listen_interval(listen_interval: int,
                                     base_sleep_a: float = cal.WIFI_PS_MODEM_SLEEP_BASE_A,
                                     beacon_rx_a: float = cal.ESP32_WIFI_LISTEN_A,
                                     beacon_rx_s: float = cal.WIFI_PS_BEACON_RX_S,
                                     beacon_interval_s: float = BEACON_INTERVAL_S) -> float:
    """Average idle current as a function of beacon skipping.

    Every ``listen_interval``-th beacon costs a ~4 ms receive window at
    listen current; in between the chip sits in light sleep. With the
    paper's listen interval of 3 this lands at Table 1's ~4.5 mA; the
    ablation bench sweeps it.
    """
    if listen_interval < 1:
        raise ValueError("listen interval must be >= 1")
    period_s = listen_interval * beacon_interval_s
    awake_s = min(beacon_rx_s, period_s)
    return (beacon_rx_a * awake_s + base_sleep_a * (period_s - awake_s)) / period_s
