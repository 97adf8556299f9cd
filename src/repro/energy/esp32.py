"""ESP32 power-state model.

The paper's device under test is an ESP32 WiFi/BLE system-on-chip run at
80 MHz with dynamic frequency scaling and automatic light sleep enabled
(§5.1). This module maps the chip's operating states to supply currents
(paper + datasheet + fit, see :mod:`repro.energy.calibration`) and
provides a recorder that scenario code drives to build the current
traces the simulated multimeter integrates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import calibration as cal
from .trace import CurrentTrace


class Esp32State(enum.Enum):
    """Operating states with distinct supply currents."""

    DEEP_SLEEP = "deep-sleep"
    LIGHT_SLEEP = "light-sleep"
    AUTO_LIGHT_SLEEP = "auto-light-sleep"
    ULP = "ulp"
    BOOT = "boot"
    LISTEN = "listen"
    NET_ACTIVE = "net-active"
    TX_LOW = "tx-0dbm"
    TX_HIGH = "tx-high"
    TEARDOWN = "teardown"


@dataclass(frozen=True, slots=True)
class Esp32PowerModel:
    """State -> current mapping for one ESP32 module.

    Defaults reproduce the paper's module (3.3 V supply, 80 MHz, DFS on).
    Individual currents can be overridden to model e.g. a different TX
    power setting in the ablation benches.
    """

    supply_voltage_v: float = cal.SUPPLY_VOLTAGE_V
    currents_a: dict[Esp32State, float] = field(default_factory=lambda: {
        Esp32State.DEEP_SLEEP: cal.ESP32_DEEP_SLEEP_A,
        Esp32State.LIGHT_SLEEP: cal.ESP32_LIGHT_SLEEP_A,
        Esp32State.AUTO_LIGHT_SLEEP: cal.ESP32_AUTO_LIGHT_SLEEP_A,
        Esp32State.ULP: cal.ESP32_ULP_ACTIVE_A,
        Esp32State.BOOT: cal.ESP32_BOOT_A,
        Esp32State.LISTEN: cal.ESP32_WIFI_LISTEN_A,
        Esp32State.NET_ACTIVE: cal.ESP32_NET_ACTIVE_A,
        Esp32State.TX_LOW: cal.ESP32_WIFI_TX_A,
        Esp32State.TX_HIGH: cal.ESP32_WIFI_TX_HIGH_A,
        Esp32State.TEARDOWN: cal.ESP32_TEARDOWN_A,
    })

    def current_a(self, state: Esp32State) -> float:
        return self.currents_a[state]

    def power_w(self, state: Esp32State) -> float:
        return self.current_a(state) * self.supply_voltage_v


class Esp32Recorder:
    """Builds a :class:`CurrentTrace` as scenario code walks the device
    through its states.

    The recorder is deliberately explicit — ``spend_at(start, duration,
    state)`` — rather than hooked into the event engine, so a scenario's
    trace reads like the annotated phases of Figure 3.
    """

    def __init__(self, model: Esp32PowerModel | None = None,
                 start_s: float = 0.0) -> None:
        self.model = model if model is not None else Esp32PowerModel()
        self.trace = CurrentTrace(start_s)

    def spend_at(self, start_s: float, duration_s: float, state: Esp32State,
                 label: str | None = None) -> None:
        """Record a state span at an explicit start time."""
        if duration_s <= 0:
            return
        self.trace.add_segment(start_s, duration_s,
                               self.model.current_a(state),
                               label if label is not None else state.value)

    @property
    def now_s(self) -> float:
        return self.trace.cursor_s

    def energy_j(self, t0_s: float | None = None,
                 t1_s: float | None = None) -> float:
        return self.trace.energy_j(self.model.supply_voltage_v, t0_s, t1_s)
