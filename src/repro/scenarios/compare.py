"""Cross-scenario comparison: Table 1 rows and the Figure 4 sweep."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..energy import calibration as cal
from ..energy.average import DutyCycleProfile, crossover_interval_s
from .base import ScenarioResult
from .batteryless import run_batteryless
from .ble import run_ble
from .wifi_dc import run_wifi_dc
from .wifi_ps import run_wifi_ps
from .wile import run_wile
from .wur import run_wur

SCENARIO_ORDER = ("Wi-LE", "BLE", "WiFi-DC", "WiFi-PS", "WUR", "Batteryless")

_SCENARIO_RUNNERS = {
    "Wi-LE": run_wile,
    "BLE": run_ble,
    "WiFi-DC": run_wifi_dc,
    "WiFi-PS": run_wifi_ps,
    "WUR": run_wur,
    "Batteryless": run_batteryless,
}


def _run_named_scenario(name: str) -> ScenarioResult:
    """Run one scenario by Table 1 column name (picklable pool task)."""
    return _SCENARIO_RUNNERS[name]()


def run_all_scenarios(workers: int = 1) -> dict[str, ScenarioResult]:
    """One run of each scenario, keyed by the Table 1 column name.

    The four §5.3 scenarios plus the two ROADMAP device classes (WUR,
    Batteryless) are independent simulations; ``workers>1`` runs them
    on a process pool (results keyed and ordered identically to the
    serial run).
    """
    # Imported lazily: ``repro.experiments`` imports this package at the
    # module level, so a top-level import here would be circular.
    from ..experiments.runner import ParallelRunner
    results = ParallelRunner(workers=workers).map(
        _run_named_scenario, SCENARIO_ORDER)
    return dict(zip(SCENARIO_ORDER, results))


@dataclass(frozen=True, slots=True)
class Table1Row:
    """One technology's Table 1 entries, paper vs reproduced.

    The paper targets are optional: WUR and Batteryless extend the
    table beyond the paper's four columns, so they carry no published
    figure to compare against — their ratios are ``None`` rather than
    a division crash.
    """

    name: str
    energy_per_packet_j: float
    idle_current_a: float
    paper_energy_j: float | None = None
    paper_idle_a: float | None = None

    @property
    def energy_ratio(self) -> float | None:
        if self.paper_energy_j is None:
            return None
        return self.energy_per_packet_j / self.paper_energy_j

    @property
    def idle_ratio(self) -> float | None:
        if self.paper_idle_a is None:
            return None
        return self.idle_current_a / self.paper_idle_a


def table1(results: dict[str, ScenarioResult] | None = None) -> list[Table1Row]:
    """Reproduce Table 1: energy per message + idle current, vs paper."""
    results = results if results is not None else run_all_scenarios()
    rows = []
    for name in SCENARIO_ORDER:
        result = results[name]
        rows.append(Table1Row(
            name=name,
            energy_per_packet_j=result.energy_per_packet_j,
            idle_current_a=result.idle_current_a,
            paper_energy_j=cal.PAPER_ENERGY_PER_PACKET_J.get(name),
            paper_idle_a=cal.PAPER_IDLE_CURRENT_A.get(name)))
    return rows


@dataclass(frozen=True, slots=True)
class Figure4Series:
    """One technology's average-power curve over transmission intervals."""

    name: str
    intervals_s: np.ndarray
    power_w: np.ndarray


def figure4(results: dict[str, ScenarioResult] | None = None,
            max_interval_min: float = 5.0,
            points: int = 121,
            min_interval_s: float = 1.0) -> list[Figure4Series]:
    """Reproduce Figure 4: Eq. 1 swept over 0..5-minute intervals.

    Each curve starts just above the later of its own transmission
    window and ``min_interval_s`` (the plot's common left edge), so
    Eq. 1 is always evaluated inside its domain — the sweep runs in
    strict mode, which turns any accidental ``INT < T_tx`` evaluation
    into an error instead of a silently clamped point. For WiFi-DC,
    whose window already exceeds 1 s, the floor is inert and the curve
    starts at ``t_tx_s * 1.01`` as before.
    """
    results = results if results is not None else run_all_scenarios()
    series = []
    for name in SCENARIO_ORDER:
        profile = results[name].profile()
        start = max(profile.t_tx_s * 1.01, min_interval_s)
        intervals = np.linspace(start, max_interval_min * 60.0, points)
        power = np.array([profile.average_power_w(interval, strict=True)
                          for interval in intervals])
        series.append(Figure4Series(name, intervals, power))
    return series


@dataclass(frozen=True, slots=True)
class Figure4Findings:
    """The qualitative claims the paper draws from Figure 4."""

    wifi_ps_dc_crossover_s: float | None
    wile_ble_ratio_at_1min: float
    wile_vs_best_wifi_orders_at_1min: float


def figure4_findings(results: dict[str, ScenarioResult] | None = None) -> Figure4Findings:
    """Check the three headline observations of §5.5.

    1. WiFi-PS beats WiFi-DC only at sub-minute intervals (crossover).
    2. Wi-LE's power is close to BLE's (small ratio).
    3. Wi-LE sits ~3 orders of magnitude below the best WiFi option.
    """
    results = results if results is not None else run_all_scenarios()
    profiles: dict[str, DutyCycleProfile] = {
        name: results[name].profile() for name in SCENARIO_ORDER}
    crossover = crossover_interval_s(profiles["WiFi-PS"], profiles["WiFi-DC"])
    at_minute = 60.0
    wile = profiles["Wi-LE"].average_power_w(at_minute)
    ble = profiles["BLE"].average_power_w(at_minute)
    best_wifi = min(profiles["WiFi-DC"].average_power_w(at_minute),
                    profiles["WiFi-PS"].average_power_w(at_minute))
    return Figure4Findings(
        wifi_ps_dc_crossover_s=crossover,
        wile_ble_ratio_at_1min=wile / ble,
        wile_vs_best_wifi_orders_at_1min=float(np.log10(best_wifi / wile)))
