"""Experiment: battery life — "run on a small button battery for over a year".

Section 5.4 explains BLE's three-orders-of-magnitude advantage "is why
BLE modules can run on a small button battery for over a year". This
experiment turns every scenario's Eq. 1 average current into CR2032 (and
2xAA) life across transmission intervals, checking:

* BLE and Wi-LE both clear a year on a coin cell at 10-minute intervals
  (the paper's §1 temperature-sensor scenario);
* neither WiFi baseline comes anywhere close.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy.battery import CR2032, TWO_AA_PACK, Battery
from ..scenarios import SCENARIO_ORDER, ScenarioResult, run_all_scenarios
from .report import render_table

DEFAULT_INTERVALS_S: tuple[float, ...] = (10.0, 60.0, 600.0)


@dataclass(frozen=True, slots=True)
class BatteryLifeCell:
    scenario: str
    interval_s: float
    average_current_a: float
    cr2032_years: float
    two_aa_years: float


def battery_life(results: dict[str, ScenarioResult] | None = None,
                 intervals_s: tuple[float, ...] = DEFAULT_INTERVALS_S,
                 coin: Battery = CR2032,
                 pack: Battery = TWO_AA_PACK) -> list[BatteryLifeCell]:
    results = results if results is not None else run_all_scenarios()
    cells = []
    for name in SCENARIO_ORDER:
        profile = results[name].profile()
        for interval_s in intervals_s:
            current_a = profile.average_current_a(interval_s)
            cells.append(BatteryLifeCell(
                scenario=name,
                interval_s=interval_s,
                average_current_a=current_a,
                cr2032_years=coin.life_years(current_a),
                two_aa_years=pack.life_years(current_a)))
    return cells


def render(cells: list[BatteryLifeCell]) -> str:
    rows = [[cell.scenario, f"{cell.interval_s:.0f} s",
             f"{cell.average_current_a * 1e6:.3g} uA",
             f"{cell.cr2032_years:.2f}", f"{cell.two_aa_years:.2f}"]
            for cell in cells]
    return render_table(
        "Battery life by scenario and transmission interval",
        ["scenario", "interval", "avg current", "CR2032 (years)",
         "2xAA (years)"], rows)
