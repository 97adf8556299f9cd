"""Bench: battery-life projections per scenario and interval.

Quantifies §5.4's "BLE modules can run on a small button battery for
over a year" and shows Wi-LE lands in the same deployment class while
both WiFi modes are off by orders of magnitude.
"""

from conftest import calibrated_op_seconds, once, record_baseline

from repro.experiments.battery_life import battery_life, render

#: Single projections run in microseconds — too close to the timer's
#: noise floor for a 30% regression band, so the bench times a batch,
#: best of several and interleaved with the calibration workload (one
#: 2–5 ms batch timed once swings by more than the band).
BATCH = 50


def test_battery_life(benchmark, scenario_results):
    def batch(results):
        for _ in range(BATCH - 1):
            battery_life(results)
        return battery_life(results)

    cells = once(benchmark, batch, scenario_results)
    record_baseline(
        "scenarios", "scenarios_battery_life_x50",
        calibrated_op_seconds(batch, scenario_results),
        counters={"cells": len(cells),
                  "coin_cell_class": sum(1 for cell in cells
                                         if cell.cr2032_years > 1.0)})
    print()
    print(render(cells))
    by_key = {(cell.scenario, cell.interval_s): cell for cell in cells}
    assert by_key[("BLE", 600.0)].cr2032_years > 1.0
    assert by_key[("Wi-LE", 600.0)].cr2032_years > 1.0
    assert by_key[("WiFi-PS", 600.0)].cr2032_years < 0.1
    assert by_key[("WiFi-DC", 600.0)].cr2032_years < 1.0


def test_coin_cell_class_boundary(scenario_results):
    """Wi-LE and BLE are the only technologies in the >1-year coin-cell
    class at every interval of 1 minute or more; WUR's ~13 uA standby
    clears the year mark only at the 10-minute interval, and the rest
    never do."""
    for cell in battery_life(scenario_results, intervals_s=(60.0, 600.0)):
        if cell.scenario in ("Wi-LE", "BLE"):
            assert cell.cr2032_years > 1.0, cell
        elif cell.scenario == "WUR":
            assert (cell.cr2032_years > 1.0) == (cell.interval_s >= 600.0), cell
        else:
            assert cell.cr2032_years < 1.0, cell
