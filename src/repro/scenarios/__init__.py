"""The §5.3 evaluation scenarios (plus WUR and batteryless) and
cross-scenario comparisons."""

from .base import (
    Burst,
    ScenarioError,
    ScenarioResult,
    emit_scenario_metrics,
    overlay_window,
)
from .ble import run_ble
from .compare import (
    SCENARIO_ORDER,
    Figure4Findings,
    Figure4Series,
    Table1Row,
    figure4,
    figure4_findings,
    run_all_scenarios,
    table1,
)
from .batteryless import run_batteryless
from .wifi_dc import run_wifi_dc
from .wifi_ps import run_wifi_ps
from .wile import run_wile
from .wur import run_wur

__all__ = [name for name in dir() if not name.startswith("_")]
