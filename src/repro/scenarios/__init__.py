"""The §5.3 evaluation scenarios (plus WUR and batteryless) and
cross-scenario comparisons."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": (
        "Burst", "ScenarioError", "ScenarioResult", "emit_scenario_metrics",
        "overlay_window",
    ),
    ".ble": ("run_ble",),
    ".compare": (
        "SCENARIO_ORDER", "Figure4Findings", "Figure4Series", "Table1Row",
        "figure4", "figure4_findings", "run_all_scenarios", "table1",
    ),
    ".batteryless": ("run_batteryless",),
    ".wifi_dc": ("run_wifi_dc",),
    ".wifi_ps": ("run_wifi_ps",),
    ".wile": ("run_wile",),
    ".wur": ("run_wur",),
})
