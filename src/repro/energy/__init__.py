"""Energy modelling: current traces, device power models, Eq. 1, batteries."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".calibration": (),
    ".average": (
        "AveragePowerError", "DutyCycleProfile", "average_power_w",
        "crossover_interval_s",
    ),
    ".battery": (
        "AA_LITHIUM", "CR2032", "TWO_AA_PACK", "Battery", "BatteryError",
    ),
    ".cc2541": ("Cc2541PowerModel",),
    ".esp32": ("Esp32PowerModel", "Esp32Recorder", "Esp32State"),
    ".harvest": (
        "CapacitorBank", "EnergyIncomeTrace", "HarvestError", "HarvestRun",
        "run_harvest_policy",
    ),
    ".trace": ("CurrentTrace", "TraceError", "TraceSegment"),
    ".wur": ("WurModelError", "WurPowerModel"),
})
