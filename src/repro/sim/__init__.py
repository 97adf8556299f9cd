"""Discrete-event simulation substrate: engine, clocks, medium, radios."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".clock": (
        "ClockError", "JitteryClock", "crystal_draws", "crystal_population",
    ),
    ".engine": ("EventHandle", "PeriodicTask", "SimulationError", "Simulator"),
    ".medium": (
        "DeliveryReport", "MediumError", "Position", "Transmission",
        "WirelessMedium",
    ),
    ".radio": ("Radio", "RadioState"),
})
