"""Discrete-event simulation substrate: engine, clocks, medium, radios."""

from .clock import ClockError, JitteryClock, crystal_draws, crystal_population
from .engine import EventHandle, PeriodicTask, SimulationError, Simulator
from .medium import (
    DeliveryReport,
    MediumError,
    Position,
    Transmission,
    WirelessMedium,
)
from .radio import Radio, RadioState

__all__ = [name for name in dir() if not name.startswith("_")]
