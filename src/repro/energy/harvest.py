"""RF-energy harvesting: income traces, a capacitor bank, gated reports.

"Powering the Next Billion Devices with Wi-Fi" (arxiv 1505.06815)
demonstrates far-field RF harvesting delivering uW-class DC power into
a capacitor; BEH (arxiv 1911.03381) runs batteryless beacons whose duty
cycle is gated by that store. This module models the chain:

* :class:`EnergyIncomeTrace` — a seeded piecewise-linear harvested-power
  profile (W over time). Every breakpoint is drawn with the repo's
  blake2b :func:`~repro.faults.plan.stable_uniform` discipline, so a
  trace is a pure function of its seed — identical serial, parallel, or
  resumed;
* :class:`CapacitorBank` — the energy store, with exact accounting of
  harvest, leakage, load draws and overflow spill. The books balance to
  the charge-conservation tolerance (:func:`repro.obs.audit.
  audit_harvest` enforces ``initial + harvested == stored + leaked +
  loaded + spilled``);
* :func:`run_harvest_policy` — the harvest-gated duty cycle: at each
  report epoch the node transmits only if the stored energy covers the
  *full* wake cost (boot + TX, nothing on credit); otherwise the report
  is missed and counted. Brownout faults drain the store and reset the
  report state, modelling the interaction the resilience sweep probes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from ..faults.plan import stable_uniform
from . import calibration as cal


class HarvestError(ValueError):
    """Raised for physically meaningless harvesting parameters."""


# ---------------------------------------------------------------------------
# Income traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EnergyIncomeTrace:
    """Piecewise-linear harvested DC power over time.

    ``times_s`` are strictly increasing breakpoints starting at 0;
    ``powers_w`` the non-negative power at each breakpoint. Between
    breakpoints the power interpolates linearly; beyond the last
    breakpoint it holds the final value. ``energy_j`` integrates
    exactly (trapezoids), which is what makes the conservation audit a
    bit-level cross-check rather than a tolerance call.
    """

    times_s: tuple[float, ...]
    powers_w: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times_s) != len(self.powers_w) or not self.times_s:
            raise HarvestError("need matching, non-empty breakpoint lists")
        if self.times_s[0] != 0.0:
            raise HarvestError("income traces start at t=0")
        if any(later <= earlier for earlier, later
               in zip(self.times_s, self.times_s[1:])):
            raise HarvestError("breakpoints must strictly increase")
        if any(power < 0 or not math.isfinite(power)
               for power in self.powers_w):
            raise HarvestError("harvested power must be finite and >= 0")

    @classmethod
    def zero(cls) -> "EnergyIncomeTrace":
        """The no-income trace (a node out of RF range)."""
        return cls(times_s=(0.0,), powers_w=(0.0,))

    @classmethod
    def constant(cls, power_w: float) -> "EnergyIncomeTrace":
        return cls(times_s=(0.0,), powers_w=(power_w,))

    @classmethod
    def seeded(cls, seed: int, duration_s: float,
               mean_power_w: float = cal.HARVEST_INCOME_MEAN_W,
               segment_s: float = 120.0) -> "EnergyIncomeTrace":
        """A deterministic random income profile.

        Breakpoints every ``segment_s``; each power level is an
        independent uniform draw on [0, 2 * mean] keyed on
        ``("harvest-income", seed, index)`` via the blake2b
        :func:`~repro.faults.plan.stable_uniform` discipline — no
        process-global RNG, so the trace is a pure function of the seed.
        """
        if duration_s <= 0 or segment_s <= 0:
            raise HarvestError("duration and segment must be positive")
        if mean_power_w < 0:
            raise HarvestError("mean harvested power must be >= 0")
        count = max(2, int(math.ceil(duration_s / segment_s)) + 1)
        times = tuple(index * segment_s for index in range(count))
        powers = tuple(
            2.0 * mean_power_w * stable_uniform("harvest-income", seed, index)
            for index in range(count))
        return cls(times_s=times, powers_w=powers)

    def scaled(self, factor: float) -> "EnergyIncomeTrace":
        """The same profile with every power multiplied by ``factor``."""
        if factor < 0:
            raise HarvestError("scale factor must be >= 0")
        return EnergyIncomeTrace(
            times_s=self.times_s,
            powers_w=tuple(power * factor for power in self.powers_w))

    def power_w(self, time_s: float) -> float:
        """Instantaneous harvested power (clamped to the trace ends)."""
        if time_s <= self.times_s[0]:
            return self.powers_w[0]
        if time_s >= self.times_s[-1]:
            return self.powers_w[-1]
        index = bisect.bisect_right(self.times_s, time_s) - 1
        t0, t1 = self.times_s[index], self.times_s[index + 1]
        p0, p1 = self.powers_w[index], self.powers_w[index + 1]
        return p0 + (p1 - p0) * (time_s - t0) / (t1 - t0)

    def energy_j(self, t0_s: float, t1_s: float) -> float:
        """Exact integral of the piecewise-linear power over [t0, t1]."""
        if t1_s < t0_s:
            raise HarvestError(f"bad integration window [{t0_s}, {t1_s}]")
        if t1_s == t0_s:
            return 0.0
        # Walk the breakpoints inside the window; each span integrates
        # as a trapezoid of its endpoint powers.
        total = 0.0
        cursor = t0_s
        start = bisect.bisect_right(self.times_s, t0_s)
        for index in range(start, len(self.times_s)):
            breakpoint_s = self.times_s[index]
            if breakpoint_s >= t1_s:
                break
            total += ((self.power_w(cursor) + self.power_w(breakpoint_s))
                      / 2.0 * (breakpoint_s - cursor))
            cursor = breakpoint_s
        total += (self.power_w(cursor) + self.power_w(t1_s)) / 2.0 \
            * (t1_s - cursor)
        return total


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class CapacitorBank:
    """An energy store with audited harvest/leak/load/spill accounting.

    Every joule that crosses the boundary lands in exactly one ledger:
    ``harvested_j`` (income captured, including what later spills),
    ``leaked_j`` (self-discharge), ``loaded_j`` (draws that succeeded),
    ``spilled_j`` (income arriving with the bank full). The store is
    clamped to [0, capacity]; conservation —
    ``initial + harvested == store + leaked + loaded + spilled`` —
    is the invariant :func:`repro.obs.audit.audit_harvest` checks.
    """

    def __init__(self, capacity_j: float = cal.HARVEST_CAP_CAPACITY_J,
                 initial_j: float = cal.HARVEST_CAP_INITIAL_J,
                 leak_w: float = cal.HARVEST_CAP_LEAK_W) -> None:
        if capacity_j <= 0:
            raise HarvestError("capacity must be positive")
        if not 0 <= initial_j <= capacity_j:
            raise HarvestError(
                f"initial charge {initial_j} J must fit in the "
                f"{capacity_j} J bank")
        if leak_w < 0:
            raise HarvestError("leakage must be >= 0")
        self.capacity_j = capacity_j
        self.initial_j = initial_j
        self.leak_w = leak_w
        self.store_j = initial_j
        self.harvested_j = 0.0
        self.leaked_j = 0.0
        self.loaded_j = 0.0
        self.spilled_j = 0.0
        self.min_store_j = initial_j
        self.max_store_j = initial_j

    def _note_store(self) -> None:
        self.min_store_j = min(self.min_store_j, self.store_j)
        self.max_store_j = max(self.max_store_j, self.store_j)

    def advance(self, duration_s: float, income_j: float) -> None:
        """Integrate ``duration_s`` of leakage and ``income_j`` of harvest.

        Leakage is bounded by what the store actually holds plus what
        arrives during the span (a dead-flat bank cannot leak energy it
        never had); income beyond the remaining headroom spills.
        """
        if duration_s < 0 or income_j < 0:
            raise HarvestError("negative advance makes no sense")
        self.harvested_j += income_j
        available = self.store_j + income_j
        leak = min(self.leak_w * duration_s, available)
        self.leaked_j += leak
        level = available - leak
        if level > self.capacity_j:
            self.spilled_j += level - self.capacity_j
            level = self.capacity_j
        self.store_j = level
        self._note_store()

    def try_draw(self, cost_j: float) -> bool:
        """Atomically draw ``cost_j`` if — and only if — it is covered."""
        if cost_j < 0:
            raise HarvestError("negative draw makes no sense")
        if self.store_j < cost_j:
            return False
        self.store_j -= cost_j
        self.loaded_j += cost_j
        self._note_store()
        return True

    def drain(self, cost_j: float) -> float:
        """Forcibly draw up to ``cost_j`` (brownout path); returns taken."""
        if cost_j < 0:
            raise HarvestError("negative drain makes no sense")
        taken = min(self.store_j, cost_j)
        self.store_j -= taken
        self.loaded_j += taken
        self._note_store()
        return taken

    def conservation_error_j(self) -> float:
        """|initial + harvested - (store + leaked + loaded + spilled)|."""
        books = math.fsum((self.store_j, self.leaked_j, self.loaded_j,
                           self.spilled_j))
        return abs(math.fsum((self.initial_j, self.harvested_j)) - books)


# ---------------------------------------------------------------------------
# The harvest-gated duty cycle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HarvestRun:
    """Accounting of one harvest-gated run, ready for the audit.

    ``attempts == transmitted + missed`` and ``loaded_j ==
    transmitted * wake_cost_j + brownout_drain_j`` are the report-side
    invariants; the bank-side conservation identity travels in the
    ledger fields. Frozen and picklable so runs cross the process pool.
    """

    horizon_s: float
    report_interval_s: float
    wake_cost_j: float
    capacity_j: float
    initial_j: float
    attempts: int
    transmitted: int
    missed: int
    brownouts: int
    brownout_drain_j: float
    harvested_j: float
    leaked_j: float
    loaded_j: float
    spilled_j: float
    final_store_j: float
    min_store_j: float
    max_store_j: float

    @property
    def delivery_ratio(self) -> float:
        """Fraction of scheduled reports that actually left the antenna."""
        if self.attempts == 0:
            return 1.0
        return self.transmitted / self.attempts

    def conservation_error_j(self) -> float:
        books = math.fsum((self.final_store_j, self.leaked_j, self.loaded_j,
                           self.spilled_j))
        return abs(math.fsum((self.initial_j, self.harvested_j)) - books)


def run_harvest_policy(income: EnergyIncomeTrace,
                       bank: CapacitorBank | None = None,
                       wake_cost_j: float = 0.0542,
                       report_interval_s: float = cal.HARVEST_REPORT_INTERVAL_S,
                       horizon_s: float = cal.HARVEST_HORIZON_S,
                       brownout_times_s: tuple[float, ...] = (),
                       brownout_cost_j: float | None = None) -> HarvestRun:
    """Run the harvest-gated duty cycle over ``horizon_s``.

    At every multiple of ``report_interval_s`` the node wakes *only* if
    the bank covers the full ``wake_cost_j`` (boot + TX — the gate is
    all-or-nothing, there is no partial transmission); a report the
    store cannot fund is missed, not deferred. Brownout faults at
    ``brownout_times_s`` forcibly drain up to ``brownout_cost_j``
    (default: one wake cost — the state lost and re-derived, mirroring
    the fleet's reboot energy accounting) without producing a report.

    The walk processes epochs and brownouts in one merged time order,
    advancing the bank with the exact trapezoid income integral between
    events, so the accounting is deterministic and closes exactly.
    """
    if report_interval_s <= 0 or horizon_s <= 0:
        raise HarvestError("interval and horizon must be positive")
    if wake_cost_j <= 0:
        raise HarvestError("wake cost must be positive")
    bank = bank if bank is not None else CapacitorBank()
    if brownout_cost_j is None:
        brownout_cost_j = wake_cost_j
    if any(t < 0 for t in brownout_times_s):
        raise HarvestError("brownout times must be >= 0")

    events: list[tuple[float, int, str]] = []
    epoch = report_interval_s
    while epoch <= horizon_s + 1e-12:
        events.append((epoch, 1, "report"))
        epoch += report_interval_s
    for time_s in brownout_times_s:
        if time_s <= horizon_s:
            # Brownouts sort ahead of a co-timed report: state is lost
            # before the wake fires.
            events.append((time_s, 0, "brownout"))
    events.sort()

    attempts = transmitted = missed = brownouts = 0
    brownout_drain_j = 0.0
    cursor = 0.0
    for time_s, _priority, kind in events:
        if time_s > cursor:
            bank.advance(time_s - cursor, income.energy_j(cursor, time_s))
            cursor = time_s
        if kind == "report":
            attempts += 1
            if bank.try_draw(wake_cost_j):
                transmitted += 1
            else:
                missed += 1
        else:
            brownouts += 1
            brownout_drain_j += bank.drain(brownout_cost_j)
    if horizon_s > cursor:
        bank.advance(horizon_s - cursor, income.energy_j(cursor, horizon_s))

    return HarvestRun(
        horizon_s=horizon_s,
        report_interval_s=report_interval_s,
        wake_cost_j=wake_cost_j,
        capacity_j=bank.capacity_j,
        initial_j=bank.initial_j,
        attempts=attempts,
        transmitted=transmitted,
        missed=missed,
        brownouts=brownouts,
        brownout_drain_j=brownout_drain_j,
        harvested_j=bank.harvested_j,
        leaked_j=bank.leaked_j,
        loaded_j=bank.loaded_j,
        spilled_j=bank.spilled_j,
        final_store_j=bank.store_j,
        min_store_j=bank.min_store_j,
        max_store_j=bank.max_store_j)
