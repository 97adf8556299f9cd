"""Spatial AP grid: path loss and O(1) strongest-AP candidates.

A :class:`ApGrid` is a regular grid of access points covering the
deployment plane — the same geometry as the fleet's gateway-receiver
grid (:func:`repro.fleet.population._receiver_grid`), reusing the
spatial-index idiom of the fleet listening index
(:class:`repro.sim.medium.WirelessMedium`): sites are bucketed into
spacing-sized cells, and a position's candidate APs are the 3x3 cell
neighbourhood around it. Because the sites form a regular grid with one
site per cell, that neighbourhood always contains the nearest site —
and with uniform transmit power the strongest-RSSI site *is* the
nearest — so candidate lookup is O(1) with a brute-force-identical
answer (pinned by ``tests/test_mobility.py``).

RSSI uses the same log-distance model as the medium
(:func:`repro.phy.pathloss.received_power_dbm`) with the same exponent
and minimum distance clamp (the :mod:`repro.phy.pathloss` constants),
so the AP choices made here and the delivery decisions made by a
full medium simulation can never disagree about path loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..phy.pathloss import (MIN_DISTANCE_M, PATH_LOSS_EXPONENT,
                            received_power_dbm)

#: Default AP transmit power: a mains-powered AP at typical 2.4 GHz
#: regulatory power, the downlink the station measures for selection.
DEFAULT_AP_TX_POWER_DBM = 17.0

#: Default detection threshold: the weakest beacon a scanning station
#: reliably reports (~802.11n 20 MHz sensitivity with margin).
DEFAULT_SENSITIVITY_DBM = -82.0


class GridError(ValueError):
    """Raised for impossible AP-grid configurations."""


@dataclass(frozen=True, slots=True)
class ApSite:
    """One access point: identity and location."""

    ap_id: int
    x_m: float
    y_m: float


@dataclass(frozen=True, slots=True)
class ApGrid:
    """A regular grid of APs with an O(1) spatial candidate index."""

    area_m: tuple[float, float]
    spacing_m: float
    columns: int
    rows: int
    sites: tuple[ApSite, ...]
    tx_power_dbm: float = DEFAULT_AP_TX_POWER_DBM

    @classmethod
    def build(cls, area_m: tuple[float, float], spacing_m: float,
              tx_power_dbm: float = DEFAULT_AP_TX_POWER_DBM) -> "ApGrid":
        """One AP per ``spacing_m`` cell, centred — the same layout rule
        as the fleet's gateway grid, so AP density sweeps and receiver
        density sweeps are directly comparable."""
        width, height = area_m
        if width <= 0 or height <= 0:
            raise GridError(f"area must be positive, got {area_m}")
        if spacing_m <= 0:
            raise GridError(f"spacing must be positive, got {spacing_m}")
        columns = max(1, math.ceil(width / spacing_m))
        rows = max(1, math.ceil(height / spacing_m))
        sites = tuple(
            ApSite(ap_id=row * columns + column,
                   x_m=(column + 0.5) * width / columns,
                   y_m=(row + 0.5) * height / rows)
            for row in range(rows) for column in range(columns))
        return cls(area_m=area_m, spacing_m=spacing_m, columns=columns,
                   rows=rows, sites=sites, tx_power_dbm=tx_power_dbm)

    # -- spatial index ------------------------------------------------------

    def _cell_of(self, x_m: float, y_m: float) -> tuple[int, int]:
        column = min(int(x_m // (self.area_m[0] / self.columns)),
                     self.columns - 1)
        row = min(int(y_m // (self.area_m[1] / self.rows)), self.rows - 1)
        return max(0, column), max(0, row)

    def candidates(self, x_m: float, y_m: float) -> tuple[ApSite, ...]:
        """The 3x3 cell neighbourhood around ``(x, y)`` — always contains
        the nearest (hence strongest) site; O(1) in grid size."""
        column, row = self._cell_of(x_m, y_m)
        return tuple(
            self.sites[r * self.columns + c]
            for r in range(max(0, row - 1), min(self.rows, row + 2))
            for c in range(max(0, column - 1), min(self.columns, column + 2)))

    # -- path loss ----------------------------------------------------------

    def rssi_dbm(self, site: ApSite, x_m: float, y_m: float) -> float:
        """Received downlink power at ``(x, y)`` from ``site``."""
        distance = max(MIN_DISTANCE_M,
                       math.hypot(x_m - site.x_m, y_m - site.y_m))
        return received_power_dbm(self.tx_power_dbm, distance,
                                  exponent=PATH_LOSS_EXPONENT)

    def best(self, x_m: float, y_m: float,
             sensitivity_dbm: float = DEFAULT_SENSITIVITY_DBM,
             ) -> tuple[ApSite, float] | None:
        """Strongest detectable AP at ``(x, y)``, or None (outage).

        Deterministic: ties on RSSI break toward the lower ``ap_id``,
        matching the fleet's nearest-receiver tie rule.
        """
        chosen: ApSite | None = None
        chosen_rssi = -math.inf
        for site in self.candidates(x_m, y_m):
            rssi = self.rssi_dbm(site, x_m, y_m)
            if rssi > chosen_rssi or (rssi == chosen_rssi
                                      and chosen is not None
                                      and site.ap_id < chosen.ap_id):
                chosen, chosen_rssi = site, rssi
        if chosen is None or chosen_rssi < sensitivity_dbm:
            return None
        return chosen, chosen_rssi

    def best_brute(self, x_m: float, y_m: float,
                   sensitivity_dbm: float = DEFAULT_SENSITIVITY_DBM,
                   ) -> tuple[ApSite, float] | None:
        """Full-scan twin of :meth:`best` (the differential reference)."""
        chosen: ApSite | None = None
        chosen_rssi = -math.inf
        for site in self.sites:
            rssi = self.rssi_dbm(site, x_m, y_m)
            if rssi > chosen_rssi or (rssi == chosen_rssi
                                      and chosen is not None
                                      and site.ap_id < chosen.ap_id):
                chosen, chosen_rssi = site, rssi
        if chosen is None or chosen_rssi < sensitivity_dbm:
            return None
        return chosen, chosen_rssi
