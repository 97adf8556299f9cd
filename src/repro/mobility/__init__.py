"""repro.mobility — moving devices, AP grids, and handoff policies.

The mobility subsystem quantifies the paper's structural claim: Wi-LE's
connection-less beacon injection makes AP changes free, while WiFi-PS /
WiFi-DC replay the full §3.1 re-association (20 MAC + 7 higher-layer
frames) and BLE re-pairs on every move. Three layers:

* :mod:`.trajectories` — seeded, deterministic motion models sampled on
  an epoch grid (bit-identical per seed via the blake2b stable-draw
  discipline shared with :mod:`repro.faults`);
* :mod:`.grid` — spatial AP grids with O(1) strongest-AP lookup;
* :mod:`.handoff` — AP-selection policies plus the per-technology
  handoff cost model, replayed through the real protocol machines.

See ``docs/MOBILITY.md`` for the model and sweep usage.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".grid": (
        "DEFAULT_AP_TX_POWER_DBM", "DEFAULT_SENSITIVITY_DBM", "ApGrid",
        "ApSite", "GridError",
    ),
    ".handoff": (
        "HANDOFF_TECHNOLOGIES", "POLICY_KINDS", "DeviceMobilityStats",
        "HandoffCost", "HandoffError", "HandoffPolicy", "reassociation_cost",
        "walk_trajectory",
    ),
    ".trajectories": (
        "MOBILITY_MODELS", "MobilityConfig", "MobilityError", "Trajectory",
        "build_trajectories", "build_trajectory",
    ),
}, submodules_in_all=False)
