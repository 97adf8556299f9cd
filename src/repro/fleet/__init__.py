"""Fleet-scale Wi-LE simulation: 10,000+ devices via spatial sharding.

The paper's §6 "network of IoT devices" argument is evaluated at tens of
devices in :mod:`repro.experiments.multi_device`; this package scales
the same physics to city-block deployments. Three layers:

* :mod:`repro.fleet.population` — deterministic fleet generation:
  spatial layouts, crystal/ppm diversity, per-device wake phases and
  intervals, a grid of monitor-mode gateway receivers;
* :mod:`repro.fleet.shards` — spatial sharding: the deployment plane is
  cut into strips, each simulated by its own ``Simulator`` +
  ``WirelessMedium`` with a boundary halo of neighbouring transmitters
  at least one propagation range wide, so cross-shard collisions are
  modelled exactly and shards fan out over the experiment process pool;
* :mod:`repro.fleet.aggregate` — streaming, mergeable statistics
  (Welford summaries, collision/delivery counters, energy histograms)
  so shards never ship per-beacon traces to the parent.

The headline guarantee: running the same seeded fleet with 1 shard or N
shards produces identical aggregate collision/delivery/energy counters
(see ``docs/FLEET.md`` for why, and for the exact tolerance on the
floating-point moments).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".aggregate": (
        "AggregateError", "FleetAggregate", "MergeableHistogram",
        "counters_equal", "moments_close",
    ),
    ".population": (
        "DeviceSpec", "FleetConfig", "FleetError", "FleetPlan", "ReceiverSpec",
        "generate_fleet",
    ),
    "..store": ("CheckpointError", "CheckpointMismatchError"),
    ".shards": (
        "DEFAULT_INTERFERENCE_RANGE_M", "DEFAULT_MAX_RANGE_M", "ShardError",
        "ShardExecutionError", "ShardSpec", "ShardTask", "plan_fingerprint",
        "plan_shards", "run_shard", "run_sharded_fleet",
    ),
    ".kernel": ("KernelError", "KernelStats", "run_shard_cohort"),
})
