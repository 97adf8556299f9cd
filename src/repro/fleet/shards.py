"""Spatial sharding: one fleet, N independent simulators, exact stats.

The deployment plane is cut into vertical strips. Each strip becomes a
:class:`ShardSpec` — a picklable, self-contained description of one
simulation: the strip's own devices and gateway receivers, plus a
**halo** of neighbouring transmitters wide enough to cover every radio
effect that can cross the boundary. Shards fan out over the experiment
process pool (:class:`repro.experiments.runner.ParallelRunner`) and
come back as mergeable :class:`~repro.fleet.aggregate.FleetAggregate`.

Invariance guarantee
--------------------
The halo is :data:`HALO_M`, the larger of the two propagation cutoffs
(:data:`DEFAULT_MAX_RANGE_M`, :data:`DEFAULT_INTERFERENCE_RANGE_M`),
so the sharded run is *exactly* equivalent to the unsharded one:

* a beacon is counted ``sent`` once, in its sender's home shard;
* its delivery outcome is decided once, in the shard owning its
  designated gateway (the nearest receiver — a deterministic, global
  assignment). Any device within the delivery cutoff of a gateway is
  within the halo of that gateway's shard, so the transmission is
  simulated there with the same clock stream, hence at the same
  instant;
* every interferer within the interference cutoff of that gateway is
  in the same halo, so the SINR computation sees the identical set of
  overlapping transmitters (beyond the cutoff the medium contributes
  exactly zero, sharded or not).

Per-device randomness is pre-drawn into the plan's columns, so a halo
copy of a device replays its home-shard behaviour bit for bit. See
``docs/FLEET.md`` for the tolerance discussion (integer counters match
exactly; merged Welford moments to ~1e-9 relative).
"""

from __future__ import annotations

import operator
import os
import traceback
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.payload import SensorKind, SensorReading
from ..dot11.mac import MacAddress
from ..energy import calibration as cal
from ..experiments.runner import fault_point, run_grid
from ..store import ensure_manifest, read_or_quarantine, write_json_atomic
from .aggregate import FleetAggregate
from .population import (DEFAULT_INTERFERENCE_RANGE_M, DEFAULT_MAX_RANGE_M,
                         FLEET_DEVICE_ID_BASE, DeviceSpec, FleetPlan,
                         ReceiverSpec, fields_equal, validate_positions)

#: Width of the boundary halo: every radio effect that can cross a
#: strip boundary reaches at most this far.
HALO_M = max(DEFAULT_MAX_RANGE_M, DEFAULT_INTERFERENCE_RANGE_M)


class ShardError(ValueError):
    """Raised for invalid shard geometry."""


class ShardExecutionError(RuntimeError):
    """One or more shards failed, with full shard context attached.

    Each entry of :attr:`failures` is ``(shard_index, device_range,
    traceback_text)`` — the context a bare pool traceback loses.
    """

    def __init__(self, failures: list[tuple[int, str, str]]) -> None:
        self.failures = failures
        lines = [f"{len(failures)} shard(s) failed:"]
        for index, device_range, text in failures:
            detail = text.strip().splitlines()[-1] if text.strip() else "?"
            lines.append(f"  shard {index} (devices {device_range}): {detail}")
        super().__init__("\n".join(lines))


@dataclass(frozen=True, slots=True, eq=False)
class ShardSpec:
    """One strip of the fleet, ready to simulate in isolation.

    Its members — every device simulated here, owned or halo — are
    column slices of the plan in device-id order; equality compares the
    columns by value.
    """

    index: int
    shard_count: int
    channel: int
    duration_s: float
    #: The fleet-wide beacon interval and clock jitter.
    interval_s: float
    jitter_std_s: float
    device_id: np.ndarray
    x_m: np.ndarray
    y_m: np.ndarray
    first_wake_s: np.ndarray
    drift_ppm: np.ndarray
    clock_seed: np.ndarray
    #: True for the members this shard owns; the rest are halo copies.
    owned: np.ndarray
    receivers: tuple[ReceiverSpec, ...]
    #: ``(device_id, receiver_id)`` rows, in device-id order: the uplink
    #: assignments whose gateway this shard owns — the pairs its
    #: delivery listener scores.
    designated: np.ndarray
    #: Owned device ids whose designated gateway is beyond
    #: :data:`DEFAULT_MAX_RANGE_M` — their beacons count as
    #: out-of-coverage.
    uncovered: np.ndarray
    #: Mobility extension (empty/zero for static plans): position-
    #: sampling period; radios move at integer multiples.
    epoch_s: float = 0.0
    #: Compiled trajectories of the members, in device-id order.
    trajectories: tuple = ()
    #: ``(device_id, gateway_x_m, gateway_y_m)`` for every *owned*
    #: device — the accounting loop scores per-beacon coverage against
    #: the designated gateway's position, since a moving device drifts
    #: in and out of range (the static ``uncovered`` set is the
    #: degenerate, whole-run version of this).
    designated_uplinks: tuple[tuple[int, float, float], ...] = ()

    __eq__ = fields_equal

    def device_specs(self) -> list[DeviceSpec]:
        """The members as :class:`DeviceSpec` objects, in device-id
        order — the event engine's per-device view of this shard."""
        return [DeviceSpec(device_id=device_id, x_m=x_m, y_m=y_m,
                           interval_s=self.interval_s,
                           first_wake_s=first_wake_s, drift_ppm=drift_ppm,
                           jitter_std_s=self.jitter_std_s,
                           clock_seed=clock_seed)
                for device_id, x_m, y_m, first_wake_s, drift_ppm, clock_seed
                in zip(self.device_id.tolist(), self.x_m.tolist(),
                       self.y_m.tolist(), self.first_wake_s.tolist(),
                       self.drift_ppm.tolist(), self.clock_seed.tolist())]


def _owner_of(x_m: np.ndarray, strip_width_m: float,
              shard_count: int) -> np.ndarray:
    return np.minimum(x_m // strip_width_m, shard_count - 1).astype(
        np.min_scalar_type(shard_count - 1))


class _ShardPlan(Sequence):
    """The shards of one plan, each :class:`ShardSpec` built when taken.

    The fleet-wide part of planning — every device's gateway and owner
    strip — runs once, at construction; a spec, the copies of its
    members' columns, exists only while its caller holds it, so a
    caller that takes one shard at a time holds one at a time.
    Indexing, iteration, ``len()`` and ``==`` against a list of specs
    behave as on a list.
    """

    def __init__(self, plan: FleetPlan, shard_count: int) -> None:
        self.plan = plan
        self.shard_count = shard_count
        self.width = plan.config.area_m[0] / shard_count
        receivers = plan.receivers
        self.gateway, distance = plan.nearest_receivers()
        # Static plans pre-filter designated pairs to gateways in range
        # and pre-classify the rest as whole-run uncovered. A mobile
        # device's gateway distance varies per beacon, so its pairs stay
        # unfiltered and coverage is scored per completed record in
        # run_shard against ``designated_uplinks``.
        self.scored = (plan.trajectories is not None) | (
            distance <= DEFAULT_MAX_RANGE_M)
        del distance
        self.receiver_ids = np.array([receiver.receiver_id
                                      for receiver in receivers])
        self.receiver_owner = _owner_of(np.array(
            [receiver.x_m for receiver in receivers]), self.width,
            shard_count)
        self.gateway_owner = self.receiver_owner[self.gateway]
        self.owner = _owner_of(plan.x_m, self.width, shard_count)
        # Halo membership in a mobile plan is by the x-extent the device
        # *ever* visits — a conservative superset of the static rule.
        # Extra halo copies cannot perturb anything: the medium enforces
        # both cutoffs per delivery at current positions, so a copy that
        # is far away at some instant contributes exactly zero then,
        # sharded or not.
        self.low = self.high = plan.x_m
        if plan.trajectories is not None:
            self.low, self.high = np.array([
                trajectory.x_extent(plan.config.duration_s)
                for trajectory in plan.trajectories]).T

    def __len__(self) -> int:
        return self.shard_count

    def __getitem__(self, index: int) -> ShardSpec:
        if isinstance(index, slice):
            raise TypeError("plan_shards returns a lazy sequence; use "
                            "list(...) to slice")
        index = operator.index(index)
        if not -len(self) <= index < len(self):
            raise IndexError(f"shard {index} of {len(self)}")
        return self._shard(index % len(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    def _shard(self, index: int) -> ShardSpec:
        plan = self.plan
        config, receivers = plan.config, plan.receivers
        mobile = plan.trajectories is not None
        gateway, scored = self.gateway, self.scored
        x_min = index * self.width
        x_max = (index + 1) * self.width
        owned = self.owner == index
        members = np.nonzero(owned | ((self.high >= x_min - HALO_M)
                                      & (self.low <= x_max + HALO_M)))[0]
        pairs = members[(self.gateway_owner[members] == index)
                        & scored[members]]
        owned_members = members[owned[members]]
        return ShardSpec(
            index=index, shard_count=self.shard_count,
            channel=config.channel, duration_s=config.duration_s,
            interval_s=config.interval_s, jitter_std_s=config.jitter_std_s,
            device_id=FLEET_DEVICE_ID_BASE + members,
            x_m=plan.x_m[members], y_m=plan.y_m[members],
            first_wake_s=plan.first_wake_s[members],
            drift_ppm=plan.drift_ppm[members],
            clock_seed=plan.clock_seed[members],
            owned=owned[members],
            receivers=tuple(receivers[receiver] for receiver in np.nonzero(
                self.receiver_owner == index)[0].tolist()),
            designated=np.column_stack([
                FLEET_DEVICE_ID_BASE + pairs,
                self.receiver_ids[gateway[pairs]]]),
            uncovered=FLEET_DEVICE_ID_BASE + (
                owned_members[~scored[owned_members]]),
            epoch_s=config.mobility.epoch_s if mobile else 0.0,
            trajectories=tuple(plan.trajectories[member]
                               for member in members.tolist())
            if mobile else (),
            designated_uplinks=tuple(
                (FLEET_DEVICE_ID_BASE + device, receivers[choice].x_m,
                 receivers[choice].y_m)
                for device, choice in zip(owned_members.tolist(),
                                          gateway[owned_members].tolist())
            ) if mobile else ())


def plan_shards(plan: FleetPlan, shard_count: int) -> Sequence[ShardSpec]:
    """Partition ``plan`` into ``shard_count`` vertical strips, each
    with a :data:`HALO_M` halo on both sides.

    Every device's gateway and owner strip are assigned here, for the
    whole fleet at once; each :class:`ShardSpec` is built when it is
    taken from the returned sequence, so a serial run holds one spec at
    a time.
    """
    if shard_count < 1:
        raise ShardError(f"need at least one shard, got {shard_count}")
    validate_positions(plan)
    return _ShardPlan(plan, shard_count)


def _gateway_mac(receiver_id: int) -> MacAddress:
    return MacAddress.parse("02:fe:%02x:%02x:%02x:%02x" % (
        (receiver_id >> 24) & 0xFF, (receiver_id >> 16) & 0xFF,
        (receiver_id >> 8) & 0xFF, receiver_id & 0xFF))


def _steady_reading() -> tuple[SensorReading, ...]:
    """Every wake reports one temperature sample (constant payload so
    frame length — and therefore airtime — is uniform fleet-wide)."""
    return (SensorReading(SensorKind.TEMPERATURE_C, 21.0),)


#: Energy charged per wake on top of the TX window: the 0.35 s boot at
#: the ESP32's boot current (the §5.2 Figure 3b init phase).
_BOOT_ENERGY_J = cal.WILE_BOOT_S * cal.ESP32_BOOT_A * cal.SUPPLY_VOLTAGE_V


def run_shard(shard: ShardSpec) -> FleetAggregate:
    """Simulate one shard to its horizon on the discrete-event engine;
    returns mergeable statistics.

    This is the reference semantics: the vectorized
    :func:`repro.fleet.kernel.run_shard_cohort` (the default engine) is
    checked against it, and falls back to it for shards whose devices
    move. Module-level and picklable-in/picklable-out, so it fans out
    over the experiment process pool unchanged.
    """
    # The event engine loads here, not with this module: the cohort
    # kernel, the default engine, never needs it.
    from ..core.device import WiLEDevice
    from ..sim.engine import Simulator
    from ..sim.medium import Position, WirelessMedium
    from ..sim.radio import Radio

    class GatewayRadio(Radio):
        """A monitor receiver that only counts: the fleet's delivery
        stats come from the medium's delivery reports, so decoding every
        beacon again at every gateway would be pure overhead."""

        def deliver(self, transmission) -> None:
            self.frames_received += 1

    sim = Simulator()
    medium = WirelessMedium(sim, max_range_m=DEFAULT_MAX_RANGE_M,
                            interference_range_m=DEFAULT_INTERFERENCE_RANGE_M)
    stats = FleetAggregate(
        device_count=int(np.count_nonzero(shard.owned)),
        receiver_count=len(shard.receivers),
        shard_count=1,
        duration_s=shard.duration_s)

    gateway_ids: dict[Radio, int] = {}
    for receiver in shard.receivers:
        radio = GatewayRadio(sim, medium, _gateway_mac(receiver.receiver_id),
                             position=receiver.position,
                             channel=shard.channel)
        radio.power_on(monitor=True)
        gateway_ids[radio] = receiver.receiver_id

    sender_ids: dict[Radio, int] = {}
    devices: list[tuple[DeviceSpec, WiLEDevice]] = []
    for spec in shard.device_specs():
        device = WiLEDevice(sim, medium, device_id=spec.device_id,
                            position=spec.position, channel=shard.channel,
                            clock=spec.make_clock())
        device.start(spec.interval_s, _steady_reading,
                     first_wake_s=spec.first_wake_s)
        sender_ids[device.radio] = spec.device_id
        devices.append((spec, device))

    mobile = shard.epoch_s > 0
    trajectories = {trajectory.device_id: trajectory
                    for trajectory in shard.trajectories}
    if mobile:
        # Relocate each moving radio at every epoch boundary where its
        # trajectory's position changes. Scheduled at setup, so a move
        # at t == k*epoch_s fires before any completion at the same
        # instant (insertion order breaks heap ties) — the delivery
        # decision and the per-record accounting below therefore agree
        # on which epoch's position a frame completed at.
        for spec, device in devices:
            trajectory = trajectories.get(spec.device_id)
            if trajectory is None or not trajectory.moves_on_epoch_grid(
                    shard.duration_s):
                continue
            radio = device.radio
            previous = trajectory.epoch_position(0)
            for epoch in range(1, trajectory.epoch_count(shard.duration_s)):
                position = trajectory.epoch_position(epoch)
                if position == previous:
                    continue
                previous = position
                sim.at(epoch * trajectory.epoch_s,
                       lambda radio=radio, position=position:
                       medium.move_radio(radio, Position(*position)))

    designated = frozenset(map(tuple, shard.designated.tolist()))

    def on_delivery(transmission, report) -> None:
        receiver_id = gateway_ids.get(report.receiver)
        if receiver_id is None:
            return  # a device radio overheard; not a gateway decision
        if report.delivered:
            stats.pair_delivered += 1
        elif report.reason == "collision":
            stats.pair_lost_collision += 1
        elif report.reason == "snr":
            stats.pair_lost_snr += 1
        sender_id = sender_ids.get(transmission.sender)
        if sender_id is None or (sender_id, receiver_id) not in designated:
            return
        if report.delivered:
            stats.uplink_delivered += 1
        elif report.reason == "collision":
            stats.uplink_lost_collision += 1
        elif report.reason == "snr":
            stats.uplink_lost_snr += 1

    medium.add_delivery_listener(on_delivery)
    sim.run(until_s=shard.duration_s)

    uncovered = frozenset(shard.uncovered.tolist())
    uplinks = {device_id: Position(x_m, y_m)
               for device_id, x_m, y_m in shard.designated_uplinks}
    for (spec, device), owned in zip(devices, shard.owned.tolist()):
        device.stop()
        if not owned:
            continue  # halo copies are scored by their home shard
        stats.wakes += len(device.transmissions) + device.skipped_wakes
        trajectory = trajectories.get(spec.device_id)
        gateway = uplinks.get(spec.device_id)
        completed = 0
        out_of_range = 0
        energy_j = 0.0
        for record in device.transmissions:
            energy_j += record.energy_j + _BOOT_ENERGY_J
            end_s = record.time_s + record.airtime_s
            if end_s <= shard.duration_s:
                completed += 1
                stats.airtime_s += record.airtime_s
                if mobile and gateway is not None:
                    # Per-beacon coverage: the medium suppressed this
                    # gateway's delivery report iff the sender's
                    # position *at completion* — the epoch it had been
                    # moved to — was beyond the cutoff, so the same
                    # predicate here keeps the conservation identity
                    # (delivered + lost + out_of_range == sent) exact.
                    if trajectory is None:
                        x_m, y_m = spec.x_m, spec.y_m
                    else:
                        x_m, y_m = trajectory.epoch_position(
                            int(end_s // shard.epoch_s))
                    distance = Position(x_m, y_m).distance_to(gateway)
                    if distance > DEFAULT_MAX_RANGE_M:
                        out_of_range += 1
            else:
                stats.beacons_in_flight += 1
        stats.beacons_sent += completed
        stats.uplink_out_of_range += out_of_range
        if spec.device_id in uncovered:
            stats.uplink_out_of_range += completed
        average_current_a = (cal.ESP32_DEEP_SLEEP_A
                             + energy_j / (cal.SUPPLY_VOLTAGE_V
                                           * shard.duration_s))
        stats.energy_j.observe(energy_j)
        stats.avg_current_a.observe(average_current_a)
        stats.current_histogram.observe(average_current_a)
    return stats


def _device_range(shard: ShardSpec) -> str:
    """Human-readable id range of the shard's owned devices."""
    ids = shard.device_id[shard.owned]
    if not ids.size:
        return "none"
    return f"0x{ids.min():08x}..0x{ids.max():08x}"


@dataclass(frozen=True, slots=True)
class ShardTask:
    """One unit of fan-out: a shard plus its execution policy.

    ``checkpoint_dir`` enables shard-level checkpoint/resume: a finished
    shard writes its aggregate (exact state, atomic rename) to
    ``shard_NNNN.json`` and a rerun loads it instead of resimulating —
    so a killed worker costs only its in-flight shards. Checkpoints are
    kernel-agnostic: the cohort kernel produces the same exact state,
    so a resume may switch kernels freely.
    """

    shard: ShardSpec
    checkpoint_dir: str | None = None
    kernel: str = "cohort"


def plan_fingerprint(plan: FleetPlan, shard_count: int) -> dict:
    """The identity of one sharded run, for the checkpoint manifest.

    ``plan_sha256`` digests the plan's device columns and receivers, so
    any config field that shapes the plan — or a hand edit to it —
    changes the identity; ``jitter_std_s`` shapes no column, only the
    clocks built from them, so it is named on its own. The halo and
    the two cutoffs are constants, recorded so a directory written
    under other values is refused rather than merged. ``kernel`` is
    deliberately *not* part of it: checkpoints are kernel-agnostic (the
    cohort kernel produces the same exact state), so a resume may switch
    kernels — the manifest records the kernel informationally only.
    """
    import hashlib
    config = plan.config
    digest = hashlib.sha256()
    for column in (plan.x_m, plan.y_m, plan.first_wake_s, plan.drift_ppm,
                   plan.clock_seed,
                   np.array([(receiver.receiver_id, receiver.x_m,
                              receiver.y_m) for receiver in plan.receivers])):
        digest.update(np.ascontiguousarray(column).tobytes())
    return {
        "seed": config.seed,
        "device_count": len(plan.x_m),
        "receiver_count": len(plan.receivers),
        "shard_count": shard_count,
        "duration_s": config.duration_s,
        "interval_s": config.interval_s,
        "jitter_std_s": config.jitter_std_s,
        "area_m": list(config.area_m),
        "layout": config.layout,
        "start": config.start,
        "channel": config.channel,
        "halo_m": HALO_M,
        "max_range_m": DEFAULT_MAX_RANGE_M,
        "interference_range_m": DEFAULT_INTERFERENCE_RANGE_M,
        # None for static plans — matching manifests written before the
        # key existed, whose .get("mobility") is also None.
        "mobility": repr(config.mobility) if config.mobility else None,
        "plan_sha256": digest.hexdigest(),
    }


def _checkpoint_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"shard_{index:04d}.json")


def _shard_engine(kernel: str):
    """The shard engine named ``kernel``: ``cohort`` or ``event``."""
    from .kernel import KernelError, run_shard_cohort
    if kernel == "cohort":
        return run_shard_cohort
    if kernel == "event":
        return run_shard
    raise KernelError(f"unknown kernel {kernel!r}; choose 'cohort' or "
                      f"'event'")


def _run_shard_task(task: ShardTask) -> tuple:
    """Worker-side wrapper: checkpoint lookup, the ``"fleet.shard"``
    fault point (keyed by shard index), and failure capture with shard
    context.

    Returns ``("ok", index, aggregate_state)`` or ``("failed", index,
    device_range, traceback_text)`` — exceptions never cross the pool
    boundary raw, so the parent always knows *which* shard broke.
    """
    shard = task.shard
    index = shard.index
    if task.checkpoint_dir is not None:
        # A corrupt or truncated checkpoint (killed writer, disk
        # hiccup) is quarantined, never raised raw across the pool
        # boundary: the shard recomputes and rewrites it.
        aggregate = read_or_quarantine(
            _checkpoint_path(task.checkpoint_dir, index),
            FleetAggregate.from_state)
        if aggregate is not None:
            return ("ok", index, aggregate.to_state())
    fault_point("fleet.shard", index)
    try:
        aggregate = _shard_engine(task.kernel)(shard)
    except Exception:
        return ("failed", index, _device_range(shard),
                traceback.format_exc())
    state = aggregate.to_state()
    if task.checkpoint_dir is not None:
        write_json_atomic(_checkpoint_path(task.checkpoint_dir, index),
                          state)
    return ("ok", index, state)


def run_sharded_fleet(plan: FleetPlan, shard_count: int = 1,
                      workers: int = 1, checkpoint_dir: str | None = None,
                      kernel: str = "cohort",
                      ) -> FleetAggregate:
    """Shard ``plan``, fan the shards over the pool, merge the results.

    ``kernel`` picks every shard's engine: ``cohort`` (the default) runs
    the vectorized :func:`repro.fleet.kernel.run_shard_cohort`,
    ``event`` the discrete-event :func:`run_shard` it is checked
    against. Both produce the same aggregate.

    With ``checkpoint_dir`` set, completed shards persist their exact
    aggregate state through :mod:`repro.store`; a worker killed mid-run
    loses only unfinished shards (the pool resubmits them, loading
    checkpoints where present), and a whole rerun of the same plan
    resumes instead of restarting. The directory is fingerprinted with
    a ``manifest.json`` on first use and a rerun against a different
    plan raises :class:`repro.store.CheckpointMismatchError` instead of
    silently merging stale aggregates; corrupt/truncated shard files
    are quarantined to ``*.corrupt`` and their shards recomputed.
    Shard failures raise :class:`ShardExecutionError` carrying (shard
    index, device range, worker traceback) per failure, and increment
    the ``fleet.shard_failures`` counter in :data:`repro.obs.metrics.
    METRICS`.
    """
    _shard_engine(kernel)  # fail fast on a bad name, before fan-out
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        ensure_manifest(
            checkpoint_dir, plan_fingerprint(plan, shard_count),
            holds_checkpoints=any(
                name.startswith("shard_") and name.endswith(".json")
                for name in os.listdir(checkpoint_dir)),
            kernel=kernel)
    # A generator: the serial run builds each spec as its turn comes and
    # drops it once the shard's state is back; a pool takes them all.
    tasks = (ShardTask(shard=shard, checkpoint_dir=checkpoint_dir,
                       kernel=kernel)
             for shard in plan_shards(plan, shard_count))
    outcomes = run_grid(_run_shard_task, tasks, workers=workers)
    failures: list[tuple[int, str, str]] = []
    states: list[tuple[int, dict]] = []
    for outcome in outcomes:
        if outcome[0] == "ok":
            states.append((outcome[1], outcome[2]))
        else:
            failures.append((outcome[1], outcome[2], outcome[3]))
    if failures:
        from ..obs.metrics import METRICS
        METRICS.counter("fleet.shard_failures").inc(len(failures))
        raise ShardExecutionError(failures)
    total = FleetAggregate()
    for _index, state in sorted(states, key=lambda item: item[0]):
        total.merge(FleetAggregate.from_state(state))
    return total
