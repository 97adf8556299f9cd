"""Deterministic fleet generation: who is where, with which crystal.

A fleet is fully described by a :class:`FleetConfig`; expanding it with
:func:`generate_fleet` is pure — the same config always yields the same
:class:`FleetPlan`, device by device. Every stochastic property a device
has (position, crystal ppm error, wake phase, per-wake jitter seed) is
frozen into its :class:`DeviceSpec` at generation time, *before* any
shard assignment happens. That ordering is what makes the sharded
runner testable: a device behaves identically whether it is simulated
in its home shard or as a halo transmitter in a neighbour, because
every random draw it will ever make is determined by its spec alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ..mobility.trajectories import MobilityConfig, Trajectory, build_trajectories
from ..sim import JitteryClock, Position, crystal_draws

#: Device ids start here so fleet devices never collide with the small
#: experiments' 0x100-range ids in mixed traces.
FLEET_DEVICE_ID_BASE = 0x10000

_LAYOUTS = ("uniform", "grid", "clusters")
_STARTS = ("staggered", "synchronised")


class FleetError(ValueError):
    """Raised for impossible fleet configurations."""


@dataclass(frozen=True, slots=True)
class FleetConfig:
    """Everything needed to (re)generate a fleet deterministically.

    Args:
        device_count: number of Wi-LE sensor nodes.
        area_m: deployment plane (width, height) in metres.
        interval_s: nominal beacon period shared by the fleet.
        duration_s: simulated horizon.
        layout: ``uniform`` (random scatter), ``grid`` (regular mesh) or
            ``clusters`` (gaussian blobs around random centres — dense
            rooms in a building).
        cluster_count: number of blobs for the ``clusters`` layout.
        cluster_std_m: blob standard deviation.
        start: ``staggered`` draws each device's first wake uniformly in
            one interval (steady state); ``synchronised`` wakes everyone
            at exactly one interval — §6's worst case.
        drift_std_ppm / jitter_std_s: crystal population parameters,
            drawn and checked by :func:`repro.sim.crystal_draws`.
        receiver_spacing_m: pitch of the square grid of monitor-mode
            gateway receivers covering the area. The 14 m default gives
            each grid cell a half-diagonal of 9.9 m, inside Wi-LE's
            ~12 m delivery boundary at MCS7 / 0 dBm, so every device is
            in range of its designated gateway.
        channel: WiFi channel the whole fleet injects on.
        seed: master seed for every draw above.
        mobility: optional :class:`repro.mobility.MobilityConfig`. When
            set, every device gets a deterministic trajectory compiled
            from its placed position, and the fleet runner moves radios
            at epoch boundaries. ``None`` (default) is the static fleet.
    """

    device_count: int = 10_000
    area_m: tuple[float, float] = (500.0, 500.0)
    interval_s: float = 600.0
    duration_s: float = 24 * 3600.0
    layout: str = "uniform"
    cluster_count: int = 16
    cluster_std_m: float = 8.0
    start: str = "staggered"
    drift_std_ppm: float = 50.0
    jitter_std_s: float = 2e-3
    receiver_spacing_m: float = 14.0
    channel: int = 6
    seed: int = 0
    mobility: MobilityConfig | None = None

    def __post_init__(self) -> None:
        if self.device_count < 1:
            raise FleetError(f"need at least one device, got {self.device_count}")
        if self.area_m[0] <= 0 or self.area_m[1] <= 0:
            raise FleetError(f"area must be positive, got {self.area_m}")
        if self.interval_s <= 0:
            raise FleetError(f"interval must be positive, got {self.interval_s}")
        if self.duration_s <= 0:
            raise FleetError(f"duration must be positive, got {self.duration_s}")
        if self.layout not in _LAYOUTS:
            raise FleetError(f"unknown layout {self.layout!r}; "
                             f"choose from {_LAYOUTS}")
        if self.start not in _STARTS:
            raise FleetError(f"unknown start mode {self.start!r}; "
                             f"choose from {_STARTS}")
        if self.cluster_count < 1:
            raise FleetError("need at least one cluster")
        if self.receiver_spacing_m <= 0:
            raise FleetError("receiver spacing must be positive")
        if self.mobility is not None and not isinstance(self.mobility,
                                                        MobilityConfig):
            raise FleetError("mobility must be a MobilityConfig or None")


@dataclass(frozen=True, slots=True)
class DeviceSpec:
    """One device's immutable identity: all its randomness, pre-drawn."""

    device_id: int
    x_m: float
    y_m: float
    interval_s: float
    first_wake_s: float
    drift_ppm: float
    jitter_std_s: float
    clock_seed: int

    @property
    def position(self) -> Position:
        return Position(self.x_m, self.y_m)

    def make_clock(self) -> JitteryClock:
        """A fresh clock whose jitter stream replays identically."""
        return JitteryClock(drift_ppm=self.drift_ppm,
                            jitter_std_s=self.jitter_std_s,
                            seed=self.clock_seed)


@dataclass(frozen=True, slots=True)
class ReceiverSpec:
    """One monitor-mode gateway receiver."""

    receiver_id: int
    x_m: float
    y_m: float

    @property
    def position(self) -> Position:
        return Position(self.x_m, self.y_m)


@dataclass(frozen=True, slots=True)
class FleetPlan:
    """The expanded fleet: config plus every device and receiver spec.

    ``trajectories`` is populated iff ``config.mobility`` is set — one
    compiled :class:`~repro.mobility.Trajectory` per device, in device
    order, each starting at the device's placed position.
    """

    config: FleetConfig
    devices: tuple[DeviceSpec, ...]
    receivers: tuple[ReceiverSpec, ...]
    receiver_columns: int
    receiver_rows: int
    trajectories: tuple[Trajectory, ...] | None = None

    def trajectory_of(self, device: DeviceSpec) -> Trajectory | None:
        """The device's compiled motion, or None in a static plan."""
        if self.trajectories is None:
            return None
        index = device.device_id - FLEET_DEVICE_ID_BASE
        return self.trajectories[index]

    def nearest_receiver(self, device: DeviceSpec) -> ReceiverSpec:
        """The device's designated uplink gateway (deterministic:
        smallest distance, ties broken by receiver id).

        The receivers form a regular grid, so the nearest one is always
        in the 3x3 neighbourhood of the cell containing the device —
        O(1) instead of scanning all receivers, which matters when
        planning shards for thousands of devices.
        """
        width, height = self.config.area_m
        columns, rows = self.receiver_columns, self.receiver_rows
        column = min(int(device.x_m // (width / columns)), columns - 1)
        row = min(int(device.y_m // (height / rows)), rows - 1)
        candidates = (
            self.receivers[r * columns + c]
            for r in range(max(0, row - 1), min(rows, row + 2))
            for c in range(max(0, column - 1), min(columns, column + 2)))
        return min(candidates,
                   key=lambda receiver: (
                       device.position.distance_to(receiver.position),
                       receiver.receiver_id))


def validate_positions(plan: FleetPlan) -> None:
    """Reject devices or receivers placed outside the configured area.

    The spatial listening index and the 3x3 ``nearest_receiver`` lookup
    both assume positions inside ``config.area_m``; an out-of-bounds
    position silently lands in a clamped edge cell and produces
    distances the index never scans. Generated plans are in-bounds by
    construction — this guards hand-built or mutated plans at the shard
    planner's front door.
    """
    width, height = plan.config.area_m
    for device in plan.devices:
        if not (0.0 <= device.x_m <= width and 0.0 <= device.y_m <= height):
            raise FleetError(
                f"device 0x{device.device_id:x} at "
                f"({device.x_m}, {device.y_m}) is outside the "
                f"{width} x {height} m area")
    for receiver in plan.receivers:
        if not (0.0 <= receiver.x_m <= width
                and 0.0 <= receiver.y_m <= height):
            raise FleetError(
                f"receiver {receiver.receiver_id} at "
                f"({receiver.x_m}, {receiver.y_m}) is outside the "
                f"{width} x {height} m area")


def _uniform_stream(seed_key: str, count: int) -> np.ndarray:
    """The first ``count`` outputs of ``random.Random(seed_key).random()``,
    produced as one numpy batch.

    CPython's generator and numpy's legacy ``RandomState`` are the same
    Mersenne Twister, and both derive doubles with ``genrand_res53``, so
    transplanting the seeded state makes the batched stream bit-identical
    to the scalar one — the vectorized placement below stays exactly
    per-seed reproducible (pinned by ``tests/test_fleet.py``).
    """
    state = random.Random(seed_key).getstate()
    keys = np.array(state[1][:-1], dtype=np.uint32)
    legacy = np.random.RandomState()
    legacy.set_state(("MT19937", keys, state[1][-1], 0, 0.0))
    return legacy.random_sample(count)


def _positions_reference(config: FleetConfig,
                         rng: random.Random) -> list[tuple[float, float]]:
    """The original scalar placement loops — kept as the differential
    twin for :func:`_positions` (same draws, one at a time)."""
    width, height = config.area_m
    count = config.device_count
    if config.layout == "uniform":
        return [(rng.uniform(0.0, width), rng.uniform(0.0, height))
                for _ in range(count)]
    if config.layout == "grid":
        columns = max(1, round(math.sqrt(count * width / height)))
        rows = math.ceil(count / columns)
        return [(((index % columns) + 0.5) * width / columns,
                 ((index // columns) + 0.5) * height / rows)
                for index in range(count)]
    centres = [(rng.uniform(0.0, width), rng.uniform(0.0, height))
               for _ in range(config.cluster_count)]
    positions = []
    for index in range(count):
        cx, cy = centres[index % len(centres)]
        positions.append((
            min(max(rng.gauss(cx, config.cluster_std_m), 0.0), width),
            min(max(rng.gauss(cy, config.cluster_std_m), 0.0), height)))
    return positions


def _positions(config: FleetConfig) -> list[tuple[float, float]]:
    """Vectorized device placement, bit-identical per seed to
    :func:`_positions_reference`.

    The uniform stream is batched (:func:`_uniform_stream`); every
    arithmetic step then mirrors the scalar code with IEEE-exact numpy
    elementwise ops (multiply, add, min/max). The ``clusters`` layout
    needs ``cos``/``sin``/``log`` — transcendentals whose vectorized
    rounding is not guaranteed to match libm's — so those few calls stay
    scalar ``math`` while everything around them is batched.
    """
    width, height = config.area_m
    count = config.device_count
    if config.layout == "grid":
        index = np.arange(count)
        columns = max(1, round(math.sqrt(count * width / height)))
        rows = math.ceil(count / columns)
        x = ((index % columns) + 0.5) * width / columns
        y = ((index // columns) + 0.5) * height / rows
        return list(zip(x.tolist(), y.tolist()))
    if config.layout == "uniform":
        # rng.uniform(0.0, w) is exactly 0.0 + (w - 0.0) * rng.random();
        # draws interleave x, y per device.
        draws = _uniform_stream(f"{config.seed}-positions", 2 * count)
        x = width * draws[0::2]
        y = height * draws[1::2]
        return list(zip(x.tolist(), y.tolist()))
    # clusters: 2 uniforms per centre, then one gauss pair per device.
    # CPython's gauss caches the second Box-Muller value, and each device
    # consumes exactly two, so the pairing never straddles devices:
    #   z1 = cos(u1*2pi)*g2rad, z2 = sin(u1*2pi)*g2rad,
    #   g2rad = sqrt(-2*log(1 - u2)).
    cluster_count = config.cluster_count
    std = config.cluster_std_m
    draws = _uniform_stream(f"{config.seed}-positions",
                            2 * cluster_count + 2 * count)
    centre_x = width * draws[0:2 * cluster_count:2]
    centre_y = height * draws[1:2 * cluster_count:2]
    u1 = draws[2 * cluster_count::2]
    u2 = draws[2 * cluster_count + 1::2]
    x2pi = u1 * (2.0 * math.pi)
    one_minus = (1.0 - u2).tolist()
    g2rad = np.sqrt(-2.0 * np.array([math.log(value)
                                     for value in one_minus]))
    cos_part = np.array([math.cos(value) for value in x2pi.tolist()])
    sin_part = np.array([math.sin(value) for value in x2pi.tolist()])
    which = np.arange(count) % cluster_count
    x = np.minimum(np.maximum(centre_x[which] + cos_part * g2rad * std,
                              0.0), width)
    y = np.minimum(np.maximum(centre_y[which] + sin_part * g2rad * std,
                              0.0), height)
    return list(zip(x.tolist(), y.tolist()))


def _receiver_grid(config: FleetConfig) -> tuple[tuple[ReceiverSpec, ...], int, int]:
    """A square grid of gateways, one per ``receiver_spacing_m`` cell,
    centred in each cell; at least one even for tiny areas."""
    width, height = config.area_m
    spacing = config.receiver_spacing_m
    columns = max(1, math.ceil(width / spacing))
    rows = max(1, math.ceil(height / spacing))
    receivers = []
    for row in range(rows):
        for column in range(columns):
            receivers.append(ReceiverSpec(
                receiver_id=row * columns + column,
                x_m=(column + 0.5) * width / columns,
                y_m=(row + 0.5) * height / rows))
    return tuple(receivers), columns, rows


def generate_fleet(config: FleetConfig) -> FleetPlan:
    """Expand ``config`` into per-device and per-receiver specs.

    Deterministic: positions, crystals and wake phases come from
    dedicated ``random.Random`` streams derived from ``config.seed``,
    so adding receivers or reordering shards can never perturb the
    devices themselves.
    """
    positions = _positions(config)
    crystals = crystal_draws(config.device_count,
                             drift_std_ppm=config.drift_std_ppm,
                             jitter_std_s=config.jitter_std_s,
                             seed=config.seed)
    if config.start == "synchronised":
        first_wakes = [config.interval_s] * config.device_count
    else:
        # Uniform phase in (0, interval]; strictly positive so two
        # devices can never share the exact same wake instant. Batched:
        # interval * (1.0 - u) per device, draws in device order.
        phase_draws = _uniform_stream(f"{config.seed}-phases",
                                      config.device_count)
        first_wakes = (config.interval_s * (1.0 - phase_draws)).tolist()
    devices = tuple(
        DeviceSpec(device_id=FLEET_DEVICE_ID_BASE + index,
                   x_m=x_m, y_m=y_m,
                   interval_s=config.interval_s,
                   first_wake_s=first_wake_s,
                   drift_ppm=drift_ppm,
                   jitter_std_s=config.jitter_std_s,
                   clock_seed=clock_seed)
        for index, ((x_m, y_m), first_wake_s, (drift_ppm, clock_seed))
        in enumerate(zip(positions, first_wakes, crystals)))
    receivers, columns, rows = _receiver_grid(config)
    trajectories = None
    if config.mobility is not None:
        trajectories = build_trajectories(
            config.mobility,
            [(device.device_id, device.x_m, device.y_m)
             for device in devices],
            area_m=config.area_m, duration_s=config.duration_s)
    return FleetPlan(config=config, devices=devices,
                     receivers=receivers,
                     receiver_columns=columns, receiver_rows=rows,
                     trajectories=trajectories)
