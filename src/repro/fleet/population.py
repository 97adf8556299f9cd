"""Deterministic fleet generation: who is where, with which crystal.

A fleet is fully described by a :class:`FleetConfig`; expanding it with
:func:`generate_fleet` is pure — the same config always yields the same
:class:`FleetPlan`, column by column. Every stochastic property a
device has (position, crystal ppm error, wake phase, per-wake jitter
seed) is frozen into the plan's numpy columns at generation time,
*before* any shard assignment happens. That ordering is what makes the
sharded runner testable: a device behaves identically whether it is
simulated in its home shard or as a halo transmitter in a neighbour,
because every random draw it will ever make is determined by its row
alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from ..sim import JitteryClock, crystal_draws

if TYPE_CHECKING:
    from ..mobility.trajectories import MobilityConfig, Trajectory
    from ..sim.medium import Position

#: Device ids start here so fleet devices never collide with the small
#: experiments' 0x100-range ids in mixed traces.
FLEET_DEVICE_ID_BASE = 0x10000

#: Hard delivery cutoff. Wi-LE at 72.2 Mbps / 0 dBm decodes out to
#: ~12 m under the log-distance model (the paper's "similar range as
#: BLE"); 20 m leaves margin for every supported configuration while
#: keeping the medium's receiver scan local.
DEFAULT_MAX_RANGE_M = 20.0

#: Hard interference cutoff. At 90 m a 0 dBm transmitter arrives ~5 dB
#: below the 20 MHz noise floor; truncating it understates a borderline
#: receiver's noise rise by at most ~1.3 dB, decaying with distance
#: cubed. This is the fleet model's documented approximation — the
#: invariance guarantee itself is exact at any cutoff.
DEFAULT_INTERFERENCE_RANGE_M = 90.0

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
        if self.mobility is not None:
            # Only a mobile fleet loads the mobility package.
            from ..mobility.trajectories import MobilityConfig
            if not isinstance(self.mobility, MobilityConfig):
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
        from ..sim.medium import Position  # the event engine's type
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
        from ..sim.medium import Position  # the event engine's type
        return Position(self.x_m, self.y_m)


#: Devices per step of :meth:`FleetPlan.nearest_receivers`: bounds its
#: temporaries to a few hundred KB whatever the fleet size.
_NEAREST_CHUNK = 1 << 12

#: Relative gap under which ``np.hypot`` and ``math.hypot`` may order
#: two distances, or a distance and a cutoff, differently: each is
#: within an ulp (~2.2e-16 relative) of the true value.
HYPOT_SLACK = 1e-12


def fields_equal(self, other) -> bool:
    """Dataclass equality that compares numpy columns by value (``==``
    on arrays is elementwise, so the generated ``__eq__`` cannot)."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(mine, theirs)
               if isinstance(mine, np.ndarray) else mine == theirs
               for mine, theirs in ((getattr(self, field.name),
                                     getattr(other, field.name))
                                    for field in fields(self)))


@dataclass(frozen=True, slots=True, eq=False)
class FleetPlan:
    """The expanded fleet: its config, one numpy column per device
    property, and every receiver spec.

    Row ``i`` of the columns is device ``FLEET_DEVICE_ID_BASE + i``;
    its beacon interval and jitter are the config's, shared by the whole
    fleet. ``trajectories`` is populated iff ``config.mobility`` is set
    — one compiled :class:`~repro.mobility.Trajectory` per device, in
    device order, each starting at the device's placed position.
    """

    config: FleetConfig
    x_m: np.ndarray
    y_m: np.ndarray
    first_wake_s: np.ndarray
    drift_ppm: np.ndarray
    clock_seed: np.ndarray
    receivers: tuple[ReceiverSpec, ...]
    receiver_columns: int
    receiver_rows: int
    trajectories: tuple[Trajectory, ...] | None = None

    __eq__ = fields_equal

    def _nearest_receiver(self, x_m: float, y_m: float,
                          ) -> tuple[float, int, int]:
        """``(distance, receiver_id, index)`` of the receiver nearest
        ``(x_m, y_m)`` by ``math.hypot``, ties broken by receiver id.
        The receivers form a regular grid, so it is always in the 3x3
        neighbourhood of the cell containing the point."""
        width, height = self.config.area_m
        columns, rows = self.receiver_columns, self.receiver_rows
        column = min(int(x_m // (width / columns)), columns - 1)
        row = min(int(y_m // (height / rows)), rows - 1)
        return min((math.hypot(x_m - receiver.x_m, y_m - receiver.y_m),
                    receiver.receiver_id, index)
                   for r in range(max(0, row - 1), min(rows, row + 2))
                   for c in range(max(0, column - 1), min(columns, column + 2))
                   for index in (r * columns + c,)
                   for receiver in (self.receivers[index],))

    def nearest_receivers(self) -> tuple[np.ndarray, np.ndarray]:
        """Every device's designated uplink gateway — its index into
        ``receivers``, as int32 — and the distance to it.

        The 3x3 search runs over :data:`_NEAREST_CHUNK` devices at a
        time with ``np.hypot``, which can differ from ``math.hypot`` in
        the last bit. Devices whose two nearest candidates, or whose
        distance and :data:`DEFAULT_MAX_RANGE_M`, lie within
        :data:`HYPOT_SLACK` of each other are re-resolved by the scalar
        search, so every choice is the ``(math.hypot, receiver_id)``
        minimum and every distance compares with the cutoff as
        ``math.hypot``'s would.
        """
        width, height = self.config.area_m
        columns, rows = self.receiver_columns, self.receiver_rows
        receiver_x = np.array([receiver.x_m for receiver in self.receivers])
        receiver_y = np.array([receiver.y_m for receiver in self.receivers])
        cutoff = DEFAULT_MAX_RANGE_M
        count = len(self.x_m)
        indices = np.empty(count, dtype=np.int32)
        distances = np.empty(count)
        for start in range(0, count, _NEAREST_CHUNK):
            chunk = slice(start, start + _NEAREST_CHUNK)
            x, y = self.x_m[chunk], self.y_m[chunk]
            column = np.minimum(x // (width / columns), columns - 1).astype(int)
            row = np.minimum(y // (height / rows), rows - 1).astype(int)
            nearest = np.zeros(len(x), dtype=int)
            distance = np.full(len(x), np.inf)
            runner_up = np.full(len(x), np.inf)
            for r in (row - 1, row, row + 1):
                for c in (column - 1, column, column + 1):
                    valid = (r >= 0) & (r < rows) & (c >= 0) & (c < columns)
                    candidate = np.where(valid, r * columns + c, 0)
                    d = np.where(valid, np.hypot(x - receiver_x[candidate],
                                                 y - receiver_y[candidate]),
                                 np.inf)
                    closer = d < distance
                    runner_up = np.where(closer, distance,
                                         np.minimum(runner_up, d))
                    nearest = np.where(closer, candidate, nearest)
                    distance = np.where(closer, d, distance)
            exact = ((runner_up - distance <= HYPOT_SLACK * distance)
                     | (np.abs(distance - cutoff) <= HYPOT_SLACK * cutoff))
            for index in np.nonzero(exact)[0].tolist():
                distance[index], _, nearest[index] = self._nearest_receiver(
                    x[index].item(), y[index].item())
            indices[chunk] = nearest
            distances[chunk] = distance
        return indices, distances


def validate_positions(plan: FleetPlan) -> None:
    """Reject devices or receivers placed outside the configured area.

    The spatial listening index and the 3x3 ``nearest_receivers``
    search both assume positions inside ``config.area_m``; an
    out-of-bounds position silently lands in a clamped edge cell and
    produces distances the index never scans. Generated plans are
    in-bounds by construction — this guards hand-built or mutated plans
    at the shard planner's front door.
    """
    width, height = plan.config.area_m
    count = len(plan.x_m)
    x = np.concatenate([plan.x_m, [r.x_m for r in plan.receivers]])
    y = np.concatenate([plan.y_m, [r.y_m for r in plan.receivers]])
    outside = np.nonzero(~((0.0 <= x) & (x <= width)
                           & (0.0 <= y) & (y <= height)))[0]
    if outside.size:
        index = int(outside[0])
        name = (f"device 0x{FLEET_DEVICE_ID_BASE + index:x}" if index < count
                else f"receiver {plan.receivers[index - count].receiver_id}")
        raise FleetError(f"{name} at ({x[index]}, {y[index]}) is outside "
                         f"the {width} x {height} m area")


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


def _positions(config: FleetConfig) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized device placement: the ``x`` and ``y`` columns,
    bit-identical per seed to :func:`_positions_reference`.

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
        return x, y
    if config.layout == "uniform":
        # rng.uniform(0.0, w) is exactly 0.0 + (w - 0.0) * rng.random();
        # draws interleave x, y per device.
        draws = _uniform_stream(f"{config.seed}-positions", 2 * count)
        return width * draws[0::2], height * draws[1::2]
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
    return x, y


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
    """Expand ``config`` into per-device columns and receiver specs.

    Deterministic: positions, crystals and wake phases come from
    dedicated ``random.Random`` streams derived from ``config.seed``,
    so adding receivers or reordering shards can never perturb the
    devices themselves.
    """
    count = config.device_count
    x_m, y_m = _positions(config)
    drifts, seeds = crystal_draws(count, drift_std_ppm=config.drift_std_ppm,
                                  jitter_std_s=config.jitter_std_s,
                                  seed=config.seed)
    # Views of the two stdlib arrays: the columns cost no copy.
    drift_ppm = np.frombuffer(drifts, dtype=np.float64)
    clock_seed = np.frombuffer(seeds, dtype=np.int64)
    if config.start == "synchronised":
        first_wake_s = np.full(count, config.interval_s)
    else:
        # Uniform phase in (0, interval]; strictly positive so two
        # devices can never share the exact same wake instant. Batched:
        # interval * (1.0 - u) per device, draws in device order.
        first_wake_s = config.interval_s * (
            1.0 - _uniform_stream(f"{config.seed}-phases", count))
    receivers, columns, rows = _receiver_grid(config)
    trajectories = None
    if config.mobility is not None:
        from ..mobility.trajectories import build_trajectories
        trajectories = build_trajectories(
            config.mobility,
            [(FLEET_DEVICE_ID_BASE + index, x, y) for index, (x, y)
             in enumerate(zip(x_m.tolist(), y_m.tolist()))],
            area_m=config.area_m, duration_s=config.duration_s)
    return FleetPlan(config=config, x_m=x_m, y_m=y_m,
                     first_wake_s=first_wake_s, drift_ppm=drift_ppm,
                     clock_seed=clock_seed, receivers=receivers,
                     receiver_columns=columns, receiver_rows=rows,
                     trajectories=trajectories)
