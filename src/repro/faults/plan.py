"""Deterministic fault schedules: everything that will go wrong, pre-drawn.

The paper's energy argument is made on a clean channel; related work
(802.11ba massive-IoT evaluations, "WiFi Physical Layer Stays Awake...")
shows the regimes that dominate in deployment are the adverse ones —
bursty loss, interferers, devices that brown out, gateways that vanish.
This module turns those regimes into a :class:`FaultPlan`: a frozen,
picklable schedule expanded from a :class:`FaultConfig` seed *before*
any simulation starts, the same way :mod:`repro.fleet.population`
pre-draws device randomness. Because every window and fault instant is
fixed at plan time, a fault-injected run is exactly as deterministic as
a clean one: same seed, same schedule, same delivery decisions, bit for
bit — serial or fanned over the process pool.

Fault classes, each scaled by one ``intensity`` knob in [0, 1]:

* **Gilbert–Elliott channel bursts** — the classic two-state bursty
  loss model: the channel alternates between a good state (no injected
  loss) and bad states (windows during which deliveries drop with a
  fixed probability). Sojourn times are exponential, pre-drawn into
  explicit ``[start, end)`` windows.
* **Transient interferers** — a rogue radio (microwave oven, busy
  neighbour AP) keys up near the deployment for a window, transmitting
  periodic junk frames that collide and raise the noise floor through
  the existing medium physics.
* **Per-link SNR degradation** — deep-fade windows during which a
  sender's links lose a fixed number of dB (shadowing, a door closing).
* **Device brownouts** — the device loses its state mid-cycle and pays
  a full boot to recover (:meth:`repro.core.device.WiLEDevice.reboot`).
* **Crystal drift excursions** — a temperature swing pushes the sleep
  crystal hundreds of ppm off nominal for a window, then releases it.
* **Battery depletion** — a device whose cell (modelled by
  :class:`repro.energy.battery.Battery`) runs dry shuts down for good.
* **Gateway outages** — the monitor-mode receiver powers off for a
  window (AP reboot, backhaul loss); beacons sent meanwhile are
  *suppressed*: they get no delivery decision at all.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ..energy.battery import Battery

#: Every stochastic draw in a plan comes from streams derived from the
#: seed plus one of these names, so toggling one fault class can never
#: perturb another class's schedule.
_STREAMS = ("ge", "interferer", "snr", "brownout", "drift", "battery",
            "gateway")


class FaultPlanError(ValueError):
    """Raised for impossible fault configurations."""


def stable_uniform(*key: object) -> float:
    """A uniform [0, 1) draw that depends only on ``key`` — not on
    process, platform, simulation order, or hash randomisation.

    Used for per-delivery loss decisions inside Gilbert–Elliott bad
    windows: keying on (seed, transmission start, sender, receiver)
    makes the decision a pure function of the link event, so the same
    beacon drops (or survives) identically whether the run is serial,
    parallel, or resumed.
    """
    digest = hashlib.blake2b(
        "|".join(repr(part) for part in key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


@dataclass(frozen=True, slots=True)
class LossBurst:
    """One Gilbert–Elliott bad-state window."""

    start_s: float
    end_s: float
    drop_probability: float


@dataclass(frozen=True, slots=True)
class InterfererBurst:
    """A rogue transmitter keying up for a window."""

    start_s: float
    end_s: float
    period_s: float
    x_m: float
    y_m: float
    power_dbm: float
    frame_bytes: int


@dataclass(frozen=True, slots=True)
class SnrDegradation:
    """A deep-fade window: ``extra_loss_db`` taken off the link budget.

    ``device_id`` scopes the fade to one sender's links; ``None`` fades
    every link on the medium (an area-wide event).
    """

    start_s: float
    end_s: float
    extra_loss_db: float
    device_id: int | None = None


@dataclass(frozen=True, slots=True)
class DeviceFault:
    """One scheduled device misbehaviour.

    ``kind`` is ``"brownout"`` (instant, reboot + boot energy),
    ``"drift-excursion"`` (``drift_delta_ppm`` applied for
    ``duration_s``), or ``"battery-depleted"`` (permanent shutdown).
    """

    time_s: float
    device_id: int
    kind: str
    duration_s: float = 0.0
    drift_delta_ppm: float = 0.0


@dataclass(frozen=True, slots=True)
class GatewayOutage:
    """A receiver power-off window (AP reboot, backhaul loss)."""

    start_s: float
    end_s: float
    gateway_index: int


#: A weak coin cell for depletion draws: a CR2032 already 95 % consumed,
#: so depletion cutoffs land inside experiment horizons instead of
#: years out. Swap via :attr:`FaultConfig.battery`.
WORN_CR2032 = Battery("CR2032-worn", capacity_mah=225.0 * 0.05,
                      nominal_voltage_v=3.0)


@dataclass(frozen=True, slots=True)
class FaultConfig:
    """Everything needed to (re)generate a fault schedule.

    ``intensity`` in [0, 1] scales every class at once — 0 disables all
    faults (the plan is empty), 1 is the stress regime. Individual
    knobs below set the shape each class takes when it is on.
    """

    seed: int = 0
    duration_s: float = 120.0
    intensity: float = 0.5
    # Gilbert–Elliott: bad-state dwell and loss probability.
    ge_mean_bad_s: float = 1.5
    ge_bad_fraction_max: float = 0.30
    ge_drop_probability: float = 0.8
    # Interferers.
    interferers_max: int = 3
    interferer_period_s: float = 3e-3
    interferer_power_dbm: float = 15.0
    interferer_frame_bytes: int = 200
    interferer_span_m: float = 10.0
    # Device faults.
    brownouts_per_device: float = 2.0
    drift_excursion_probability: float = 0.6
    drift_delta_ppm_max: float = 2000.0
    depletion_probability: float = 0.3
    battery: Battery = WORN_CR2032
    battery_mean_load_a: float = 60e-6
    # Gateway outages.
    gateway_outage_probability: float = 0.8
    gateway_outage_mean_s: float = 4.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise FaultPlanError(
                f"duration must be positive, got {self.duration_s}")
        if not 0.0 <= self.intensity <= 1.0:
            raise FaultPlanError(
                f"intensity must be in [0, 1], got {self.intensity}")
        if not 0.0 <= self.ge_drop_probability <= 1.0:
            raise FaultPlanError("drop probability must be a fraction")
        if not 0.0 < self.ge_bad_fraction_max < 1.0:
            raise FaultPlanError("bad fraction must be in (0, 1)")


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """The expanded schedule: every fault, pre-drawn and time-sorted.

    Frozen and picklable so a plan crosses the process-pool boundary
    unchanged; every window is clamped to ``config.duration_s`` so a
    run to the horizon fires every scheduled start *and* end (the
    fault-event-conservation invariant audited by
    :func:`repro.obs.audit.audit_faults`).
    """

    config: FaultConfig
    loss_bursts: tuple[LossBurst, ...] = ()
    interferers: tuple[InterfererBurst, ...] = ()
    snr_windows: tuple[SnrDegradation, ...] = ()
    device_faults: tuple[DeviceFault, ...] = ()
    gateway_outages: tuple[GatewayOutage, ...] = ()

    @property
    def event_count(self) -> int:
        return (len(self.loss_bursts) + len(self.interferers)
                + len(self.snr_windows) + len(self.device_faults)
                + len(self.gateway_outages))

    def describe(self) -> str:
        return (f"fault plan (seed {self.config.seed}, intensity "
                f"{self.config.intensity:g}): {len(self.loss_bursts)} loss "
                f"bursts, {len(self.interferers)} interferers, "
                f"{len(self.snr_windows)} SNR fades, "
                f"{len(self.device_faults)} device faults, "
                f"{len(self.gateway_outages)} gateway outages")


def _rng(config: FaultConfig, stream: str) -> random.Random:
    if stream not in _STREAMS:
        raise FaultPlanError(f"unknown fault stream {stream!r}")
    return random.Random(f"{config.seed}-faults-{stream}")


def _clamp(value: float, duration_s: float) -> float:
    return min(max(value, 0.0), duration_s)


def _loss_bursts(config: FaultConfig) -> tuple[LossBurst, ...]:
    """Alternate good/bad sojourns until the horizon (Gilbert–Elliott)."""
    if config.intensity <= 0:
        return ()
    rng = _rng(config, "ge")
    bad_fraction = config.ge_bad_fraction_max * config.intensity
    mean_bad = config.ge_mean_bad_s
    mean_good = mean_bad * (1.0 - bad_fraction) / bad_fraction
    bursts = []
    cursor = rng.expovariate(1.0 / mean_good)
    while cursor < config.duration_s:
        end = cursor + rng.expovariate(1.0 / mean_bad)
        bursts.append(LossBurst(
            start_s=cursor,
            end_s=_clamp(end, config.duration_s),
            drop_probability=config.ge_drop_probability))
        cursor = end + rng.expovariate(1.0 / mean_good)
    return tuple(bursts)


def _interferers(config: FaultConfig) -> tuple[InterfererBurst, ...]:
    if config.intensity <= 0:
        return ()
    rng = _rng(config, "interferer")
    count = round(config.interferers_max * config.intensity)
    bursts = []
    for _ in range(count):
        start = rng.uniform(0.0, config.duration_s)
        end = _clamp(start + rng.uniform(2.0, 8.0), config.duration_s)
        bursts.append(InterfererBurst(
            start_s=start, end_s=end,
            period_s=config.interferer_period_s,
            x_m=rng.uniform(-config.interferer_span_m,
                            config.interferer_span_m),
            y_m=rng.uniform(-config.interferer_span_m,
                            config.interferer_span_m),
            power_dbm=config.interferer_power_dbm,
            frame_bytes=config.interferer_frame_bytes))
    return tuple(sorted(bursts, key=lambda burst: burst.start_s))


def _snr_windows(config: FaultConfig,
                 device_ids: tuple[int, ...]) -> tuple[SnrDegradation, ...]:
    if config.intensity <= 0:
        return ()
    rng = _rng(config, "snr")
    windows = []
    for device_id in device_ids:
        if rng.random() >= config.intensity:
            continue
        start = rng.uniform(0.0, config.duration_s)
        windows.append(SnrDegradation(
            start_s=start,
            end_s=_clamp(start + rng.uniform(3.0, 10.0), config.duration_s),
            extra_loss_db=rng.uniform(6.0, 20.0),
            device_id=device_id))
    return tuple(sorted(windows, key=lambda window: window.start_s))


def _device_faults(config: FaultConfig,
                   device_ids: tuple[int, ...]) -> tuple[DeviceFault, ...]:
    if config.intensity <= 0:
        return ()
    faults = []
    brownout_rng = _rng(config, "brownout")
    expected = config.brownouts_per_device * config.intensity
    for device_id in device_ids:
        count = int(expected) + (1 if brownout_rng.random()
                                 < expected - int(expected) else 0)
        for _ in range(count):
            faults.append(DeviceFault(
                time_s=brownout_rng.uniform(0.0, config.duration_s),
                device_id=device_id, kind="brownout"))
    drift_rng = _rng(config, "drift")
    for device_id in device_ids:
        if drift_rng.random() >= (config.drift_excursion_probability
                                  * config.intensity):
            continue
        start = drift_rng.uniform(0.0, config.duration_s * 0.8)
        faults.append(DeviceFault(
            time_s=start, device_id=device_id, kind="drift-excursion",
            duration_s=_clamp(start + drift_rng.uniform(5.0, 20.0),
                              config.duration_s) - start,
            drift_delta_ppm=drift_rng.uniform(
                0.1, 1.0) * config.drift_delta_ppm_max))
    battery_rng = _rng(config, "battery")
    for device_id in device_ids:
        if battery_rng.random() >= (config.depletion_probability
                                    * config.intensity):
            continue
        # The cell's remaining life at the mean load, jittered: cheap
        # cells deplete early, good ones outlast the horizon entirely.
        life_s = (config.battery.life_hours(config.battery_mean_load_a)
                  * 3600.0 * battery_rng.uniform(0.2, 1.5))
        if life_s < config.duration_s:
            faults.append(DeviceFault(
                time_s=life_s, device_id=device_id,
                kind="battery-depleted"))
    return tuple(sorted(faults,
                        key=lambda fault: (fault.time_s, fault.device_id,
                                           fault.kind)))


def _gateway_outages(config: FaultConfig,
                     gateway_count: int) -> tuple[GatewayOutage, ...]:
    if config.intensity <= 0:
        return ()
    rng = _rng(config, "gateway")
    outages = []
    for index in range(gateway_count):
        if rng.random() >= (config.gateway_outage_probability
                            * config.intensity):
            continue
        start = rng.uniform(0.0, config.duration_s)
        outages.append(GatewayOutage(
            start_s=start,
            end_s=_clamp(start + rng.expovariate(
                1.0 / config.gateway_outage_mean_s), config.duration_s),
            gateway_index=index))
    return tuple(sorted(outages, key=lambda outage: outage.start_s))


def build_fault_plan(config: FaultConfig,
                     device_ids: tuple[int, ...] = (),
                     gateway_count: int = 0) -> FaultPlan:
    """Expand ``config`` into the full pre-drawn schedule.

    Pure: the same (config, device_ids, gateway_count) always yields an
    identical plan, and each fault class draws from its own seeded
    stream, so enabling or reshaping one class never moves another.
    """
    device_ids = tuple(device_ids)
    return FaultPlan(
        config=config,
        loss_bursts=_loss_bursts(config),
        interferers=_interferers(config),
        snr_windows=_snr_windows(config, device_ids),
        device_faults=_device_faults(config, device_ids),
        gateway_outages=_gateway_outages(config, gateway_count))
