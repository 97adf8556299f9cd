"""Binding a :class:`~repro.faults.plan.FaultPlan` to a live simulation.

The injector schedules every fault through the existing event engine —
window starts and ends are ordinary simulator events, interferers are
ordinary radios on the shared medium — so energy integrals and delivery
decisions stay exact and a fault-injected run remains bit-identical
across repeats. Loss decisions inside Gilbert–Elliott bad windows use
:func:`~repro.faults.plan.stable_uniform` keyed on the link event, so
they are independent of simulation order and process topology.

:class:`FaultStats` counts everything the injector schedules and fires;
:func:`repro.obs.audit.audit_faults` cross-checks the two (every
scheduled window must have started and ended by the horizon — an event
that silently never fired is exactly the kind of bug a chaos layer
exists to catch).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, fields

from ..dot11.mac import MacAddress
from ..dot11.rates import WILE_DEFAULT_RATE
from ..sim import Position, Radio, Simulator, WirelessMedium
from .plan import FaultPlan, stable_uniform


class FaultInjectionError(RuntimeError):
    """Raised for invalid injector wiring."""


@dataclass
class FaultStats:
    """Scheduled-vs-fired accounting for every fault class.

    ``*_scheduled`` counters are set at :meth:`FaultInjector.install`
    time; the matching ``*_started`` / ``*_ended`` / ``*_fired``
    counters increment when the engine actually runs the event. The
    pairs must agree after a run to the horizon — the fault-event
    conservation invariant.
    """

    loss_bursts_scheduled: int = 0
    loss_bursts_started: int = 0
    loss_bursts_ended: int = 0
    drops_injected: int = 0
    interferers_scheduled: int = 0
    interferers_started: int = 0
    interferers_ended: int = 0
    interferer_frames: int = 0
    snr_windows_scheduled: int = 0
    snr_windows_started: int = 0
    snr_windows_ended: int = 0
    brownouts_scheduled: int = 0
    brownouts_fired: int = 0
    drift_excursions_scheduled: int = 0
    drift_excursions_started: int = 0
    drift_excursions_ended: int = 0
    depletions_scheduled: int = 0
    depletions_fired: int = 0
    gateway_outages_scheduled: int = 0
    gateway_outages_started: int = 0
    gateway_outages_ended: int = 0

    def conservation_pairs(self) -> list[tuple[str, int, int]]:
        """(name, scheduled, fired) triples that must agree post-run."""
        return [
            ("loss-burst-start", self.loss_bursts_scheduled,
             self.loss_bursts_started),
            ("loss-burst-end", self.loss_bursts_scheduled,
             self.loss_bursts_ended),
            ("interferer-start", self.interferers_scheduled,
             self.interferers_started),
            ("interferer-end", self.interferers_scheduled,
             self.interferers_ended),
            ("snr-window-start", self.snr_windows_scheduled,
             self.snr_windows_started),
            ("snr-window-end", self.snr_windows_scheduled,
             self.snr_windows_ended),
            ("brownout", self.brownouts_scheduled, self.brownouts_fired),
            ("drift-excursion-start", self.drift_excursions_scheduled,
             self.drift_excursions_started),
            ("drift-excursion-end", self.drift_excursions_scheduled,
             self.drift_excursions_ended),
            ("depletion", self.depletions_scheduled, self.depletions_fired),
            ("gateway-outage-start", self.gateway_outages_scheduled,
             self.gateway_outages_started),
            ("gateway-outage-end", self.gateway_outages_scheduled,
             self.gateway_outages_ended),
        ]

    def to_dict(self) -> dict:
        return {item.name: getattr(self, item.name)
                for item in fields(self)}


class _JunkFrame:
    """An undecodable on-air blob (microwave-oven energy, foreign PHY).

    Receivers fail to parse it, so it never reaches any message sink —
    it exists purely to occupy airtime and raise the interference term
    of every overlapping SINR computation.
    """

    __slots__ = ("_payload",)

    def __init__(self, size: int) -> None:
        self._payload = b"\xa5" * size

    def to_bytes(self) -> bytes:
        return self._payload


class FaultInjector:
    """Drives one :class:`FaultPlan` through a live simulation.

    Args:
        sim / medium: the simulation substrate to impair.
        plan: the pre-drawn schedule.
        devices: mapping of device id to :class:`~repro.core.device.
            WiLEDevice` for device faults (brownout / drift / battery).
        gateway_radios: receivers subject to outage windows, in
            ``gateway_index`` order.

    Call :meth:`install` once before ``sim.run``. The injector chains
    any pre-existing ``medium.fault_injector`` (both get a veto) and
    composes with a pre-existing ``link_impairment`` additively.
    """

    def __init__(self, sim: Simulator, medium: WirelessMedium,
                 plan: FaultPlan,
                 devices: dict[int, object] | None = None,
                 gateway_radios: tuple[Radio, ...] | list[Radio] = ()) -> None:
        self.sim = sim
        self.medium = medium
        self.plan = plan
        self.devices = dict(devices or {})
        self.gateway_radios = tuple(gateway_radios)
        self.stats = FaultStats()
        self._installed = False
        # Sorted window starts for O(log n) lookup per delivery.
        self._burst_starts = [burst.start_s for burst in plan.loss_bursts]
        self._snr_windows = plan.snr_windows
        self._interferer_radios: list[Radio] = []
        self._gateway_was_monitor: dict[int, bool] = {}

    # -- wiring ---------------------------------------------------------------

    def install(self) -> None:
        """Hook the medium and schedule every fault through the engine."""
        if self._installed:
            raise FaultInjectionError("injector already installed")
        self._installed = True
        self._chain_medium_hooks()
        self._schedule_loss_bursts()
        self._schedule_interferers()
        self._schedule_snr_windows()
        self._schedule_device_faults()
        self._schedule_gateway_outages()

    def _chain_medium_hooks(self) -> None:
        previous_drop = self.medium.fault_injector

        def drop(transmission, radio) -> bool:
            if previous_drop is not None and previous_drop(transmission,
                                                           radio):
                return True
            return self._drop_decision(transmission, radio)

        self.medium.fault_injector = drop

        previous_loss = self.medium.link_impairment

        def impair(transmission, radio) -> float:
            base = (previous_loss(transmission, radio)
                    if previous_loss is not None else 0.0)
            return base + self._extra_loss_db(transmission, radio)

        self.medium.link_impairment = impair

    # -- channel bursts -------------------------------------------------------

    def _schedule_loss_bursts(self) -> None:
        self.stats.loss_bursts_scheduled = len(self.plan.loss_bursts)
        for burst in self.plan.loss_bursts:
            self.sim.at(burst.start_s, self._count("loss_bursts_started"))
            self.sim.at(burst.end_s, self._count("loss_bursts_ended"))

    def _drop_decision(self, transmission, radio) -> bool:
        """Gilbert–Elliott: drop inside a bad window, decided by a
        stable per-link draw so the outcome is order-independent."""
        bursts = self.plan.loss_bursts
        if not bursts:
            return False
        time_s = transmission.end_s
        index = bisect.bisect_right(self._burst_starts, time_s) - 1
        if index < 0:
            return False
        burst = bursts[index]
        if time_s >= burst.end_s:
            return False
        draw = stable_uniform(self.plan.config.seed, "ge-drop",
                              round(transmission.start_s * 1e9),
                              str(transmission.sender.mac), str(radio.mac))
        if draw < burst.drop_probability:
            self.stats.drops_injected += 1
            return True
        return False

    # -- interferers ----------------------------------------------------------

    def _schedule_interferers(self) -> None:
        self.stats.interferers_scheduled = len(self.plan.interferers)
        for index, burst in enumerate(self.plan.interferers):
            self.sim.at(burst.start_s,
                        lambda burst=burst, index=index:
                        self._start_interferer(burst, index))

    def _start_interferer(self, burst, index: int) -> None:
        self.stats.interferers_started += 1
        mac = MacAddress.parse("02:bb:ad:00:%02x:%02x" % (index >> 8,
                                                          index & 0xFF))
        radio = Radio(self.sim, self.medium, mac,
                      position=Position(burst.x_m, burst.y_m),
                      channel=next(iter(self.medium._attach_index)).channel
                      if self.medium._attach_index else 6,
                      default_power_dbm=burst.power_dbm)
        radio.power_on()
        self._interferer_radios.append(radio)
        frame = _JunkFrame(burst.frame_bytes)

        def fire() -> None:
            if self.sim.now_s >= burst.end_s:
                return
            # Half-duplex guard: skip a tick if still mid-transmission.
            if not (radio.state.name == "TX"
                    and self.sim.now_s < radio._tx_end_s):
                radio.transmit(frame, WILE_DEFAULT_RATE)
                self.stats.interferer_frames += 1

        task = self.sim.call_every(burst.period_s, fire, start_delay_s=0.0)

        def stop() -> None:
            self.stats.interferers_ended += 1
            task.stop()
            radio.power_off()

        self.sim.at(burst.end_s, stop)

    # -- SNR degradation ------------------------------------------------------

    def _schedule_snr_windows(self) -> None:
        self.stats.snr_windows_scheduled = len(self.plan.snr_windows)
        for window in self.plan.snr_windows:
            self.sim.at(window.start_s, self._count("snr_windows_started"))
            self.sim.at(window.end_s, self._count("snr_windows_ended"))

    def _extra_loss_db(self, transmission, radio) -> float:
        time_s = transmission.end_s
        loss_db = 0.0
        for window in self._snr_windows:
            if window.start_s <= time_s < window.end_s:
                if window.device_id is None or self._sender_device_id(
                        transmission) == window.device_id:
                    loss_db += window.extra_loss_db
        return loss_db

    def _sender_device_id(self, transmission) -> int | None:
        for device_id, device in self.devices.items():
            if getattr(device, "radio", None) is transmission.sender:
                return device_id
        return None

    # -- device faults --------------------------------------------------------

    def _schedule_device_faults(self) -> None:
        for fault in self.plan.device_faults:
            device = self.devices.get(fault.device_id)
            if device is None:
                continue
            if fault.kind == "brownout":
                self.stats.brownouts_scheduled += 1
                self.sim.at(fault.time_s,
                            lambda device=device: self._brownout(device))
            elif fault.kind == "drift-excursion":
                self.stats.drift_excursions_scheduled += 1
                self.sim.at(fault.time_s,
                            lambda device=device, fault=fault:
                            self._drift_start(device, fault))
                self.sim.at(fault.time_s + fault.duration_s,
                            lambda device=device, fault=fault:
                            self._drift_end(device, fault))
            elif fault.kind == "battery-depleted":
                self.stats.depletions_scheduled += 1
                self.sim.at(fault.time_s,
                            lambda device=device: self._deplete(device))
            else:
                raise FaultInjectionError(
                    f"unknown device fault kind {fault.kind!r}")

    def _brownout(self, device) -> None:
        self.stats.brownouts_fired += 1
        device.reboot()

    def _drift_start(self, device, fault) -> None:
        self.stats.drift_excursions_started += 1
        device.clock.drift_ppm += fault.drift_delta_ppm

    def _drift_end(self, device, fault) -> None:
        self.stats.drift_excursions_ended += 1
        device.clock.drift_ppm -= fault.drift_delta_ppm

    def _deplete(self, device) -> None:
        self.stats.depletions_fired += 1
        device.shutdown()

    # -- gateway outages ------------------------------------------------------

    def _schedule_gateway_outages(self) -> None:
        outages = [outage for outage in self.plan.gateway_outages
                   if outage.gateway_index < len(self.gateway_radios)]
        self.stats.gateway_outages_scheduled = len(outages)
        for outage in outages:
            radio = self.gateway_radios[outage.gateway_index]
            self.sim.at(outage.start_s,
                        lambda radio=radio, outage=outage:
                        self._gateway_down(radio, outage))
            self.sim.at(outage.end_s,
                        lambda radio=radio, outage=outage:
                        self._gateway_up(radio, outage))

    def _gateway_down(self, radio: Radio, outage) -> None:
        self.stats.gateway_outages_started += 1
        self._gateway_was_monitor[outage.gateway_index] = \
            radio.state.name == "MONITOR"
        radio.power_off()

    def _gateway_up(self, radio: Radio, outage) -> None:
        self.stats.gateway_outages_ended += 1
        radio.power_on(monitor=self._gateway_was_monitor.get(
            outage.gateway_index, True))

    # -- helpers --------------------------------------------------------------

    def _count(self, counter: str):
        def bump() -> None:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        return bump

    def suppressed_in_outage(self, transmission_end_times: list[float],
                             gateway_index: int = 0) -> int:
        """How many of ``transmission_end_times`` landed inside an
        outage of ``gateway_index`` — an independent derivation of the
        *suppressed* count for the delivery-conservation audit."""
        windows = [(outage.start_s, outage.end_s)
                   for outage in self.plan.gateway_outages
                   if outage.gateway_index == gateway_index]
        return sum(1 for end_s in transmission_end_times
                   if any(start <= end_s < end for start, end in windows))
