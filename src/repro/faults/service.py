"""Declarative, seeded fault plans for the gateway *service* layer.

:mod:`repro.faults.plan` schedules channel and device impairments for
the simulation; this module does the same job one level up the stack,
for the always-on federation of :class:`repro.service.GatewayService`
processes. A :class:`ServiceFaultPlan` is a frozen, fully pre-drawn
schedule of gateway-level failures — which gateway, after how many
processed frames, with what magnitude — built from a seed via the same
:func:`stable_uniform` blake2b discipline as the channel plans: same
seed, same schedule, bit for bit, on any platform.

The plan is purely declarative. It imports nothing from
:mod:`repro.service`; the federation chaos harness
(:class:`repro.service.federation.ChaosGatewayService`) reads the plan
and supplies the mechanics. Triggers are *frame counts*, not wall-clock
times, so a fault fires at the exact same stream offset on every run —
the precondition for the bit-identity assertions of the
``chaos-federation-*`` oracles (:mod:`repro.check.chaos`).

Five scenarios, mirroring the failure modes a real gateway fleet sees:

``gateway-kill``
    The pump dies abruptly (in-process SIGKILL): no drain, no final
    checkpoint; the uncheckpointed tail must be replayed by a peer.
``gateway-hang``
    The pump wedges (stuck I/O, deadlock): frames stop moving while
    intake backs up; only heartbeat supervision can notice.
``slow-drain``
    The pump crawls (degraded disk, CPU starvation): progress
    continues but so slowly the heartbeat declares the gateway dead.
``checkpoint-corrupt``
    A kill *plus* scribbled bytes over the newest checkpoint
    generation: the successor must quarantine it and fall back one
    generation, replaying a longer tail.
``queue-stall``
    A hang with a tiny intake queue: the producer blocks on a full
    queue, exercising partial-admission (``QueueClosed.admitted``)
    accounting through the failover.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .plan import FaultPlanError, stable_uniform

#: Every scenario the federation must survive bit-identical; each is
#: one ``chaos-federation-<scenario>`` oracle in :mod:`repro.check.chaos`.
SERVICE_FAULT_SCENARIOS: tuple[str, ...] = (
    "gateway-kill",
    "gateway-hang",
    "slow-drain",
    "checkpoint-corrupt",
    "queue-stall",
)

_STREAM = "service-fault-plan"


@dataclass(frozen=True, slots=True)
class ServiceFault:
    """One scheduled gateway-level failure.

    ``after_frames`` is the trigger: the fault fires the first time the
    victim gateway's ``frames_processed`` watermark reaches it. Frame
    counts — never wall-clock — keep the schedule deterministic.
    """

    #: One of :data:`SERVICE_FAULT_SCENARIOS`' kinds ("kill", "hang",
    #: "slow-drain", "checkpoint-corrupt", "queue-stall").
    kind: str
    #: Home-partition index of the gateway this fault targets.
    gateway_index: int
    #: Fires when the victim's frames_processed reaches this count.
    after_frames: int
    #: slow-drain only: per-batch delay, drawn so the heartbeat
    #: supervisor is guaranteed to declare the gateway stalled.
    delay_s: float = 0.0
    #: queue-stall only: clamp the victim's intake queue this small so
    #: the producer blocks against it.
    queue_capacity: int | None = None


@dataclass(frozen=True, slots=True)
class ServiceFaultPlan:
    """A frozen schedule of gateway faults for one federation run."""

    scenario: str
    seed: int
    gateway_count: int
    faults: tuple[ServiceFault, ...] = field(default_factory=tuple)

    def faults_for(self, gateway_index: int) -> tuple[ServiceFault, ...]:
        """The faults targeting one gateway, in trigger order."""
        return tuple(sorted(
            (fault for fault in self.faults
             if fault.gateway_index == gateway_index),
            key=lambda fault: fault.after_frames))


def build_service_fault_plan(scenario: str, seed: int,
                             gateway_count: int,
                             frames_hint: int) -> ServiceFaultPlan:
    """Pre-draw the fault schedule for ``scenario``.

    ``frames_hint`` is the approximate per-gateway frame budget; the
    trigger lands in the middle 30–60% of it so there is always an
    uncheckpointed tail to replay *and* stream left to fail over. All
    draws go through :func:`stable_uniform` keyed on
    ``(seed, stream, scenario, field)`` so the schedule is a pure
    function of the arguments.
    """
    if scenario not in SERVICE_FAULT_SCENARIOS:
        raise FaultPlanError(
            f"unknown service fault scenario {scenario!r}; expected one "
            f"of {', '.join(SERVICE_FAULT_SCENARIOS)}")
    if gateway_count < 2:
        raise FaultPlanError(
            "service fault plans need gateway_count >= 2 so a peer "
            "exists to fail the stream over to")
    if frames_hint < 1:
        raise FaultPlanError("frames_hint must be >= 1")
    victim = int(stable_uniform(seed, _STREAM, scenario, "victim")
                 * gateway_count)
    after = max(1, int(frames_hint * (
        0.3 + 0.3 * stable_uniform(seed, _STREAM, scenario, "after"))))
    kind = {
        "gateway-kill": "kill",
        "gateway-hang": "hang",
        "slow-drain": "slow-drain",
        "checkpoint-corrupt": "checkpoint-corrupt",
        "queue-stall": "queue-stall",
    }[scenario]
    delay_s = 0.0
    queue_capacity: int | None = None
    if kind == "slow-drain":
        # Several multiples of any sane heartbeat timeout, so the
        # supervisor is guaranteed to intervene mid-sleep; jittered so
        # distinct seeds exercise distinct schedules. The victim is
        # killed during the sleep, so the magnitude never extends the
        # run — only the heartbeat timeout does.
        delay_s = 2.0 + 1.0 * stable_uniform(seed, _STREAM, scenario,
                                             "delay")
        queue_capacity = 256
    elif kind == "queue-stall":
        queue_capacity = 64
    fault = ServiceFault(kind=kind, gateway_index=victim,
                         after_frames=after, delay_s=delay_s,
                         queue_capacity=queue_capacity)
    return ServiceFaultPlan(scenario=scenario, seed=seed,
                            gateway_count=gateway_count, faults=(fault,))
