"""Run-wide invariant audits: cross-check every energy integral.

Every headline number in the reproduction — Table 1 average currents,
Figure 3 traces, Figure 4 lifetimes — is an integral over the simulated
timeline, so a clock or sampling bug corrupts the results silently. The
auditor re-derives each quantity along independent paths and flags any
disagreement:

* **charge conservation** — ``CurrentTrace.charge_c()`` must equal the
  sum of ``charge_by_label()`` and ``average_current_a() * duration``
  to within a relative tolerance (default 1e-9);
* **monotonic segment times** — segments ordered, non-negative spans,
  no overlaps;
* **no active gaps** — the trace may only have holes between idle
  phases (a gap inside an active exchange means a phase went
  unaccounted);
* **sampling consistency** — the 50 kS/s multimeter resampling path
  must integrate to the exact charge within the boundary-error bound;
* **scenario sanity** — reported energies, windows and currents are
  finite and positive, frame logs are time-ordered.

``python -m repro.experiments --audit`` runs the full set over all four
scenarios and fails the process if any invariant is violated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..energy.trace import CurrentTrace

#: Phase labels during which a trace gap is benign (device parked).
IDLE_LABELS = frozenset({"sleep", "idle", "deep-sleep"})

#: Default relative tolerance for charge-conservation cross-checks.
CHARGE_REL_TOL = 1e-9

#: Absolute charge floor below which relative comparison is meaningless.
_CHARGE_ABS_FLOOR_C = 1e-15


@dataclass(frozen=True, slots=True)
class AuditFinding:
    """One violated invariant."""

    invariant: str
    subject: str
    message: str


@dataclass
class AuditReport:
    """The outcome of an audit pass: checks performed, findings raised."""

    findings: list[AuditFinding] = field(default_factory=list)
    checks: int = 0
    #: Every subject audited, in first-audited order, each named once.
    subjects: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def merge(self, other: "AuditReport") -> None:
        """Fold another report's checks, findings and subjects into this
        one."""
        self.findings.extend(other.findings)
        self.checks += other.checks
        for subject in other.subjects:
            if subject not in self.subjects:
                self.subjects.append(subject)

    def render(self) -> str:
        """A human-readable pass/fail summary."""
        lines = [f"invariant audit: {self.checks} checks, "
                 f"{len(self.findings)} violations"]
        for finding in self.findings:
            lines.append(
                f"  FAIL [{finding.invariant}] {finding.subject}: "
                f"{finding.message}")
        if self.ok:
            lines.append("  all invariants hold")
        return "\n".join(lines)


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), _CHARGE_ABS_FLOOR_C)
    return abs(a - b) / scale


def audit_trace(trace: CurrentTrace, subject: str = "trace",
                rel_tol: float = CHARGE_REL_TOL,
                idle_labels: frozenset[str] = IDLE_LABELS,
                sample_rate_hz: float | None = 50_000.0) -> AuditReport:
    """Audit one current trace's internal consistency.

    Args:
        trace: the trace to check.
        subject: name used in findings (typically the scenario name).
        rel_tol: relative tolerance for charge cross-checks.
        idle_labels: phase labels where gaps are permitted.
        sample_rate_hz: rate for the resampling cross-check, or None to
            skip it (it costs O(duration * rate)).
    """
    report = AuditReport(subjects=[subject])
    segments = trace.segments

    # Invariant: monotonic, non-overlapping, non-negative segment times.
    report.checks += 1
    previous_end = -math.inf
    for index, segment in enumerate(segments):
        if segment.duration_s < 0:
            report.findings.append(AuditFinding(
                "monotonic-times", subject,
                f"segment {index} has negative duration "
                f"{segment.duration_s}"))
        if segment.start_s < previous_end - 1e-12:
            report.findings.append(AuditFinding(
                "monotonic-times", subject,
                f"segment {index} at {segment.start_s}s overlaps previous "
                f"ending {previous_end}s"))
        previous_end = max(previous_end, segment.end_s)

    # Invariant: charge conservation across independent derivations.
    report.checks += 1
    exact_c = trace.charge_c()
    by_label_c = math.fsum(trace.charge_by_label().values())
    if _rel_err(exact_c, by_label_c) > rel_tol:
        report.findings.append(AuditFinding(
            "charge-conservation", subject,
            f"charge_c()={exact_c!r} C but charge_by_label() sums to "
            f"{by_label_c!r} C (rel err {_rel_err(exact_c, by_label_c):.3g})"))
    if trace.duration_s > 0:
        report.checks += 1
        averaged_c = trace.average_current_a() * trace.duration_s
        if _rel_err(exact_c, averaged_c) > rel_tol:
            report.findings.append(AuditFinding(
                "charge-conservation", subject,
                f"average_current_a()*duration={averaged_c!r} C but "
                f"charge_c()={exact_c!r} C "
                f"(rel err {_rel_err(exact_c, averaged_c):.3g})"))

    # Invariant: gaps only between idle phases.
    report.checks += 1
    for index in range(1, len(segments)):
        previous, current = segments[index - 1], segments[index]
        gap_s = current.start_s - previous.end_s
        if gap_s <= 1e-12:
            continue
        if (previous.label not in idle_labels
                or current.label not in idle_labels):
            report.findings.append(AuditFinding(
                "active-gaps", subject,
                f"{gap_s:.3g}s gap at {previous.end_s}s between active "
                f"phases {previous.label!r} and {current.label!r}"))

    # Invariant: the multimeter resampling path integrates to the exact
    # charge. Each segment boundary can mis-attribute at most one sample
    # period of the worst-case current, so the Riemann sum must land
    # within that bound of the exact integral.
    if sample_rate_hz is not None and segments and trace.duration_s > 0:
        report.checks += 1
        _times, currents = trace.sample(sample_rate_hz)
        sampled_c = float(np.sum(currents)) / sample_rate_hz
        bound_c = (2.0 * (len(segments) + 1) * trace.peak_current_a()
                   / sample_rate_hz) + rel_tol * max(abs(exact_c), 1.0)
        if abs(sampled_c - exact_c) > bound_c:
            report.findings.append(AuditFinding(
                "sampling-consistency", subject,
                f"{sample_rate_hz:g} S/s resampling integrates to "
                f"{sampled_c!r} C, exact is {exact_c!r} C "
                f"(error {abs(sampled_c - exact_c):.3g} C exceeds bound "
                f"{bound_c:.3g} C)"))
    return report


def audit_scenario(result, rel_tol: float = CHARGE_REL_TOL,
                   sample_rate_hz: float | None = 50_000.0) -> AuditReport:
    """Audit one :class:`~repro.scenarios.base.ScenarioResult`.

    Accepts the result duck-typed (name / energy_per_packet_j / t_tx_s /
    idle_current_a / supply_voltage_v / trace / frame_log) so the audit
    layer never imports the scenario layer.
    """
    subject = result.name
    report = AuditReport(subjects=[subject])

    report.checks += 1
    for attribute in ("energy_per_packet_j", "t_tx_s", "supply_voltage_v"):
        value = getattr(result, attribute)
        if not math.isfinite(value) or value <= 0:
            report.findings.append(AuditFinding(
                "scenario-sanity", subject,
                f"{attribute}={value!r} is not finite and positive"))
    if not math.isfinite(result.idle_current_a) or result.idle_current_a < 0:
        report.findings.append(AuditFinding(
            "scenario-sanity", subject,
            f"idle_current_a={result.idle_current_a!r} is not finite and "
            f"non-negative"))

    if result.trace is not None:
        report.merge(audit_trace(result.trace, subject=subject,
                                 rel_tol=rel_tol,
                                 sample_rate_hz=sample_rate_hz))

    if result.frame_log is not None:
        report.checks += 1
        times = [entry.time_s for entry in result.frame_log.entries]
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            report.findings.append(AuditFinding(
                "frame-log-monotonic", subject,
                "frame log timestamps go backwards"))

    harvest = getattr(result, "details", {}).get("harvest")
    if harvest is not None:
        report.merge(audit_harvest(harvest, subject=subject,
                                   rel_tol=rel_tol))
    return report


def audit_harvest(run, subject: str = "harvest",
                  rel_tol: float = CHARGE_REL_TOL) -> AuditReport:
    """Audit one harvest-gated run's energy and report accounting.

    Duck-typed on :class:`repro.energy.harvest.HarvestRun` (so the
    audit layer never imports the energy-policy layer):

    * **harvest-conservation** — the capacitor's books balance:
      ``initial + harvested == store + leaked + loaded + spilled`` to
      the charge tolerance. Every joule that crossed the bank boundary
      is in exactly one ledger;
    * **report-accounting** — every scheduled report was decided
      exactly once (``attempts == transmitted + missed``) and the load
      ledger equals ``transmitted * wake_cost_j`` plus the brownout
      drains — a transmission can only ever draw the full wake cost;
    * **store-bounds** — the store never went negative and never
      exceeded the capacitor's capacity, including at the extremes the
      run witnessed;
    * **non-negative counters** — no ledger or counter went backwards.
    """
    report = AuditReport(subjects=[subject])

    report.checks += 1
    error_j = run.conservation_error_j()
    scale_j = max(abs(run.initial_j) + abs(run.harvested_j), 1e-12)
    if error_j / scale_j > rel_tol:
        report.findings.append(AuditFinding(
            "harvest-conservation", subject,
            f"initial {run.initial_j!r} J + harvested {run.harvested_j!r} J "
            f"does not balance store {run.final_store_j!r} + leaked "
            f"{run.leaked_j!r} + loaded {run.loaded_j!r} + spilled "
            f"{run.spilled_j!r} (error {error_j:.3g} J)"))

    report.checks += 1
    if run.attempts != run.transmitted + run.missed:
        report.findings.append(AuditFinding(
            "report-accounting", subject,
            f"{run.attempts} attempts but {run.transmitted} transmitted "
            f"+ {run.missed} missed"))
    expected_load_j = run.transmitted * run.wake_cost_j + run.brownout_drain_j
    if _rel_err(expected_load_j, run.loaded_j) > rel_tol and \
            abs(expected_load_j - run.loaded_j) > 1e-12:
        report.findings.append(AuditFinding(
            "report-accounting", subject,
            f"{run.transmitted} transmissions x {run.wake_cost_j!r} J "
            f"+ {run.brownout_drain_j!r} J brownout drain should load "
            f"{expected_load_j!r} J but the ledger says {run.loaded_j!r} J"))

    report.checks += 1
    slack_j = rel_tol * max(run.capacity_j, 1.0)
    if run.min_store_j < -slack_j or run.max_store_j > run.capacity_j + slack_j:
        report.findings.append(AuditFinding(
            "store-bounds", subject,
            f"store ranged [{run.min_store_j!r}, {run.max_store_j!r}] J "
            f"outside [0, {run.capacity_j!r}] J"))
    if not 0.0 - slack_j <= run.final_store_j <= run.capacity_j + slack_j:
        report.findings.append(AuditFinding(
            "store-bounds", subject,
            f"final store {run.final_store_j!r} J outside "
            f"[0, {run.capacity_j!r}] J"))

    report.checks += 1
    for attribute in ("attempts", "transmitted", "missed", "brownouts",
                      "brownout_drain_j", "harvested_j", "leaked_j",
                      "loaded_j", "spilled_j"):
        value = getattr(run, attribute)
        if value < 0:
            report.findings.append(AuditFinding(
                "non-negative-counters", subject,
                f"{attribute}={value!r} is negative"))
    return report


def audit_fleet(aggregate, subject: str = "fleet") -> AuditReport:
    """Audit a merged :class:`~repro.fleet.aggregate.FleetAggregate`.

    Duck-typed like :func:`audit_scenario` so the audit layer never
    imports the fleet layer. The invariants are the accounting rules the
    sharded runner promises:

    * **uplink conservation** — every completed beacon is decided
      exactly once: delivered + collision + snr + out-of-range == sent;
    * **pair dominance** — the designated-gateway decision is one of the
      pair decisions, so each pair counter bounds its uplink twin;
    * **wake accounting** — a device cannot transmit more often than it
      woke: wakes >= sent + in-flight;
    * **population accounting** — the energy and current summaries (and
      the current histogram) saw exactly one observation per device;
    * **bounded rates** — delivery/collision rates and channel
      utilisation are fractions, and every moment is finite.
    """
    report = AuditReport(subjects=[subject])

    report.checks += 1
    decided = (aggregate.uplink_delivered + aggregate.uplink_lost_collision
               + aggregate.uplink_lost_snr + aggregate.uplink_out_of_range)
    if decided != aggregate.beacons_sent:
        report.findings.append(AuditFinding(
            "uplink-conservation", subject,
            f"{decided} uplink decisions for {aggregate.beacons_sent} "
            f"completed beacons"))

    report.checks += 1
    for pair_name, uplink_name in (
            ("pair_delivered", "uplink_delivered"),
            ("pair_lost_collision", "uplink_lost_collision"),
            ("pair_lost_snr", "uplink_lost_snr")):
        pair, uplink = getattr(aggregate, pair_name), getattr(aggregate,
                                                             uplink_name)
        if pair < uplink:
            report.findings.append(AuditFinding(
                "pair-dominance", subject,
                f"{pair_name}={pair} < {uplink_name}={uplink}"))

    report.checks += 1
    on_air = aggregate.beacons_sent + aggregate.beacons_in_flight
    if aggregate.wakes < on_air:
        report.findings.append(AuditFinding(
            "wake-accounting", subject,
            f"{aggregate.wakes} wakes but {on_air} transmissions"))

    report.checks += 1
    for summary_name in ("energy_j", "avg_current_a"):
        count = getattr(aggregate, summary_name).count
        if count != aggregate.device_count:
            report.findings.append(AuditFinding(
                "population-accounting", subject,
                f"{summary_name} saw {count} observations for "
                f"{aggregate.device_count} devices"))
    if aggregate.current_histogram.total != aggregate.device_count:
        report.findings.append(AuditFinding(
            "population-accounting", subject,
            f"current histogram holds {aggregate.current_histogram.total} "
            f"observations for {aggregate.device_count} devices"))

    report.checks += 1
    for rate_name in ("delivery_rate", "collision_rate",
                      "channel_utilisation"):
        rate = getattr(aggregate, rate_name)
        if not 0.0 <= rate <= 1.0:
            report.findings.append(AuditFinding(
                "bounded-rates", subject,
                f"{rate_name}={rate!r} is not a fraction"))
    moments = [aggregate.airtime_s]
    for summary_name in ("energy_j", "avg_current_a"):
        summary = getattr(aggregate, summary_name)
        if summary.count:
            moments += [summary.mean, summary.std,
                        summary.minimum, summary.maximum]
    if any(not math.isfinite(value) for value in moments):
        report.findings.append(AuditFinding(
            "bounded-rates", subject, "non-finite moment statistic"))
    return report


def audit_faults(point, subject: str | None = None,
                 rel_tol: float = CHARGE_REL_TOL) -> AuditReport:
    """Audit one fault-injected run (a resilience sweep cell).

    Duck-typed on the resilience experiment's point object (so the audit
    layer never imports the faults layer):

    * **fault-conservation** — every fault event the plan scheduled
      actually fired by the horizon (``point.fault_stats.
      conservation_pairs()`` must agree pairwise). A window that opened
      but never closed, or a brownout that silently vanished from the
      event queue, shows up here;
    * **delivery-conservation** — at the gateway, every transmitted copy
      is accounted exactly once: delivered + injected-loss + snr-loss +
      collision-loss + suppressed-by-outage == copies sent. The
      ``suppressed`` term is derived independently from the outage
      windows, so it cross-checks the outage scheduling too;
    * **reboot-energy** — the energy charged to brownouts equals
      reboots x one boot cost (each reboot pays the full §5.2 boot
      window, no more, no less);
    * **non-negative counters** — no accounting path went backwards.
    """
    if subject is None:
        subject = getattr(point, "name", "faults")
    report = AuditReport(subjects=[subject])

    report.checks += 1
    for name, scheduled, fired in point.fault_stats.conservation_pairs():
        if scheduled != fired:
            report.findings.append(AuditFinding(
                "fault-conservation", subject,
                f"{name}: scheduled {scheduled} events but {fired} fired"))

    report.checks += 1
    accounted = (point.delivered + point.lost_injected + point.lost_snr
                 + point.lost_collision + point.suppressed)
    if accounted != point.copies_sent:
        report.findings.append(AuditFinding(
            "delivery-conservation", subject,
            f"delivered {point.delivered} + injected {point.lost_injected} "
            f"+ snr {point.lost_snr} + collision {point.lost_collision} "
            f"+ suppressed {point.suppressed} = {accounted}, but "
            f"{point.copies_sent} copies were sent"))

    report.checks += 1
    expected_j = point.reboots * point.boot_energy_j
    if _rel_err(expected_j, point.fault_energy_j) > rel_tol:
        report.findings.append(AuditFinding(
            "reboot-energy", subject,
            f"{point.reboots} reboots should cost {expected_j!r} J but "
            f"{point.fault_energy_j!r} J was charged "
            f"(rel err {_rel_err(expected_j, point.fault_energy_j):.3g})"))

    report.checks += 1
    for attribute in ("copies_sent", "delivered", "lost_injected",
                      "lost_snr", "lost_collision", "suppressed",
                      "reboots"):
        value = getattr(point, attribute)
        if value < 0:
            report.findings.append(AuditFinding(
                "non-negative-counters", subject,
                f"{attribute}={value} is negative"))
    return report


def audit_mobility(point, subject: str | None = None) -> AuditReport:
    """Audit one mobility sweep cell.

    Duck-typed on the mobility experiment's point object (so the audit
    layer never imports the mobility layer):

    * **wile-handoff-free** — the paper's structural claim, checked as
      an exact-zero: a Wi-LE cell's handoff energy, per-handoff unit
      cost and re-association frame counts are all exactly 0, however
      many AP changes occurred;
    * **handoff-energy-conservation** — the handoff energy charged is
      exactly ``(handoffs + reacquisitions) * handoff_unit_j``: an
      integer event count times the one replayed unit cost, so any
      drift between the walk accounting and the cost model is a bit
      difference, not a tolerance call;
    * **delivery-bounds** — delivered beacons never exceed sent, and
      total outage time fits inside ``device_count * duration``;
    * **non-negative counters** — no accounting path went backwards.
    """
    if subject is None:
        subject = getattr(point, "name", "mobility")
    report = AuditReport(subjects=[subject])

    report.checks += 1
    if point.cell.technology == "Wi-LE":
        if (point.handoff_energy_j != 0.0 or point.handoff_unit_j != 0.0
                or point.handoff_mac_frames != 0
                or point.handoff_higher_frames != 0):
            report.findings.append(AuditFinding(
                "wile-handoff-free", subject,
                f"Wi-LE must pay exactly zero per handoff, got "
                f"energy={point.handoff_energy_j!r} J, "
                f"unit={point.handoff_unit_j!r} J, "
                f"frames={point.handoff_mac_frames}"
                f"+{point.handoff_higher_frames}"))

    report.checks += 1
    expected_j = point.association_events * point.handoff_unit_j
    if point.handoff_energy_j != expected_j:
        report.findings.append(AuditFinding(
            "handoff-energy-conservation", subject,
            f"{point.association_events} association events x "
            f"{point.handoff_unit_j!r} J should cost {expected_j!r} J "
            f"but {point.handoff_energy_j!r} J was charged"))

    report.checks += 1
    if point.beacons_delivered > point.beacons_sent:
        report.findings.append(AuditFinding(
            "delivery-bounds", subject,
            f"delivered {point.beacons_delivered} beacons exceeds the "
            f"{point.beacons_sent} sent"))
    total_s = point.devices * point.cell.duration_s
    if point.outage_s > total_s:
        report.findings.append(AuditFinding(
            "delivery-bounds", subject,
            f"outage {point.outage_s} s exceeds the cell's "
            f"{total_s} device-seconds"))

    report.checks += 1
    for attribute in ("handoffs", "reacquisitions", "outage_s",
                      "beacons_sent", "beacons_delivered",
                      "handoff_energy_j", "handoff_unit_j"):
        value = getattr(point, attribute)
        if value < 0:
            report.findings.append(AuditFinding(
                "non-negative-counters", subject,
                f"{attribute}={value} is negative"))
    return report


def audit_federation(report_obj, expected_frames: int | None = None,
                     subject: str = "federation") -> AuditReport:
    """Audit one federated run.

    Duck-typed on :class:`repro.service.federation.FederationReport`
    (so the audit layer never imports the service layer):

    * **frame-conservation** — every frame is accounted for exactly
      once: ``ingested + decode_errors == expected_frames`` when the
      caller knows the offered count, and each partition's processed
      count equals its partition size;
    * **backoff-schedule** — every failover event's recorded delay is
      *recomputed* through the report's own seeded ladder
      (``expected_delay(slot, attempt)``) and must match bit for bit —
      the restart schedule is a pure function of the seed, never of
      wall-clock racing;
    * **event-accounting** — failover/restart/handback counters equal
      their event counts, attempts per slot increase by one, and
      restarts never exceed failovers;
    * **non-negative counters** — dedupe and per-partition counts
      never go backwards.
    """
    report = AuditReport(subjects=[subject])

    report.checks += 1
    processed = report_obj.ingested + report_obj.decode_errors
    if expected_frames is not None and processed != expected_frames:
        report.findings.append(AuditFinding(
            "frame-conservation", subject,
            f"{report_obj.ingested} ingested + "
            f"{report_obj.decode_errors} errors = {processed}, but "
            f"{expected_frames} frames were offered"))
    for entry in report_obj.per_partition:
        partition_processed = entry["ingested"] + entry["decode_errors"]
        if partition_processed != entry["frames"]:
            report.findings.append(AuditFinding(
                "frame-conservation",
                f"{subject}/partition_{entry['partition']}",
                f"processed {partition_processed} of the partition's "
                f"{entry['frames']} frames"))

    report.checks += 1
    attempts_seen: dict[int, int] = {}
    for event in report_obj.events:
        if event.kind == "failover":
            expected_delay = report_obj.expected_delay(event.slot,
                                                       event.attempt)
            if event.delay_s != expected_delay:
                report.findings.append(AuditFinding(
                    "backoff-schedule", subject,
                    f"slot {event.slot} attempt {event.attempt} waited "
                    f"{event.delay_s!r} s; the seeded ladder says "
                    f"{expected_delay!r} s"))
            previous = attempts_seen.get(event.slot, 0)
            if event.attempt != previous + 1:
                report.findings.append(AuditFinding(
                    "backoff-schedule", subject,
                    f"slot {event.slot} jumped from attempt {previous} "
                    f"to {event.attempt}"))
            attempts_seen[event.slot] = event.attempt

    report.checks += 1
    by_kind = {"failover": 0, "restart": 0, "handback": 0}
    for event in report_obj.events:
        if event.kind in by_kind:
            by_kind[event.kind] += 1
    for kind, counter in (("failover", report_obj.failovers),
                          ("restart", report_obj.restarts),
                          ("handback", report_obj.handbacks)):
        if by_kind[kind] != counter:
            report.findings.append(AuditFinding(
                "event-accounting", subject,
                f"{counter} {kind}s counted but {by_kind[kind]} "
                f"{kind} events recorded"))
    if report_obj.restarts > report_obj.failovers:
        report.findings.append(AuditFinding(
            "event-accounting", subject,
            f"{report_obj.restarts} restarts exceed "
            f"{report_obj.failovers} failovers"))

    report.checks += 1
    if report_obj.deduped < 0:
        report.findings.append(AuditFinding(
            "non-negative-counters", subject,
            f"deduped={report_obj.deduped} is negative"))
    for entry in report_obj.per_partition:
        for key in ("ingested", "decode_errors", "deduped"):
            if entry[key] < 0:
                report.findings.append(AuditFinding(
                    "non-negative-counters",
                    f"{subject}/partition_{entry['partition']}",
                    f"{key}={entry[key]} is negative"))
    return report


def audit_all(results: dict, rel_tol: float = CHARGE_REL_TOL,
              sample_rate_hz: float | None = 50_000.0) -> AuditReport:
    """Audit every scenario result in ``results`` into one report."""
    report = AuditReport()
    for result in results.values():
        report.merge(audit_scenario(result, rel_tol=rel_tol,
                                    sample_rate_hz=sample_rate_hz))
    return report
