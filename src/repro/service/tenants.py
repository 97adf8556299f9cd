"""Per-tenant streaming aggregation of ingested Wi-LE payloads.

A gateway serving "millions of users" is multi-tenant by construction:
fleets belonging to different owners share the air and the gateway, and
each owner wants *their* delivery statistics. The tenant model mirrors
how the fleet layer already namespaces device ids: the high bits of the
32-bit device id name the tenant (``tenant_of``), so tenancy needs no
lookup table and survives checkpoint/restore trivially.

Like :class:`repro.fleet.aggregate.FleetAggregate`, a
:class:`TenantAggregate` is built from exact counters, Welford
summaries and a fixed-edge histogram, so shard-style guarantees carry
over: decode workers fold their batch into a *partial* aggregate,
partials merge in stream order, and the result is identical in
counters (and to ~1e-9 in moments) to a single sequential pass — the
property the ``chaos-service-worker-kill`` oracle turns into an
executable test.

Sequence accounting is per device (mod-2^16 gaps, exactly the
:mod:`repro.core.gateway` convention): ``missed`` estimates beacons the
gateway never decoded, ``duplicates`` counts same-sequence arrivals
(rebroadcasts or replay overlap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..experiments.statistics import StreamingSummary
from ..fleet.aggregate import MergeableHistogram

#: Device-id bits that stay device-local; the remaining high bits name
#: the tenant. 16/16 splits the 32-bit id space into 64Ki tenants of
#: 64Ki devices each. Fixed: checkpoint manifests record it, so a
#: directory written under another split is refused.
DEFAULT_TENANT_BITS = 16

#: Payload sizes are 0..249 bytes (the vendor-IE ceiling); 16-byte bins
#: keep the histogram small and merges exact.
_SIZE_EDGES = tuple(float(edge) for edge in range(0, 257, 16))


class TenantError(ValueError):
    """Raised for malformed tenant aggregate state."""


def tenant_of(device_id: int) -> int:
    """The tenant owning ``device_id`` (its high id bits)."""
    return device_id >> DEFAULT_TENANT_BITS


def _sequence_gap(previous: int, current: int) -> int:
    """Beacons missed between two sequence numbers (mod 2^16)."""
    gap = (current - previous) & 0xFFFF
    return 0 if gap == 0 else gap - 1


@dataclass(slots=True)
class DeviceChain:
    """One device's sequence bookkeeping, mergeable in stream order."""

    first_sequence: int
    last_sequence: int
    received: int = 1
    missed: int = 0
    duplicates: int = 0

    def observe(self, sequence: int) -> None:
        gap = (sequence - self.last_sequence) & 0xFFFF
        if gap == 0:
            self.duplicates += 1
        else:
            self.missed += gap - 1
        self.received += 1
        self.last_sequence = sequence

    def merge(self, later: "DeviceChain") -> None:
        """Fold a chain whose observations *follow* this one in stream
        order — the only order the service merges in."""
        self.missed += later.missed + _sequence_gap(self.last_sequence,
                                                    later.first_sequence)
        if later.first_sequence == self.last_sequence:
            self.duplicates += 1
        self.duplicates += later.duplicates
        self.received += later.received
        self.last_sequence = later.last_sequence

    def to_state(self) -> list:
        return [self.first_sequence, self.last_sequence, self.received,
                self.missed, self.duplicates]

    @classmethod
    def from_state(cls, state: list) -> "DeviceChain":
        first, last, received, missed, duplicates = state
        return cls(first_sequence=int(first), last_sequence=int(last),
                   received=int(received), missed=int(missed),
                   duplicates=int(duplicates))


@dataclass
class TenantAggregate:
    """One tenant's (or one decode batch's partial) ingest statistics."""

    tenant_id: int = 0
    payloads: int = 0
    readings: int = 0
    encrypted: int = 0
    fragments: int = 0
    payload_bytes: StreamingSummary = field(default_factory=StreamingSummary)
    reading_values: dict[int, StreamingSummary] = field(default_factory=dict)
    size_histogram: MergeableHistogram = field(
        default_factory=lambda: MergeableHistogram(edges=_SIZE_EDGES))
    devices: dict[int, DeviceChain] = field(default_factory=dict)

    def observe(self, payload) -> None:
        """Fold one decoded :class:`~repro.service.ingest.BeaconPayload`."""
        self.payloads += 1
        self.payload_bytes.observe(payload.size)
        self.size_histogram.observe(payload.size)
        if payload.encrypted:
            self.encrypted += 1
        if payload.fragment:
            self.fragments += 1
        chain = self.devices.get(payload.device_id)
        if chain is None:
            self.devices[payload.device_id] = DeviceChain(
                first_sequence=payload.sequence,
                last_sequence=payload.sequence)
        else:
            chain.observe(payload.sequence)
        for kind, value in payload.readings:
            self.readings += 1
            summary = self.reading_values.get(kind)
            if summary is None:
                summary = self.reading_values[kind] = StreamingSummary()
            summary.observe(value)

    def merge(self, later: "TenantAggregate") -> None:
        """Fold a partial whose payloads *follow* this aggregate in
        stream order (the server merges batch partials strictly in
        batch order, which is what makes a rescued batch bit-identical
        to the uninterrupted run)."""
        if later.tenant_id != self.tenant_id and self.payloads:
            raise TenantError(
                f"cannot merge tenant {later.tenant_id} into "
                f"{self.tenant_id}")
        self.tenant_id = self.tenant_id if self.payloads else later.tenant_id
        self.payloads += later.payloads
        self.readings += later.readings
        self.encrypted += later.encrypted
        self.fragments += later.fragments
        self.payload_bytes.merge(later.payload_bytes)
        self.size_histogram.merge(later.size_histogram)
        for device_id, chain in later.devices.items():
            ours = self.devices.get(device_id)
            if ours is None:
                self.devices[device_id] = DeviceChain(
                    first_sequence=chain.first_sequence,
                    last_sequence=chain.last_sequence,
                    received=chain.received, missed=chain.missed,
                    duplicates=chain.duplicates)
            else:
                ours.merge(chain)
        for kind, summary in later.reading_values.items():
            ours_summary = self.reading_values.get(kind)
            if ours_summary is None:
                ours_summary = self.reading_values[kind] = StreamingSummary()
            ours_summary.merge(summary)

    # -- derived ------------------------------------------------------------

    @property
    def device_count(self) -> int:
        return len(self.devices)

    @property
    def missed(self) -> int:
        """Estimated beacons this tenant's devices sent but the gateway
        never decoded (sequence-gap sum across devices)."""
        return sum(chain.missed for chain in self.devices.values())

    @property
    def duplicates(self) -> int:
        return sum(chain.duplicates for chain in self.devices.values())

    @property
    def loss_rate(self) -> float:
        total = self.payloads + self.missed
        return self.missed / total if total else 0.0

    # -- exact state round trip (the checkpoint contract) -------------------

    def to_state(self) -> dict:
        """Exact JSON-serialisable state — the same raw-Welford idiom as
        :meth:`repro.fleet.aggregate.FleetAggregate.to_state`, so a
        restored aggregate is bit-identical to the original."""
        return {
            "tenant_id": self.tenant_id,
            "payloads": self.payloads,
            "readings": self.readings,
            "encrypted": self.encrypted,
            "fragments": self.fragments,
            "payload_bytes": self.payload_bytes.state_dict(),
            "reading_values": {str(kind): summary.state_dict()
                               for kind, summary in
                               sorted(self.reading_values.items())},
            "size_histogram": self.size_histogram.to_dict(),
            "devices": {str(device_id): chain.to_state()
                        for device_id, chain in sorted(self.devices.items())},
        }

    @classmethod
    def from_state(cls, state: dict) -> "TenantAggregate":
        """Exact inverse of :meth:`to_state`."""
        try:
            return cls(
                tenant_id=int(state["tenant_id"]),
                payloads=int(state["payloads"]),
                readings=int(state["readings"]),
                encrypted=int(state["encrypted"]),
                fragments=int(state["fragments"]),
                payload_bytes=StreamingSummary.from_state(
                    state["payload_bytes"]),
                reading_values={
                    int(kind): StreamingSummary.from_state(blob)
                    for kind, blob in state["reading_values"].items()},
                size_histogram=MergeableHistogram.from_dict(
                    state["size_histogram"]),
                devices={int(device_id): DeviceChain.from_state(blob)
                         for device_id, blob in state["devices"].items()},
            )
        except (KeyError, TypeError, AttributeError) as error:
            raise TenantError(f"malformed tenant state: {error}") from None
