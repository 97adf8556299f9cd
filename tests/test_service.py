"""Tests for the always-on gateway ingest service (repro.service).

The load-bearing guarantees, each pinned here:

* the byte-offset fast path in :mod:`repro.service.ingest` agrees with
  the full ``parse_frame``/``decode_beacon`` stack on every frame the
  full stack accepts, and rejects (never mis-decodes) everything else;
* bounded queues apply their declared backpressure policy and count
  every drop and every blocked put;
* per-tenant aggregates merge in stream order with exact counters;
* the service checkpointer rotates generations durably, falls back
  past corruption, and refuses foreign (different tenant split) dirs;
* a SIGKILLed decode worker changes nothing: resubmitted batches merge
  in order and the final aggregates are *bit-identical* to a clean run;
* ``stop()`` drains everything accepted before returning.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import re
import struct
import tempfile
import threading
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.codec import decode_beacon, device_mac, encode_beacon
from repro.core.payload import (
    WILE_VENDOR_TYPE,
    WILE_VERSION,
    PayloadError,
    SensorKind,
    SensorReading,
    WileFlags,
    WileMessage,
    crc16_ccitt,
)
from repro.dot11 import Beacon, Ssid
from repro.dot11.elements import VendorSpecific
from repro.dot11.mac import WILE_OUI
from repro.dot11.parser import ParseError, parse_frame
from repro.experiments.runner import injected
from repro.obs.metrics import METRICS
from repro.service import (
    BackpressurePolicy,
    BeaconPayload,
    BoundedPayloadQueue,
    GatewayService,
    IngestError,
    QueueClosed,
    ServiceCheckpointer,
    ServiceConfig,
    decode_wires,
    extract_payload,
    generate_stream,
    load_stream,
    partition_stream,
    record_stream,
    replay,
    route_wire,
    tenant_of,
)
from repro.service.checkpoint import KEEP_GENERATIONS
from repro.service.ingest import decode_message_blob
from repro.service.server import ServiceError
from repro.service.tenants import (
    DEFAULT_TENANT_BITS,
    DeviceChain,
    TenantAggregate,
    TenantError,
)
from repro.store import CheckpointError, CheckpointMismatchError


# ---------------------------------------------------------------------------
# queues


class TestBoundedPayloadQueue:
    def test_drop_oldest_evicts_and_counts(self):
        async def scenario():
            queue = BoundedPayloadQueue(3, BackpressurePolicy.DROP_OLDEST)
            for item in range(5):
                await queue.put(item)
            batch = await queue.get_batch(10)
            return queue, batch

        queue, batch = asyncio.run(scenario())
        assert batch == [2, 3, 4]
        assert queue.dropped_oldest == 2
        assert queue.accepted == 5
        assert queue.blocked_puts == 0

    def test_block_policy_waits_for_consumer(self):
        async def scenario():
            queue = BoundedPayloadQueue(2, BackpressurePolicy.BLOCK)
            drained = []

            async def producer():
                await queue.put_many(list(range(6)))

            async def consumer():
                while len(drained) < 6:
                    drained.extend(await queue.get_batch(2))
            await asyncio.gather(producer(), consumer())
            return queue, drained

        queue, drained = asyncio.run(scenario())
        assert drained == list(range(6))
        assert queue.dropped_oldest == 0
        assert queue.blocked_puts >= 1

    def test_put_after_close_raises(self):
        async def scenario():
            queue = BoundedPayloadQueue(2)
            await queue.put("a")
            await queue.close()
            with pytest.raises(QueueClosed):
                await queue.put("b")
            # queued items stay drainable after close
            return await queue.get_batch(10)

        assert asyncio.run(scenario()) == ["a"]

    def test_close_releases_blocked_producer(self):
        async def scenario():
            queue = BoundedPayloadQueue(1, BackpressurePolicy.BLOCK)
            await queue.put("a")

            async def producer():
                with pytest.raises(QueueClosed):
                    await queue.put("b")
            task = asyncio.ensure_future(producer())
            await asyncio.sleep(0.01)
            await queue.close()
            await task

        asyncio.run(scenario())

    def test_put_many_returns_admitted_count(self):
        async def scenario():
            queue = BoundedPayloadQueue(8)
            return await queue.put_many([1, 2, 3])

        assert asyncio.run(scenario()) == 3

    def test_put_many_close_mid_chunk_reports_admitted_prefix(self):
        async def scenario():
            queue = BoundedPayloadQueue(2, BackpressurePolicy.BLOCK)

            async def producer():
                with pytest.raises(QueueClosed) as excinfo:
                    await queue.put_many(list(range(5)))
                return excinfo.value.admitted

            task = asyncio.ensure_future(producer())
            await asyncio.sleep(0.01)       # producer blocks after 2 admits
            await queue.close()
            admitted = await task
            return admitted, await queue.get_batch(10)

        admitted, drained = asyncio.run(scenario())
        # the caller can tell exactly which prefix went in (and would be
        # double-ingested by a naive full retry)…
        assert admitted == 2
        # …and that prefix stays drainable.
        assert drained == [0, 1]

    def test_get_batch_flush_timeout_returns_empty(self):
        async def scenario():
            queue = BoundedPayloadQueue(2)
            return await queue.get_batch(10, flush_after_s=0.01)

        assert asyncio.run(scenario()) == []

    def test_policy_parse(self):
        assert BackpressurePolicy.parse("block") is BackpressurePolicy.BLOCK
        assert (BackpressurePolicy.parse("drop-oldest")
                is BackpressurePolicy.DROP_OLDEST)
        with pytest.raises(ValueError):
            BackpressurePolicy.parse("drop-newest")


# ---------------------------------------------------------------------------
# ingest fast path vs the full parser


def _wire(message: WileMessage, sequence: int = 0) -> bytes:
    return encode_beacon(message, sequence=sequence).to_bytes(with_fcs=True)


class TestIngestDifferential:
    def test_matches_full_parser_on_generated_stream(self):
        wires = generate_stream(400, device_count=16, seed=11,
                                encrypted_fraction=0.2,
                                duplicate_fraction=0.05, gap_fraction=0.1)
        for wire in wires:
            payload = extract_payload(wire)
            beacon = parse_frame(wire)
            if payload.encrypted:
                vendor = next(element for element in beacon.elements
                              if isinstance(element, VendorSpecific))
                _, device_id, sequence, _, flags = struct.unpack_from(
                    "<BIHBB", vendor.data)
                assert (device_id, sequence) == (payload.device_id,
                                                 payload.sequence)
                assert flags & 0x01
                assert payload.readings == ()
            else:
                message = decode_beacon(beacon)
                assert message.device_id == payload.device_id
                assert message.sequence == payload.sequence
                assert int(message.message_type) == payload.message_type
                full = [(int(reading.kind), reading.value)
                        for reading in message.readings
                        if not isinstance(reading.value, bytes)]
                assert full == list(payload.readings)

    def test_all_flag_shapes(self):
        cases = [
            WileMessage(device_id=0x00020005, sequence=9,
                        readings=(SensorReading(SensorKind.TEMPERATURE_C,
                                                21.5),
                                  SensorReading(SensorKind.HUMIDITY_PCT,
                                                55.25),
                                  SensorReading(SensorKind.PRESSURE_PA,
                                                101325.0),
                                  SensorReading(SensorKind.COUNTER, 7.0))),
            WileMessage(device_id=0x00020005, sequence=10,
                        flags=WileFlags.RX_WINDOW, rx_window_ms=20,
                        readings=(SensorReading(SensorKind.BATTERY_MV,
                                                2987.0),)),
            WileMessage(device_id=0x00020005, sequence=11,
                        readings=(SensorReading(SensorKind.RAW, b"\x01\x02"),
                                  SensorReading(SensorKind.BATTERY_MV,
                                                3001.0))),
            WileMessage(device_id=0x00020005, sequence=12,
                        flags=WileFlags.FRAGMENT, fragment_index=0,
                        fragment_total=2, raw_body=b"x" * 30),
        ]
        for message in cases:
            payload = extract_payload(_wire(message))
            assert payload.device_id == message.device_id
            assert payload.sequence == message.sequence
            assert payload.fragment == bool(message.flags
                                            & WileFlags.FRAGMENT)
            full = decode_beacon(parse_frame(_wire(message)))
            numeric = [(int(reading.kind), reading.value)
                       for reading in full.readings
                       if not isinstance(reading.value, bytes)]
            assert numeric == list(payload.readings)

    def test_fcs_corruption_rejected_by_both(self):
        wire = bytearray(_wire(WileMessage(
            device_id=7, sequence=1,
            readings=(SensorReading(SensorKind.BATTERY_MV, 3000.0),))))
        wire[30] ^= 0x40
        with pytest.raises(IngestError):
            extract_payload(bytes(wire))
        with pytest.raises(ParseError):
            parse_frame(bytes(wire))

    def test_message_crc_corruption_rejected(self):
        wires = generate_stream(50, seed=13, corrupt_fraction=1.0,
                                encrypted_fraction=0.0)
        rejected = 0
        for wire in wires:
            # FCS was re-sealed by the corruptor, so the frame parses…
            parse_frame(wire)
            # …but the message CRC (or structure) must fail.
            try:
                extract_payload(wire)
            except IngestError:
                rejected += 1
        assert rejected == len(wires)

    def test_non_beacon_and_truncated_rejected(self):
        with pytest.raises(IngestError):
            extract_payload(b"\x00" * 10)
        wire = _wire(WileMessage(device_id=7, sequence=1))
        with pytest.raises(IngestError):
            extract_payload(b"\x48" + wire[1:])  # data frame type bits
        with pytest.raises(IngestError):
            extract_payload(wire[:40])

    def test_decode_wires_counts_errors(self):
        wires = generate_stream(100, seed=5, corrupt_fraction=0.0)
        payloads, errors = decode_wires(list(wires) + [b"junk"])
        assert errors == 1
        assert len(payloads) == 100

    @staticmethod
    def _sealed_blob(tlvs: bytes) -> bytes:
        """A message blob with a *recomputed* CRC16 — only the TLV
        structure inside is wrong, so CRC checks alone cannot reject."""
        body = struct.pack("<BIHBB", WILE_VERSION, 0x00020005, 3, 1, 0) + tlvs
        return body + struct.pack("<H", crc16_ccitt(body))

    @staticmethod
    def _frame_with_blob(blob: bytes) -> bytes:
        mac = device_mac(0x00020005)
        return Beacon(source=mac, bssid=mac,
                      elements=(Ssid.hidden(),
                                VendorSpecific(WILE_OUI, WILE_VENDOR_TYPE,
                                               blob))).to_bytes(with_fcs=True)

    def test_length_mismatched_tlvs_rejected_by_both(self):
        cases = [
            b"\x01\x00",                   # TEMPERATURE_C declaring 0B: the
                                           # value would be read from the CRC
            b"\x01\x04\x00\x00\x00\x00",   # TEMPERATURE_C declaring 4B
            b"\x03\x01\x00",               # BATTERY_MV declaring 1B
            b"\x04\x02\x00\x00",           # PRESSURE_PA declaring 2B: a 4B
                                           # read would swallow the CRC bytes
            b"\x05\x01\x00",               # COUNTER declaring 1B at the blob
                                           # end: a 4B read runs off the blob
        ]
        for tlvs in cases:
            blob = self._sealed_blob(tlvs)
            # the fast path must reject cleanly (never a raw struct.error,
            # never a mis-decoded value)…
            with pytest.raises(IngestError):
                decode_message_blob(blob)
            with pytest.raises(IngestError):
                extract_payload(self._frame_with_blob(blob))
            # …matching the full parser, which accepts no such message.
            with pytest.raises((PayloadError, struct.error)):
                WileMessage.decode(blob)

    def test_decode_wires_survives_length_mismatched_tlv(self):
        good = _wire(WileMessage(
            device_id=0x00020005, sequence=1,
            readings=(SensorReading(SensorKind.COUNTER, 4.0),)))
        # FCS and CRC16 both valid; only the TLV length lies.
        bad = self._frame_with_blob(self._sealed_blob(b"\x05\x01\x00"))
        payloads, errors = decode_wires([good, bad, good])
        assert errors == 1
        assert len(payloads) == 2


# ---------------------------------------------------------------------------
# tenants


class TestTenantAggregate:
    def _payload(self, device_id, sequence, size=40, encrypted=False,
                 fragment=False, readings=((1, 20.0),)):
        return BeaconPayload(device_id=device_id, sequence=sequence,
                             message_type=1, size=size, encrypted=encrypted,
                             fragment=fragment,
                             readings=() if encrypted or fragment
                             else tuple(readings))

    def test_tenant_of_uses_high_bits(self):
        assert tenant_of(0x00030007) == 3
        assert tenant_of((5 << DEFAULT_TENANT_BITS) | 0xFFFF) == 5
        assert tenant_of(42) == 0

    def test_sequence_gaps_duplicates_and_wraparound(self):
        aggregate = TenantAggregate(tenant_id=0)
        for sequence in (1, 2, 2, 5, 0xFFFF, 1):
            aggregate.observe(self._payload(9, sequence))
        chain = aggregate.devices[9]
        # 2->2 duplicate; 2->5 misses 3,4; 5->0xFFFF misses 65529;
        # 0xFFFF->1 wraps, missing 0.
        assert chain.duplicates == 1
        assert chain.missed == 2 + (0xFFFF - 5 - 1) + 1
        assert chain.received == 6
        assert aggregate.payloads == 6

    def test_merge_in_stream_order_matches_sequential(self):
        payloads = [self._payload(device_id, sequence % 7,
                                  size=20 + sequence % 3 * 16,
                                  readings=((1, float(sequence)),
                                            (3, 3000.0 + sequence)))
                    for sequence in range(60)
                    for device_id in (1, 2)]
        sequential = TenantAggregate(tenant_id=0)
        for payload in payloads:
            sequential.observe(payload)
        # non-overlapping split, merged strictly in stream order
        def batched(batch_size):
            merged = TenantAggregate(tenant_id=0)
            for start in range(0, len(payloads), batch_size):
                part = TenantAggregate(tenant_id=0)
                for payload in payloads[start:start + batch_size]:
                    part.observe(payload)
                merged.merge(part)
            return merged

        merged = batched(37)
        merged_state = merged.to_state()
        sequential_state = sequential.to_state()
        # Counters, histograms and sequence chains are exact…
        for key in ("payloads", "readings", "encrypted", "fragments",
                    "devices", "size_histogram"):
            assert merged_state[key] == sequential_state[key]
        # …moments agree to Welford-vs-Chan rounding…
        assert merged.payload_bytes.count == sequential.payload_bytes.count
        assert merged.payload_bytes.mean \
            == pytest.approx(sequential.payload_bytes.mean, rel=1e-12)
        for kind, summary in sequential.reading_values.items():
            assert merged.reading_values[kind].mean \
                == pytest.approx(summary.mean, rel=1e-12)
        # …and the same batching is *bit-identical* (the property the
        # service's ordered merges turn into chaos-proofness).
        assert batched(37).to_state() == merged_state

    def test_state_round_trip_exact(self):
        aggregate = TenantAggregate(tenant_id=5)
        for sequence in range(10):
            aggregate.observe(self._payload((5 << 16) | 3, sequence,
                                            encrypted=sequence % 4 == 0))
        restored = TenantAggregate.from_state(
            json.loads(json.dumps(aggregate.to_state())))
        assert restored.to_state() == aggregate.to_state()
        assert restored.loss_rate == aggregate.loss_rate

    def test_merge_rejects_other_tenant(self):
        ours = TenantAggregate(tenant_id=1)
        ours.observe(self._payload(1 << 16, 0))
        theirs = TenantAggregate(tenant_id=2)
        with pytest.raises(TenantError):
            ours.merge(theirs)

    def test_malformed_state_raises(self):
        with pytest.raises(TenantError):
            TenantAggregate.from_state({"tenant_id": 1})

    def test_device_chain_merge_counts_boundary(self):
        first = DeviceChain(first_sequence=1, last_sequence=3, received=3)
        second = DeviceChain(first_sequence=6, last_sequence=7, received=2)
        first.merge(second)
        assert first.missed == 2  # 4, 5
        assert first.received == 5
        assert first.last_sequence == 7

    def test_device_chain_has_no_instance_dict(self):
        # A gateway holds one chain per device it has heard.
        assert not hasattr(DeviceChain(first_sequence=1, last_sequence=1),
                           "__dict__")


# ---------------------------------------------------------------------------
# checkpointer


def _snapshot(ingested=10):
    aggregate = TenantAggregate(tenant_id=1)
    for sequence in range(ingested):
        aggregate.observe(BeaconPayload(
            device_id=(1 << 16) | 2, sequence=sequence, message_type=1,
            size=30, encrypted=False, fragment=False,
            readings=((1, float(sequence)),)))
    return {"ingested": ingested, "decode_errors": 0,
            "tenants": {"1": aggregate.to_state()}}


class TestServiceCheckpointer:
    def test_round_trip_exact(self, tmp_path):
        checkpointer = ServiceCheckpointer(str(tmp_path))
        snapshot = _snapshot()
        checkpointer.save(snapshot)
        loaded = ServiceCheckpointer(str(tmp_path)).load()
        assert loaded["ingested"] == 10
        assert loaded["tenants"][1].to_state() == snapshot["tenants"]["1"]

    def test_rotation_prunes_to_keep(self, tmp_path):
        checkpointer = ServiceCheckpointer(str(tmp_path))
        for generation in range(6):
            checkpointer.save(_snapshot(generation + 1))
        assert checkpointer.generations() == list(
            range(6 - KEEP_GENERATIONS, 6))
        assert checkpointer.load()["ingested"] == 6

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        checkpointer = ServiceCheckpointer(str(tmp_path))
        checkpointer.save(_snapshot(10))
        path = checkpointer.save(_snapshot(20))
        with open(path, "w") as handle:
            handle.write("{ not json")
        METRICS.clear()
        loaded = ServiceCheckpointer(str(tmp_path)).load()
        assert loaded["ingested"] == 10
        # Corrupt file is quarantined (not deleted): evidence survives,
        # but the generation name no longer matches so later loads skip
        # it without re-parsing.
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert METRICS.get("store.checkpoint_corrupt").value == 1
        METRICS.clear()

    def test_newest_generation_wins_over_a_stale_pointer(self, tmp_path):
        # A crash between writing generation 1 and re-pointing an older
        # build's CURRENT file must still resume from generation 1.
        checkpointer = ServiceCheckpointer(str(tmp_path))
        checkpointer.save(_snapshot(10))
        checkpointer.save(_snapshot(20))
        (tmp_path / "CURRENT").write_text(
            json.dumps({"schema": 1, "generation": 0}))
        assert ServiceCheckpointer(str(tmp_path)).load()["ingested"] == 20

    def test_corrupt_current_pointer_recovers(self, tmp_path):
        checkpointer = ServiceCheckpointer(str(tmp_path))
        checkpointer.save(_snapshot(30))
        with open(tmp_path / "CURRENT", "wb") as handle:
            handle.write(b"\x00\xff")
        assert ServiceCheckpointer(str(tmp_path)).load()["ingested"] == 30

    def test_all_generations_corrupt_means_fresh_start(self, tmp_path):
        checkpointer = ServiceCheckpointer(str(tmp_path))
        for count in (10, 20):
            checkpointer.save(_snapshot(count))
        for generation in checkpointer.generations():
            with open(tmp_path / f"checkpoint_{generation:08d}.json",
                      "w") as handle:
                handle.write("garbage")
        assert ServiceCheckpointer(str(tmp_path)).load() is None

    def test_foreign_tenant_split_refused_not_recomputed(self, tmp_path):
        ServiceCheckpointer(str(tmp_path)).save(_snapshot())
        # The same directory as written under an 8-bit tenant split.
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"schema": 1, "identity": {"tenant_bits": 8}}))
        with pytest.raises(CheckpointMismatchError) as excinfo:
            ServiceCheckpointer(str(tmp_path)).load()
        assert "tenant_bits" in str(excinfo.value)

    def test_manifest_identity_is_stable(self, tmp_path):
        # An on-disk contract: directories written by any earlier build
        # must keep resuming, so the manifest is pinned byte for byte.
        ServiceCheckpointer(str(tmp_path))
        assert json.loads((tmp_path / "manifest.json").read_text()) == {
            "schema": 1, "identity": {"tenant_bits": 16}}

    def test_unfingerprinted_generations_refused(self, tmp_path):
        # Same stance as a fleet directory holding shard checkpoints
        # but no manifest: their provenance cannot be established.
        ServiceCheckpointer(str(tmp_path)).save(_snapshot())
        (tmp_path / "manifest.json").unlink(missing_ok=True)
        with pytest.raises(CheckpointError):
            ServiceCheckpointer(str(tmp_path))

    def test_concurrent_rotation_is_safe(self, tmp_path):
        checkpointer = ServiceCheckpointer(str(tmp_path))
        errors = []

        def writer(worker):
            try:
                for iteration in range(8):
                    checkpointer.save(_snapshot(worker * 100 + iteration))
            except Exception as error:  # pragma: no cover
                errors.append(error)
        threads = [threading.Thread(target=writer, args=(worker,))
                   for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        generations = checkpointer.generations()
        assert len(generations) == KEEP_GENERATIONS
        assert generations[-1] == 31
        assert ServiceCheckpointer(str(tmp_path)).load() is not None

    def test_no_tmp_litter(self, tmp_path):
        checkpointer = ServiceCheckpointer(str(tmp_path))
        checkpointer.save(_snapshot())
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]


# ---------------------------------------------------------------------------
# the service end to end


def _digest(service):
    return {tenant_id: aggregate.to_state()
            for tenant_id, aggregate in sorted(service.tenants.items())}


def _run_stream(wires, **config_kwargs):
    config_kwargs.setdefault("policy", BackpressurePolicy.BLOCK)
    config_kwargs.setdefault("metrics_interval_s", 0.0)
    config_kwargs.setdefault("checkpoint_interval_s", 0.0)

    async def scenario():
        service = GatewayService(ServiceConfig(**config_kwargs))
        await service.start()
        await replay(service, wires)
        await service.stop()
        return service

    return asyncio.run(scenario())


class TestGatewayService:
    WIRES = generate_stream(8000, device_count=24, seed=21,
                            corrupt_fraction=0.005)

    def test_inline_ingest_accounts_for_every_frame(self):
        service = _run_stream(self.WIRES, batch_size=512)
        stats = service.stats()
        assert stats.ingested + stats.decode_errors == len(self.WIRES)
        assert stats.decode_errors > 0
        assert stats.queue_depth == 0
        assert stats.batches_merged == stats.batches_dispatched

    def test_pool_matches_inline_counters(self):
        inline = _run_stream(self.WIRES, batch_size=512)
        pooled = _run_stream(self.WIRES, batch_size=512, workers=1)
        assert _digest(pooled) == _digest(inline)

    def test_chaos_kill_bit_identical_to_clean_run(self):
        clean = _run_stream(self.WIRES, batch_size=512, workers=1)
        with injected({"service.batch": 4}):
            chaos = _run_stream(self.WIRES, batch_size=512, workers=1)
        assert chaos.stats().rescued_batches > 0
        assert _digest(chaos) == _digest(clean)

    def test_poison_batch_falls_back_to_serial_rescue(self, monkeypatch):
        # RETRIES=0: the killed batch immediately decodes in-process.
        monkeypatch.setattr("repro.experiments.runner.RETRIES", 0)
        clean = _run_stream(self.WIRES, batch_size=512, workers=1)
        with injected({"service.batch": 2}):
            chaos = _run_stream(self.WIRES, batch_size=512, workers=1)
        assert chaos.stats().rescued_batches > 0
        assert _digest(chaos) == _digest(clean)

    def test_checkpoint_resume_matches_clean_counters(self, tmp_path):
        half = len(self.WIRES) // 2
        directory = str(tmp_path / "ckpt")
        _run_stream(self.WIRES[:half], checkpoint_dir=directory)
        resumed = _run_stream(self.WIRES[half:], checkpoint_dir=directory)
        clean = _run_stream(self.WIRES)
        assert resumed.stats().ingested == clean.stats().ingested
        resumed_digest, clean_digest = _digest(resumed), _digest(clean)
        assert resumed_digest.keys() == clean_digest.keys()
        for tenant_id in clean_digest:
            for key in ("payloads", "readings", "encrypted", "fragments",
                        "devices", "size_histogram"):
                assert resumed_digest[tenant_id][key] \
                    == clean_digest[tenant_id][key]

    def test_corrupt_service_checkpoint_recovers_previous(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        first = _run_stream(self.WIRES[:2000], checkpoint_dir=directory)
        checkpointer = ServiceCheckpointer(directory)
        newest = checkpointer.generations()[-1]
        with open(os.path.join(directory,
                               f"checkpoint_{newest:08d}.json"),
                  "w") as handle:
            handle.write("{ nope")
        # KEEP_GENERATIONS >= 2 means an older full snapshot survives…
        resumed = _run_stream(self.WIRES[2000:4000],
                              checkpoint_dir=directory)
        # …but only stop() wrote generations here (interval 0), so the
        # only earlier generation is the final one of run 1 — identical
        # content — making resume equivalent to the uncorrupted case.
        assert resumed.stats().ingested >= first.stats().ingested

    def test_drop_oldest_under_pressure_counts_drops(self):
        async def scenario():
            config = ServiceConfig(queue_capacity=64, batch_size=64,
                                   policy=BackpressurePolicy.DROP_OLDEST,
                                   metrics_interval_s=0.0,
                                   checkpoint_interval_s=0.0)
            service = GatewayService(config)
            await service.start()
            # one giant burst without yielding: must overflow the queue
            await service.submit_many(self.WIRES[:4000])
            await service.stop()
            return service

        service = asyncio.run(scenario())
        stats = service.stats()
        assert stats.dropped_oldest > 0
        assert stats.ingested + stats.decode_errors \
            == stats.queue_accepted - stats.dropped_oldest

    def test_metrics_published(self):
        METRICS.clear()
        service = _run_stream(self.WIRES[:1000], metrics_interval_s=0.001)
        assert METRICS.get("service.ingested") is not None
        ingested = METRICS.get("service.ingested").value
        assert ingested == service.stats().ingested
        assert METRICS.get("service.queue_depth").value == 0.0
        METRICS.clear()

    def test_pump_failure_poisons_intake_and_surfaces_at_stop(
            self, monkeypatch):
        def boom(batch):
            raise RuntimeError("decoder exploded")

        monkeypatch.setattr("repro.service.server.decode_wires", boom)

        async def scenario():
            service = GatewayService(ServiceConfig(
                metrics_interval_s=0.0, checkpoint_interval_s=0.0,
                flush_after_s=0.005))
            await service.start()
            await service.submit(self.WIRES[0])
            for _ in range(200):            # wait for the pump to hit it
                if service._pump_error is not None:
                    break
                await asyncio.sleep(0.005)
            # intake is poisoned immediately, not only at stop()…
            with pytest.raises(ServiceError):
                await service.submit(self.WIRES[1])
            # …and stop() re-raises with the original cause chained.
            with pytest.raises(ServiceError) as excinfo:
                await service.stop()
            return excinfo.value

        error = asyncio.run(scenario())
        assert isinstance(error.__cause__, RuntimeError)

    def test_checkpoint_writes_are_serialized(self, tmp_path):
        # Concurrent saves (a periodic one racing the final post-drain
        # one) must never overlap: overlap lets a stale snapshot take a
        # higher generation and shadow the drained state after restart.
        async def scenario():
            service = GatewayService(ServiceConfig(
                checkpoint_dir=str(tmp_path / "ckpt"),
                metrics_interval_s=0.0, checkpoint_interval_s=0.0))
            await service.start()
            real_save = service.checkpointer.save
            active = peak = 0

            def slow_save(snapshot):
                nonlocal active, peak
                active += 1
                peak = max(peak, active)
                time.sleep(0.02)
                try:
                    return real_save(snapshot)
                finally:
                    active -= 1

            service.checkpointer.save = slow_save
            await asyncio.gather(service._write_checkpoint(),
                                 service._write_checkpoint())
            service.checkpointer.save = real_save
            await service.stop()
            return peak

        assert asyncio.run(scenario()) == 1

    def test_failed_periodic_checkpoint_keeps_the_cadence(self, tmp_path):
        # One OSError from a periodic save must not end durability: the
        # pump counts it and keeps saving, and stop() still writes the
        # final checkpoint and releases the checkpoint thread.
        directory = str(tmp_path / "ckpt")
        METRICS.clear()

        async def scenario():
            service = GatewayService(ServiceConfig(
                checkpoint_dir=directory, policy=BackpressurePolicy.BLOCK,
                metrics_interval_s=0.0, checkpoint_interval_s=0.01))
            real_save = service.checkpointer.save
            failures = [OSError("injected: disk hiccup")]

            def flaky_save(snapshot):
                if failures:
                    raise failures.pop()
                return real_save(snapshot)

            service.checkpointer.save = flaky_save
            await service.start()
            await replay(service, self.WIRES[:4000])
            for _ in range(200):
                if service.stats().checkpoints_written:
                    break
                await asyncio.sleep(0.01)
            periodic = service.stats().checkpoints_written
            await service.stop()
            return service, periodic

        service, periodic = asyncio.run(scenario())
        assert METRICS.get("service.checkpoint_failures").value == 1
        assert periodic >= 1
        assert service.stats().checkpoints_written > periodic  # the final
        assert service._checkpoint_executor is None
        loaded = ServiceCheckpointer(directory).load()
        assert loaded["ingested"] == service.stats().ingested
        METRICS.clear()

    def test_checkpoint_interval_holds_under_an_unpaced_producer(
            self, tmp_path):
        # The pump does not yield while frames are queued, so it must
        # start due saves itself: a producer that keeps the default
        # queue full may not starve the cadence.
        interval = 0.2
        # 120,000 frames; tiled, because generating them takes longer
        # than ingesting them.
        wires = list(generate_stream(8_000, device_count=64, seed=0)) * 15

        async def scenario():
            service = GatewayService(ServiceConfig(
                checkpoint_dir=str(tmp_path / "ckpt"),
                policy=BackpressurePolicy.BLOCK,
                checkpoint_interval_s=interval, durable_checkpoints=False))
            started = time.perf_counter()
            await service.start()
            await replay(service, wires)
            await service.stop()
            return service, time.perf_counter() - started

        service, elapsed = asyncio.run(scenario())
        periodic = service.stats().checkpoints_written - 1
        assert periodic >= int(elapsed // interval) - 1, elapsed

    def test_unexpected_periodic_save_error_surfaces_at_stop(self, tmp_path):
        # Anything but OSError from a periodic save is a bug, not a disk
        # hiccup: no periodic save follows it, and stop() re-raises it
        # after the final checkpoint, with the checkpoint thread released.
        async def scenario():
            service = GatewayService(ServiceConfig(
                checkpoint_dir=str(tmp_path / "ckpt"),
                policy=BackpressurePolicy.BLOCK, metrics_interval_s=0.0,
                checkpoint_interval_s=0.01, flush_after_s=0.005))
            real_save = service.checkpointer.save
            calls = []

            def buggy_save(snapshot):
                calls.append(snapshot)
                if len(calls) == 1:
                    raise RuntimeError("injected: serialiser bug")
                return real_save(snapshot)

            service.checkpointer.save = buggy_save
            await service.start()
            await replay(service, self.WIRES[:2000])
            await asyncio.sleep(0.1)
            with pytest.raises(RuntimeError, match="serialiser bug"):
                await service.stop()
            return service, calls

        service, calls = asyncio.run(scenario())
        assert len(calls) == 2              # the failed one and the final
        assert service._checkpoint_executor is None
        loaded = ServiceCheckpointer(str(tmp_path / "ckpt")).load()
        assert loaded["ingested"] == service.stats().ingested

    def test_failed_final_checkpoint_raises_and_releases(self, tmp_path):
        async def scenario():
            service = GatewayService(ServiceConfig(
                checkpoint_dir=str(tmp_path / "ckpt"), workers=1,
                policy=BackpressurePolicy.BLOCK, metrics_interval_s=0.0,
                checkpoint_interval_s=0.0))
            await service.start()
            await replay(service, self.WIRES[:1000])

            def broken_save(snapshot):
                raise OSError("injected: disk full")

            service.checkpointer.save = broken_save
            with pytest.raises(ServiceError) as excinfo:
                await service.stop()
            return service, excinfo.value

        service, error = asyncio.run(scenario())
        assert isinstance(error.__cause__, OSError)
        assert service._checkpoint_executor is None
        assert service._pool._executor is None

    def test_final_checkpoint_reflects_full_drain(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        service = _run_stream(self.WIRES[:2000], checkpoint_dir=directory,
                              checkpoint_interval_s=0.001)
        # The newest generation must be the post-drain snapshot, not a
        # stale periodic one that lost the race.
        loaded = ServiceCheckpointer(directory).load()
        assert loaded["ingested"] == service.stats().ingested

    def test_lifecycle_misuse_raises(self):
        async def scenario():
            service = GatewayService(ServiceConfig(metrics_interval_s=0.0))
            with pytest.raises(Exception):
                await service.submit(b"x")
            await service.start()
            with pytest.raises(Exception):
                await service.start()
            await service.stop()
            await service.stop()  # idempotent
            with pytest.raises(Exception):
                await service.submit(b"x")

        asyncio.run(scenario())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(batch_size=0)
        with pytest.raises(ValueError):
            ServiceConfig(workers=-1)


# ---------------------------------------------------------------------------
# replay files


class TestReplayFiles:
    def test_record_load_round_trip(self, tmp_path):
        wires = generate_stream(200, seed=3)
        path = str(tmp_path / "stream.bin")
        assert record_stream(path, wires, header_extra={"seed": 3}) == 200
        assert load_stream(path) == wires

    def test_generation_is_deterministic(self):
        assert generate_stream(100, seed=9) == generate_stream(100, seed=9)
        assert generate_stream(100, seed=9) != generate_stream(100, seed=10)

    def test_generation_rejects_invalid_arguments(self):
        cases = [dict(payload_count=-1), dict(device_count=0),
                 dict(tenant_count=0), dict(encrypted_fraction=-0.1),
                 dict(duplicate_fraction=1.5), dict(gap_fraction=2.0),
                 dict(corrupt_fraction=float("nan"))]
        for case in cases:
            arguments = {"payload_count": 10, **case}
            with pytest.raises(ValueError, match=next(iter(case))):
                generate_stream(**arguments)
        assert len(generate_stream(0)) == 0

    def test_recorded_file_is_pinned(self, tmp_path):
        """The on-disk format cannot drift: this file's sha256 was
        recorded when streams were still lists of ``bytes``."""
        path = tmp_path / "stream.bin"
        record_stream(str(path), generate_stream(
            40, device_count=8, tenant_count=3, seed=11,
            corrupt_fraction=0.1), header_extra={"seed": 11})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "29297602a39af4dcdc2c5aafc5a99e18"
            "e60b9d0ab9ea7b20492d78712c807411")

    def test_loaded_stream_holds_one_buffer(self, tmp_path):
        """A loaded frame costs its record (~79 bytes here) and a 4-byte
        offset, not a ``bytes`` object in a list (~118 bytes)."""
        path = str(tmp_path / "stream.bin")
        record_stream(path, generate_stream(20_000, seed=0,
                                            corrupt_fraction=0.001))
        tracemalloc.start()
        try:
            wires = load_stream(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(wires) == 20_000
        assert peak / len(wires) <= 90

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(frames=st.lists(st.binary(max_size=300), max_size=300),
           data=st.data())
    def test_loaded_stream_behaves_as_its_list(self, frames, data):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "stream.bin")
            assert record_stream(path, frames) == len(frames)
            wires = load_stream(path)
        assert len(wires) == len(frames)
        assert list(wires) == frames
        assert wires == frames
        for index in data.draw(st.lists(st.integers(
                min_value=-len(frames) - 2, max_value=len(frames) + 1),
                max_size=8)):
            if -len(frames) <= index < len(frames):
                assert wires[index] == frames[index]
            else:
                with pytest.raises(IndexError):
                    wires[index]
        for cut in data.draw(st.lists(st.slices(len(frames)), max_size=4)):
            assert list(wires[cut]) == frames[cut]
            assert list(wires[cut][::-1]) == frames[cut][::-1]
        for count in (1, 2, 3):
            parts = partition_stream(wires, count)
            assert [list(part) for part in parts] == [
                [wire for wire in frames if route_wire(wire, count) == part]
                for part in range(count)]

    def test_truncated_file_rejected(self, tmp_path):
        wires = generate_stream(20, seed=1)
        path = str(tmp_path / "stream.bin")
        record_stream(path, wires)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:-10])
        with pytest.raises(ValueError):
            load_stream(path)

    def test_not_a_stream_rejected(self, tmp_path):
        """Every malformed file raises ``ValueError`` naming the file,
        never a bare ``KeyError``/``AttributeError``/``int()`` error."""
        one_frame = struct.pack("<H", 3) + b"abc"

        def header(**fields):
            return json.dumps({"magic": "wile-beacon-stream", "version": 1,
                               **fields}).encode() + b"\n"

        cases = {
            "binary junk": b"\x00\x01\x02",
            "not UTF-8": b"\xff\xfe\n",
            "JSON list": b"[1, 2]\n",
            "JSON number": b"42\n",
            "wrong magic": b'{"magic": "pcap", "version": 1, "frames": 0}\n',
            "no frames": header(),
            "string frames": header(frames="1") + one_frame,
            "float frames": header(frames=1.0) + one_frame,
            "bool frames": header(frames=True) + one_frame,
            "negative frames": header(frames=-1),
            "truncated": header(frames=2) + one_frame,
            "trailing bytes": header(frames=1) + one_frame + b"\x00",
        }
        for name, blob in cases.items():
            path = str(tmp_path / f"{name}.bin")
            with open(path, "wb") as handle:
                handle.write(blob)
            with pytest.raises(ValueError, match=re.escape(path)):
                load_stream(path)
        with open(path, "wb") as handle:
            handle.write(header(frames=1) + one_frame)
        assert load_stream(path) == [b"abc"]


@pytest.mark.parametrize("argv, message", [
    (["--workers", "-1"], "workers must be >= 0"),
    (["--batch-size", "0"], "batch_size must be >= 1"),
    (["--queue-capacity", "0"], "queue_capacity must be >= 1"),
    (["--replay", "missing.bin", "--federate", "0"],
     "gateways must be >= 1"),
    (["--replay", "missing.bin", "--rate", "0"], "--rate must be > 0, got 0"),
    (["--replay", "missing.bin", "--rate", "-5"],
     "--rate must be > 0, got -5"),
    (["--replay", "missing.bin", "--drain-deadline", "-1"],
     "drain_deadline_s must be > 0"),
    (["--record", "stream.bin", "--payloads", "-1"],
     "payload_count must be >= 0, got -1"),
    (["--record", "stream.bin", "--corrupt-fraction", "2"],
     "corrupt_fraction must be in [0, 1], got 2.0"),
    (["--record", "stream.bin", "--devices", "0"],
     "device_count must be >= 1, got 0"),
])
def test_cli_invalid_value_is_a_usage_error(argv, message, capsys, tmp_path,
                                            monkeypatch):
    from repro.service.__main__ import main
    monkeypatch.chdir(tmp_path)  # a --record that is not refused writes here
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"python -m repro.service: error: {message}"
    assert not os.listdir(tmp_path)
