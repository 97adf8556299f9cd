"""Federation tests: merge contract, failover exactness, backoff.

What is pinned here, and why each pin is load-bearing:

* **Hypothesis property tests** for the :meth:`TenantAggregate.merge`
  contract over adversarial batch splits — the exact split the design
  depends on: integer accounting (payload/reading/device counters,
  sequence chains, histograms) is *bitwise* invariant under any
  chunking and associativity regrouping, while the Welford moments are
  only float-close (which is precisely why the server observes
  payloads sequentially and the federation partitions per tenant —
  pure adoptions, no float merges — to get bit-identity end to end).
* **Tail-replay dedupe regression**: a resumed pipeline offered an
  overlapping window around its checkpoint watermark observes each
  frame exactly once.
* **Pinned backoff schedule**: the seeded restart ladder reproduces
  golden blake2b values and every recorded failover delay recomputes
  exactly — the ISSUE's acceptance criterion.
* **Scenario end-to-end**: gateway kill and checkpoint corruption both
  end bit-identical to the clean single-gateway run, with the corrupt
  generation quarantined to ``*.corrupt``.
"""

import asyncio
import glob
import hashlib
import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlanError
from repro.faults.service import (
    SERVICE_FAULT_SCENARIOS,
    ServiceFault,
    build_service_fault_plan,
)
from repro.obs import audit_federation
from repro.obs.metrics import METRICS
from repro.service import (
    BackpressurePolicy,
    GatewayService,
    ServiceConfig,
    generate_stream,
)
from repro.service.federation import (
    BACKOFF_MAX_S,
    ChaosGatewayService,
    FederationConfig,
    FederationCoordinator,
    FederationError,
    _Pipeline,
    backoff_delay,
    backoff_schedule,
    merge_federated,
    partition_stream,
    route_wire,
    tenant_state_digest,
)
from repro.service.ingest import decode_wires, extract_payload, peek_device_id
from repro.service.server import ServiceError
from repro.service.tenants import DEFAULT_TENANT_BITS, TenantAggregate

WIRES = generate_stream(6000, device_count=96, tenant_count=6, seed=77,
                        corrupt_fraction=0.002)
PAYLOADS = decode_wires(WIRES)[0]

# The merge contract is per tenant (cross-tenant merges raise); the
# property tests run over one tenant's subsequence of the stream.
TENANT_ID = PAYLOADS[0].device_id >> DEFAULT_TENANT_BITS
TENANT_PAYLOADS = [payload for payload in PAYLOADS
                   if payload.device_id >> DEFAULT_TENANT_BITS == TENANT_ID]

#: backoff_schedule(seed=7, gateway_index=0, attempts=6). blake2b is
#: platform-independent, so these are exact everywhere; drift means the
#: stream name, key layout or ladder arithmetic changed.
BACKOFF_GOLDEN = (
    0.06194170538939804,
    0.08183803148799312,
    0.26539524478247145,
    0.45326733351275517,
    0.9552116153533089,
    0.9325237691220485,
)


def _observe_all(payloads):
    """One sequential fold — the reference every equality runs against."""
    tenants = {}
    for payload in payloads:
        tenant_id = payload.device_id >> DEFAULT_TENANT_BITS
        aggregate = tenants.get(tenant_id)
        if aggregate is None:
            aggregate = tenants[tenant_id] = TenantAggregate(
                tenant_id=tenant_id)
        aggregate.observe(payload)
    return tenants


def _single_tenant_fold(payloads):
    aggregate = TenantAggregate(tenant_id=TENANT_ID)
    for payload in payloads:
        aggregate.observe(payload)
    return aggregate


def _strip_summaries(state: dict) -> dict:
    """The exact-integer part of a tenant state (drops the Welford
    moments, keeps their counts)."""
    stripped = dict(state)
    stripped["payload_bytes"] = state["payload_bytes"]["count"]
    stripped["reading_values"] = {
        kind: summary["count"]
        for kind, summary in state["reading_values"].items()}
    return stripped


def _summaries_close(left: dict, right: dict, rel=1e-9) -> bool:
    def close(a, b):
        if a is None or b is None:
            return a == b
        return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)

    pairs = [(left["payload_bytes"], right["payload_bytes"])]
    if set(left["reading_values"]) != set(right["reading_values"]):
        return False
    pairs += [(left["reading_values"][kind], right["reading_values"][kind])
              for kind in left["reading_values"]]
    return all(
        a["count"] == b["count"] and all(
            close(a[field], b[field])
            for field in ("mean", "m2", "minimum", "maximum"))
        for a, b in pairs)


# -- deterministic backoff ----------------------------------------------------


class TestBackoff:
    def test_schedule_reproduces_pinned_goldens(self):
        assert backoff_schedule(7, 0, 6) == BACKOFF_GOLDEN

    def test_pure_function_of_seed_slot_attempt(self):
        assert backoff_delay(7, 1, 3) == backoff_delay(7, 1, 3)
        assert backoff_delay(7, 1, 3) != backoff_delay(8, 1, 3)
        assert backoff_delay(7, 1, 3) != backoff_delay(7, 2, 3)
        assert backoff_delay(7, 1, 3) != backoff_delay(7, 1, 4)

    def test_ceiling_clamps_exactly(self):
        assert backoff_delay(42, 1, 8) == 2.0
        assert backoff_delay(42, 1, 12) == BACKOFF_MAX_S

    def test_jitter_bounded(self):
        for attempt in range(1, 7):
            raw = 0.05 * 2.0 ** (attempt - 1)
            delay = backoff_delay(3, 0, attempt)
            assert delay == 2.0 or 0.5 * raw <= delay < 1.5 * raw

    def test_attempts_are_one_based(self):
        with pytest.raises(FederationError):
            backoff_delay(7, 0, 0)


# -- routing and partitioning -------------------------------------------------


class TestRouting:
    def test_peek_agrees_with_full_parse_on_decodable_frames(self):
        checked = 0
        for wire in WIRES:
            try:
                payload = extract_payload(wire)
            except Exception:
                continue
            assert peek_device_id(wire) == payload.device_id
            checked += 1
        assert checked > 5000

    def test_unroutable_frames_route_deterministically(self):
        for wire in (b"", b"junk", b"\x80" + b"\x00" * 40):
            first = route_wire(wire, 3)
            assert 0 <= first < 3
            assert all(route_wire(wire, 3) == first for _ in range(5))

    def test_partition_preserves_order_and_tenant_disjointness(self):
        parts = partition_stream(WIRES, 3)
        assert sum(len(part) for part in parts) == len(WIRES)
        tenant_owner = {}
        for index, part in enumerate(parts):
            # Order within a partition == order in the stream.
            offsets = [WIRES.index(wire) for wire in part[:50]]
            assert offsets == sorted(offsets)
            for wire in part:
                device_id = peek_device_id(wire)
                if device_id is None:
                    continue
                tenant_id = device_id >> DEFAULT_TENANT_BITS
                assert tenant_owner.setdefault(tenant_id, index) == index

    def test_gateway_count_validated(self):
        with pytest.raises(FederationError):
            partition_stream(WIRES, 0)

    def test_partitions_share_the_stream_buffer(self):
        parts = partition_stream(WIRES, 3)
        assert all(part._records is WIRES._records for part in parts)
        assert partition_stream(list(WIRES), 3) == parts


class TestStateDigest:
    @staticmethod
    def _one_shot(tenants):
        """The digest's definition: one ``json.dumps`` of every tenant."""
        canonical = json.dumps(
            {str(tenant_id): tenants[tenant_id].to_state()
             for tenant_id in sorted(tenants)},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def test_streamed_digest_is_the_one_shot_digest(self):
        assert tenant_state_digest({}) == self._one_shot({})
        wires = generate_stream(3000, device_count=96, tenant_count=12,
                                seed=5, corrupt_fraction=0.01)
        tenants = _observe_all(decode_wires(wires)[0])
        # String order ("10" < "2") differs from numeric order here.
        assert len(tenants) == 12
        assert sorted(map(str, tenants)) != [str(tenant_id) for tenant_id
                                             in sorted(tenants)]
        assert tenant_state_digest(tenants) == self._one_shot(tenants)


# -- the merge contract (hypothesis) ------------------------------------------


def _splits(max_len):
    """Adversarial split points: many tiny chunks, a few huge ones."""
    return st.lists(st.integers(min_value=1, max_value=max_len),
                    min_size=1, max_size=12)


class TestMergeContract:
    def _chunks(self, payloads, sizes):
        chunks, index, turn = [], 0, 0
        while index < len(payloads):
            size = sizes[turn % len(sizes)]
            chunks.append(payloads[index:index + size])
            index += size
            turn += 1
        return chunks

    def test_empty_aggregate_is_a_bitwise_identity(self):
        whole = _single_tenant_fold(TENANT_PAYLOADS[:400]).to_state()
        left = TenantAggregate(tenant_id=TENANT_ID)
        right = _single_tenant_fold(TENANT_PAYLOADS[:400])
        left.merge(right)
        assert left.to_state() == whole
        right.merge(TenantAggregate(tenant_id=TENANT_ID))
        assert right.to_state() == whole

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sizes=_splits(max_len=400))
    def test_chunked_merge_integer_state_exact(self, sizes):
        payloads = TENANT_PAYLOADS
        whole = _single_tenant_fold(payloads).to_state()
        folded = TenantAggregate(tenant_id=TENANT_ID)
        for chunk in self._chunks(payloads, sizes):
            folded.merge(_single_tenant_fold(chunk))
        state = folded.to_state()
        # Counters, device chains and histograms are bitwise invariant
        # under ANY chunking; the Welford moments are float-close only
        # — the asymmetry the sequential-observe server design exists
        # to remove.
        assert _strip_summaries(state) == _strip_summaries(whole)
        assert _summaries_close(state, whole)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cut_a=st.integers(min_value=0, max_value=len(TENANT_PAYLOADS)),
           cut_b=st.integers(min_value=0, max_value=len(TENANT_PAYLOADS)))
    def test_merge_associativity(self, cut_a, cut_b):
        lo, hi = sorted((cut_a, cut_b))
        payloads = TENANT_PAYLOADS
        parts = [payloads[:lo], payloads[lo:hi], payloads[hi:]]
        a1, b1, c1 = (_single_tenant_fold(part) for part in parts)
        a2, b2, c2 = (TenantAggregate.from_state(x.to_state())
                      for x in (a1, b1, c1))
        a1.merge(b1)
        a1.merge(c1)                      # (A · B) · C
        b2.merge(c2)
        a2.merge(b2)                      # A · (B · C)
        left, right = a1.to_state(), a2.to_state()
        assert _strip_summaries(left) == _strip_summaries(right)
        assert _summaries_close(left, right)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(gateways=st.integers(min_value=1, max_value=6))
    def test_merge_federated_per_tenant_partition_is_bitwise(self,
                                                             gateways):
        reference = {tenant_id: aggregate.to_state()
                     for tenant_id, aggregate
                     in _observe_all(PAYLOADS).items()}
        parts = []
        for part_wires in partition_stream(WIRES, gateways):
            parts.append(_observe_all(decode_wires(part_wires)[0]))
        merged = merge_federated(parts)
        assert {tenant_id: aggregate.to_state()
                for tenant_id, aggregate in merged.items()} == reference

    def test_merge_federated_does_not_mutate_inputs(self):
        parts = [_observe_all(decode_wires(part)[0])
                 for part in partition_stream(WIRES, 3)]
        before = [{tenant_id: aggregate.to_state()
                   for tenant_id, aggregate in part.items()}
                  for part in parts]
        merge_federated(parts)
        after = [{tenant_id: aggregate.to_state()
                  for tenant_id, aggregate in part.items()}
                 for part in parts]
        assert before == after

    def test_merge_federated_overlap_uses_stream_order(self):
        # A tenant split across two partition epochs folds epoch-order:
        # integer accounting must match the unsplit fold exactly.
        payloads = [payload for payload in PAYLOADS
                    if payload.device_id >> DEFAULT_TENANT_BITS
                    == PAYLOADS[0].device_id >> DEFAULT_TENANT_BITS]
        tenant_id = payloads[0].device_id >> DEFAULT_TENANT_BITS
        whole = _single_tenant_fold(payloads).to_state()
        cut = len(payloads) // 3
        merged = merge_federated([
            {tenant_id: _single_tenant_fold(payloads[:cut])},
            {tenant_id: _single_tenant_fold(payloads[cut:])},
        ])
        state = merged[tenant_id].to_state()
        assert _strip_summaries(state) == _strip_summaries(whole)
        assert _summaries_close(state, whole)


# -- tail replay + dedupe (the regression pin) --------------------------------


class TestTailReplayDedupe:
    def test_resumed_pipeline_dedupes_replayed_tail(self, tmp_path):
        """A pipeline resumed from a checkpoint watermark, then offered
        an overlapping window (the deliberate ``REPLAY_SLACK``
        superset), must observe each frame exactly once and end
        bit-identical to the uninterrupted fold."""
        reference = tenant_state_digest(_observe_all(PAYLOADS))
        watermark = 2048
        overlap = 500

        def config():
            return ServiceConfig(
                checkpoint_dir=str(tmp_path), queue_capacity=4096,
                policy=BackpressurePolicy.BLOCK, batch_size=256,
                flush_after_s=0.005, metrics_interval_s=0.0,
                checkpoint_interval_s=0.0)

        async def scenario():
            first = GatewayService(config())
            await first.start()
            await first.submit_many(WIRES[:watermark])
            await first.stop()          # drains + final checkpoint
            assert first.frames_processed == watermark

            second = GatewayService(config())
            await second.start()        # resumes the watermark
            assert second.frames_processed == watermark
            now = asyncio.get_running_loop().time()
            pipeline = _Pipeline(partition=0, slot=0, service=second,
                                 cursor=second.frames_processed, now=now)
            # Rewind behind the watermark on purpose — the dedupe
            # chain must skip exactly the committed prefix.
            offset = watermark - overlap
            while offset < len(WIRES):
                chunk = WIRES[offset:offset + 256]
                await pipeline.deliver(offset, chunk)
                offset += len(chunk)
            await second.stop()
            return second, pipeline

        service, pipeline = asyncio.run(scenario())
        assert pipeline.deduped == overlap
        assert service.frames_processed == len(WIRES)
        assert tenant_state_digest(service.tenants) == reference

    def test_delivery_gap_fails_loudly(self, tmp_path):
        async def scenario():
            service = GatewayService(ServiceConfig(
                policy=BackpressurePolicy.BLOCK, metrics_interval_s=0.0,
                checkpoint_interval_s=0.0))
            await service.start()
            now = asyncio.get_running_loop().time()
            pipeline = _Pipeline(partition=0, slot=0, service=service,
                                 cursor=0, now=now)
            with pytest.raises(FederationError):
                await pipeline.deliver(100, WIRES[100:200])
            await service.stop()

        asyncio.run(scenario())


# -- drain deadline (the hung-SIGTERM satellite) ------------------------------


class TestDrainDeadline:
    def test_hung_drain_fails_fast(self):
        fault = ServiceFault(kind="hang", gateway_index=0, after_frames=0)

        async def scenario():
            service = ChaosGatewayService(
                ServiceConfig(policy=BackpressurePolicy.BLOCK,
                              metrics_interval_s=0.0,
                              checkpoint_interval_s=0.0,
                              flush_after_s=0.005,
                              drain_deadline_s=0.2),
                faults=[fault])
            await service.start()
            await service.submit_many(WIRES[:512])
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(ServiceError, match="drain deadline"):
                await service.stop()
            return loop.time() - started

        before = METRICS.get("service.drain_deadline")
        before_value = before.value if before is not None else 0.0
        elapsed = asyncio.run(scenario())
        assert elapsed < 5.0
        assert METRICS.get("service.drain_deadline").value \
            == before_value + 1


# -- fault plans --------------------------------------------------------------


class TestServiceFaultPlan:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(FaultPlanError):
            build_service_fault_plan("meteor-strike", seed=1,
                                     gateway_count=3, frames_hint=1000)

    def test_needs_a_failover_peer(self):
        with pytest.raises(FaultPlanError):
            build_service_fault_plan("gateway-kill", seed=1,
                                     gateway_count=1, frames_hint=1000)

    def test_seed_deterministic(self):
        plans = [build_service_fault_plan(scenario, seed=9,
                                          gateway_count=4,
                                          frames_hint=5000)
                 for scenario in SERVICE_FAULT_SCENARIOS]
        again = [build_service_fault_plan(scenario, seed=9,
                                          gateway_count=4,
                                          frames_hint=5000)
                 for scenario in SERVICE_FAULT_SCENARIOS]
        assert plans == again
        for plan in plans:
            (fault,) = plan.faults
            assert 0 <= fault.gateway_index < 4
            assert 1 <= fault.after_frames <= 3000

    def test_faults_for_filters_and_sorts(self):
        plan = build_service_fault_plan("gateway-kill", seed=9,
                                        gateway_count=4, frames_hint=5000)
        (fault,) = plan.faults
        assert plan.faults_for(fault.gateway_index) == (fault,)
        other = (fault.gateway_index + 1) % 4
        assert plan.faults_for(other) == ()


# -- end-to-end scenarios -----------------------------------------------------


def _reference():
    tenants = _observe_all(PAYLOADS)
    errors = len(WIRES) - len(PAYLOADS)
    return tenant_state_digest(tenants), len(PAYLOADS), errors


class TestFederationEndToEnd:
    SEED = 7

    def _run(self, root, scenario=None, **overrides):
        options = dict(gateways=3, checkpoint_root=str(root),
                       seed=self.SEED, durable_checkpoints=False,
                       checkpoint_interval_s=0.03)
        options.update(overrides)
        config = FederationConfig(**options)
        plan = None
        if scenario is not None:
            plan = build_service_fault_plan(
                scenario, seed=self.SEED, gateway_count=config.gateways,
                frames_hint=len(WIRES) // config.gateways)
        coordinator = FederationCoordinator(config, fault_plan=plan)
        return asyncio.run(coordinator.run(WIRES))

    def test_unfaulted_federation_matches_single_gateway(self, tmp_path):
        digest, ingested, errors = _reference()
        report = self._run(tmp_path)
        assert report.digest() == digest
        assert (report.ingested, report.decode_errors) == (ingested, errors)
        assert report.failovers == 0
        audit = audit_federation(report, expected_frames=len(WIRES))
        assert audit.ok, audit.render()

    def test_gateway_kill_failover_bit_identical(self, tmp_path, monkeypatch):
        # Arm the kill only once the victim has a generation to resume
        # from. Its first batch waits out two checkpoint intervals
        # (well inside the heartbeat timeout), so the pump starts its
        # first periodic save right after that batch, before the kill's
        # trigger (>= 30% of the partition) is reached; kill() flushes
        # the save. The adopter then resumes past offset 0, and the
        # feeder's rewind re-offers committed frames for the dedupe
        # chain to drop.
        fire = ChaosGatewayService._before_dispatch

        async def after_first_generation(service, batch):
            if service.frames_processed == 0:
                await asyncio.sleep(2 * service.config.checkpoint_interval_s)
            await fire(service, batch)

        monkeypatch.setattr(ChaosGatewayService, "_before_dispatch",
                            after_first_generation)
        digest, ingested, errors = _reference()
        report = self._run(tmp_path, scenario="gateway-kill")
        assert report.digest() == digest
        assert (report.ingested, report.decode_errors) == (ingested, errors)
        assert report.failovers == 1
        assert report.deduped > 0
        audit = audit_federation(report, expected_frames=len(WIRES))
        assert audit.ok, audit.render()

    def test_failover_follows_pinned_backoff_schedule(self, tmp_path):
        report = self._run(tmp_path, scenario="gateway-kill")
        failovers = [event for event in report.events
                     if event.kind == "failover"]
        assert failovers, "kill scenario must record a failover"
        for event in failovers:
            assert event.delay_s == backoff_delay(
                self.SEED, event.slot, event.attempt)
        # And the restart actually waited the scheduled delay: any
        # restart event echoes the failover's seeded value exactly.
        for event in report.events:
            if event.kind == "restart":
                assert event.delay_s == backoff_delay(
                    self.SEED, event.slot, event.attempt)

    def test_checkpoint_corrupt_quarantined_and_recovered(self, tmp_path):
        digest, ingested, errors = _reference()
        report = self._run(tmp_path, scenario="checkpoint-corrupt")
        assert report.digest() == digest
        assert (report.ingested, report.decode_errors) == (ingested, errors)
        assert report.failovers >= 1
        quarantined = glob.glob(
            os.path.join(str(tmp_path), "partition_*", "*.corrupt"))
        assert quarantined, "scribbled generation was not quarantined"
        audit = audit_federation(report, expected_frames=len(WIRES))
        assert audit.ok, audit.render()

    @pytest.mark.parametrize("scenario", ["gateway-kill", "gateway-hang"])
    def test_failover_without_checkpoints_replays_exactly(self, scenario):
        # No checkpoint root: a successor replays its partition from
        # offset zero. A handback of a partition already fully fed must
        # not leave a fresh, unfed pipeline behind (a lost partition).
        wires = generate_stream(20_000, device_count=64, tenant_count=6,
                                seed=0, corrupt_fraction=0.002)
        payloads = decode_wires(wires)[0]
        config = FederationConfig(gateways=3, checkpoint_root=None, seed=0,
                                  checkpoint_interval_s=0.03)
        plan = build_service_fault_plan(scenario, seed=0, gateway_count=3,
                                        frames_hint=len(wires) // 3)
        report = asyncio.run(FederationCoordinator(config, plan).run(wires))
        assert report.digest() == tenant_state_digest(_observe_all(payloads))
        assert report.frames_processed == len(wires)
        assert report.failovers == report.restarts == 1
        audit = audit_federation(report, expected_frames=len(wires))
        assert audit.ok, audit.render()

    def test_fault_plan_gateway_count_must_match(self, tmp_path):
        plan = build_service_fault_plan("gateway-kill", seed=1,
                                       gateway_count=4, frames_hint=100)
        with pytest.raises(FederationError):
            FederationCoordinator(FederationConfig(gateways=3), plan)


def test_federated_json_matches_single_gateway_json(tmp_path):
    # --json writes the same per-tenant aggregates whether one gateway
    # or a federation replayed the stream.
    from repro.service.__main__ import main
    stream, single, federated = (str(tmp_path / name) for name in (
        "stream.bin", "single.json", "federated.json"))
    assert main(["--record", stream, "--payloads", "3000",
                 "--corrupt-fraction", "0.002"]) == 0
    assert main(["--replay", stream, "--policy", "block",
                 "--json", single]) == 0
    assert main(["--replay", stream, "--federate", "3",
                 "--json", federated]) == 0
    with open(single, "rb") as one, open(federated, "rb") as many:
        assert one.read() == many.read()
