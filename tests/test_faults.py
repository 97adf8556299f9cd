"""The chaos layer: fault plans, injection, recovery, and rescue.

Three contracts under test:

* **Determinism** — a fault-injected run is exactly as reproducible as
  a clean one: fixed-seed plans pin their schedules bit for bit, and a
  fault-injected scenario repeats to identical delivery counts.
* **Conservation** — every scheduled fault fires, and every transmitted
  copy is accounted exactly once (delivered + lost + suppressed ==
  sent), cross-checked by :func:`repro.obs.audit.audit_faults`.
* **Rescue** — dying pool workers, and SIGKILLed fleet shards, lose
  nothing: retries and checkpoints reproduce the clean run's
  aggregates exactly.
"""

import contextlib
import dataclasses
import os
from concurrent.futures import wait as futures_wait

import pytest

from repro.energy import calibration as cal
from repro.experiments.resilience import ResilienceCell, run_cell
from repro.experiments.runner import (ParallelRunner, ProcessPool,
                                     fault_point, injected)
from repro.faults import (
    AdaptiveRedundancyController,
    FaultConfig,
    FaultPlanError,
    RecoveryError,
    build_fault_plan,
    stable_uniform,
)
from repro.fleet import (
    CheckpointError,
    CheckpointMismatchError,
    FleetConfig,
    ShardExecutionError,
    counters_equal,
    generate_fleet,
    moments_close,
    plan_fingerprint,
    run_sharded_fleet,
)
from repro.obs import METRICS, audit_faults

BOOT_ENERGY_J = cal.WILE_BOOT_S * cal.ESP32_BOOT_A * cal.SUPPLY_VOLTAGE_V

DEVICE_IDS = (0x00570001, 0x00570002, 0x00570003)


def _plan(seed=7, intensity=0.8, **overrides):
    config = FaultConfig(seed=seed, duration_s=60.0, intensity=intensity,
                         **overrides)
    return build_fault_plan(config, device_ids=DEVICE_IDS, gateway_count=1)


class TestStableUniform:
    def test_pure_function_of_key(self):
        assert stable_uniform(1, "x", 2.5) == stable_uniform(1, "x", 2.5)
        assert stable_uniform(1, "x", 2.5) != stable_uniform(1, "x", 2.6)

    def test_range(self):
        draws = [stable_uniform(0, "ge-drop", i) for i in range(500)]
        assert all(0.0 <= draw < 1.0 for draw in draws)
        # and they actually spread (not degenerate)
        assert max(draws) > 0.9 and min(draws) < 0.1


class TestFaultPlan:
    def test_zero_intensity_is_empty(self):
        plan = _plan(intensity=0.0)
        assert plan.event_count == 0

    def test_rebuild_is_identical(self):
        assert _plan() == _plan()

    def test_seed7_schedule_pinned(self):
        """The exact seed-7 schedule: any drift in the pre-draw logic
        (stream names, draw order, clamping) breaks this test."""
        plan = _plan()
        assert plan.event_count == 20
        assert len(plan.loss_bursts) == 10
        first = plan.loss_bursts[0]
        assert first.start_s == pytest.approx(1.151992, abs=1e-6)
        assert first.end_s == pytest.approx(2.159422, abs=1e-6)
        assert [round(burst.start_s, 3) for burst in plan.loss_bursts] == [
            1.152, 12.662, 17.873, 20.588, 26.704, 27.999, 31.441,
            37.969, 41.494, 54.669]
        assert len(plan.interferers) == 2
        assert plan.interferers[0].start_s == pytest.approx(40.964204,
                                                           abs=1e-6)
        assert len(plan.snr_windows) == 2
        assert plan.snr_windows[0].extra_loss_db == pytest.approx(
            10.425, abs=1e-3)
        kinds = [(round(fault.time_s, 3), fault.device_id, fault.kind)
                 for fault in plan.device_faults]
        assert kinds == [
            (5.187, 0x00570001, "brownout"),
            (17.815, 0x00570002, "brownout"),
            (23.085, 0x00570003, "brownout"),
            (54.845, 0x00570002, "brownout"),
            (59.833, 0x00570003, "brownout"),
        ]
        assert [(round(outage.start_s, 3), round(outage.end_s, 3))
                for outage in plan.gateway_outages] == [(5.924, 7.295)]

    def test_streams_are_independent(self):
        """Reshaping one fault class must not perturb another class's
        schedule (per-class seeded streams)."""
        base = _plan()
        more_interferers = _plan(interferers_max=30)
        assert more_interferers.loss_bursts == base.loss_bursts
        assert more_interferers.device_faults == base.device_faults
        assert more_interferers.gateway_outages == base.gateway_outages
        assert len(more_interferers.interferers) > len(base.interferers)

    def test_windows_clamped_to_horizon(self):
        plan = _plan(intensity=1.0)
        horizon = plan.config.duration_s
        for burst in plan.loss_bursts:
            assert 0.0 <= burst.start_s <= burst.end_s <= horizon
        for outage in plan.gateway_outages:
            assert 0.0 <= outage.start_s <= outage.end_s <= horizon
        for fault in plan.device_faults:
            assert 0.0 <= fault.time_s <= horizon
            assert fault.time_s + fault.duration_s <= horizon

    def test_invalid_configs_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultConfig(intensity=1.5)
        with pytest.raises(FaultPlanError):
            FaultConfig(duration_s=0.0)
        with pytest.raises(FaultPlanError):
            FaultConfig(ge_drop_probability=2.0)


class TestDeviceFaultHooks:
    def _scenario(self):
        from repro.core.device import WiLEDevice
        from repro.core.payload import SensorKind, SensorReading
        from repro.core.receiver import WiLEReceiver
        from repro.sim import Position, Simulator, WirelessMedium

        sim = Simulator()
        medium = WirelessMedium(sim)
        receiver = WiLEReceiver(sim, medium, position=Position(0.0, 0.0))
        device = WiLEDevice(sim, medium, device_id=0x00570001,
                            position=Position(3.0, 0.0))
        device.start(2.0, lambda: (
            SensorReading(SensorKind.TEMPERATURE_C, 17.0),))
        return sim, device, receiver

    def test_reboot_pays_boot_energy_and_resumes(self):
        sim, device, receiver = self._scenario()
        sim.at(5.0, device.reboot)
        sim.at(9.0, device.reboot)
        sim.run(until_s=30.0)
        assert device.reboots == 2
        assert device.fault_energy_j == pytest.approx(2 * BOOT_ENERGY_J)
        # the cycle survives: beacons keep flowing after both reboots
        late = [r for r in receiver.messages if r.time_s > 10.0]
        assert late
        # and the epoch guard killed the stale wake: sequences strictly
        # increase, no double-fire from the cancelled schedule
        sequences = [record.sequence for record in device.transmissions]
        assert sequences == sorted(set(sequences))

    def test_shutdown_is_permanent(self):
        sim, device, receiver = self._scenario()
        sim.at(7.0, device.shutdown)
        sim.run(until_s=30.0)
        assert device.depleted
        assert device.radio.state.name == "OFF"
        sent_after = [record for record in device.transmissions
                      if record.time_s > 7.0]
        assert sent_after == []
        # reboot cannot resurrect a depleted device
        device.reboot()
        assert device.reboots == 0


class TestInjectionDeterminism:
    CELL = ResilienceCell(intensity=0.8, policy="baseline", device_count=4,
                          interval_s=2.0, duration_s=40.0, seed=7)

    def test_seed7_cell_counts_pinned(self):
        point = run_cell(self.CELL)
        assert point.copies_sent == 64
        assert point.delivered == 45
        assert point.lost_injected == 17
        assert point.lost_snr == 1
        assert point.lost_collision == 0
        assert point.suppressed == 1
        assert point.reboots == 7
        assert point.fault_energy_j == pytest.approx(7 * BOOT_ENERGY_J)

    def test_rerun_bit_identical(self):
        first = run_cell(self.CELL)
        second = run_cell(self.CELL)
        assert first.to_row() == second.to_row()
        assert repr(first.fault_energy_j) == repr(second.fault_energy_j)
        assert (first.fault_stats.to_dict()
                == second.fault_stats.to_dict())

    def test_conservation_audit_passes(self):
        point = run_cell(self.CELL)
        report = audit_faults(point)
        assert report.ok, report.render()
        # every scheduled fault event fired by the horizon
        for name, scheduled, fired in point.fault_stats.conservation_pairs():
            assert scheduled == fired, name

    def test_audit_catches_tampering(self):
        point = run_cell(self.CELL)
        point.delivered += 1
        assert not audit_faults(point).ok
        point.delivered -= 1
        point.reboots += 1
        assert not audit_faults(point).ok


class TestAdaptiveRecovery:
    def _controlled_scenario(self, jam_until_s):
        from repro.core.device import WiLEDevice
        from repro.core.payload import SensorKind, SensorReading
        from repro.core.receiver import WiLEReceiver
        from repro.sim import Position, Simulator, WirelessMedium

        sim = Simulator()
        medium = WirelessMedium(sim)
        receiver = WiLEReceiver(sim, medium, position=Position(0.0, 0.0))
        device = WiLEDevice(sim, medium, device_id=0x00570001,
                            position=Position(3.0, 0.0))
        device.start(1.0, lambda: (
            SensorReading(SensorKind.TEMPERATURE_C, 17.0),))
        medium.fault_injector = (
            lambda tx, radio: sim.now_s < jam_until_s)
        controller = AdaptiveRedundancyController(
            sim, device, receiver, check_interval_s=4.0,
            loss_threshold=0.5, max_repeats=4, recover_after=2)
        controller.start()
        return sim, device, controller

    def test_escalates_under_jamming_then_recovers(self):
        sim, device, controller = self._controlled_scenario(jam_until_s=13.0)
        sim.run(until_s=12.0)
        assert controller.stats.escalations >= 2
        assert controller.level >= 2
        assert device.repeats > 1
        assert device.interval_s > 1.0
        sim.run(until_s=60.0)
        assert controller.stats.recoveries == controller.stats.escalations
        assert controller.level == 0
        assert device.repeats == 1
        assert device.interval_s == pytest.approx(1.0)

    def test_clean_channel_never_escalates(self):
        sim, device, controller = self._controlled_scenario(jam_until_s=0.0)
        sim.run(until_s=30.0)
        assert controller.stats.escalations == 0
        assert device.repeats == 1

    def test_respects_ceilings(self):
        sim, device, controller = self._controlled_scenario(
            jam_until_s=1000.0)
        sim.run(until_s=120.0)
        assert device.repeats <= 4
        assert device.interval_s <= 4.0 + 1e-9

    def test_validation(self):
        sim, device, controller = self._controlled_scenario(jam_until_s=0.0)
        with pytest.raises(RecoveryError):
            AdaptiveRedundancyController(sim, device, None,
                                         check_interval_s=0.0)
        with pytest.raises(RecoveryError):
            AdaptiveRedundancyController(sim, device, None,
                                         loss_threshold=1.5)
        with pytest.raises(RecoveryError):
            controller.start()  # already started


# -- runner rescue fixtures (module level: must pickle into workers) ----------

def _square_or_die(value):
    """``value`` squared, after the ``"test.rescue"`` fault point."""
    fault_point("test.rescue", value)
    return value * value


class TestRunnerRescue:
    def test_dead_worker_lost_chunks_retried(self):
        breaks = METRICS.counter("runner.pool_breaks").value
        rescued = METRICS.counter("runner.rescued").value
        with injected({"test.rescue": 3}):
            assert ParallelRunner(workers=2).map(_square_or_die, range(6)) \
                == [v * v for v in range(6)]
        assert METRICS.counter("runner.pool_breaks").value > breaks
        assert METRICS.counter("runner.rescued").value > rescued

    def test_retries_exhausted_falls_back_to_serial_rescue(self, monkeypatch):
        monkeypatch.setattr("repro.experiments.runner.RETRIES", 0)
        before = METRICS.counter("runner.chunks_rescued").value
        # item 3 kills its worker and, with RETRIES=0, is not
        # resubmitted: the in-process rescue re-runs the lost chunks,
        # and no fault point fires outside a pool worker.
        with injected({"test.rescue": 3}):
            assert ParallelRunner(workers=2).map(_square_or_die, range(6)) \
                == [v * v for v in range(6)]
        assert METRICS.counter("runner.chunks_rescued").value > before

    def test_submit_after_worker_death_rebuilds_the_pool(self):
        # The gateway may submit its next batch after a worker died but
        # before it takes the batch that killed it: that submit must
        # rebuild the pool, not raise BrokenProcessPool.
        pool = ProcessPool(1)
        try:
            with injected({"test.rescue": 3}):
                pool.submit(0, _square_or_die, 3)
            # The executor marks itself broken before it fails the
            # futures of the dead worker.
            done, _ = futures_wait([pool._jobs[0].future], timeout=10.0)
            assert done
            pool.submit(1, _square_or_die, 2)
            assert [pool.take(0), pool.take(1)] == [9, 4]
            assert pool.rescued >= 1
        finally:
            pool.close()

    def test_genuine_exceptions_still_propagate(self):
        with pytest.raises(ZeroDivisionError):
            ParallelRunner(workers=2).map(_reciprocal, [2, 1, 0])


def _reciprocal(value):
    return 1.0 / value


class TestFleetChaos:
    CONFIG = FleetConfig(device_count=40, area_m=(120.0, 30.0),
                         interval_s=5.0, duration_s=15.0, seed=3)

    def test_killed_worker_resumes_to_identical_aggregates(self, tmp_path):
        plan = generate_fleet(self.CONFIG)
        clean = run_sharded_fleet(plan, shard_count=3, workers=2)
        breaks = METRICS.counter("runner.pool_breaks").value
        with injected({"fleet.shard": 1}):
            recovered = run_sharded_fleet(plan, shard_count=3, workers=2,
                                          checkpoint_dir=str(tmp_path))
        assert METRICS.counter("runner.pool_breaks").value > breaks
        assert counters_equal(clean, recovered) == []
        assert moments_close(clean, recovered, rel_tol=1e-9) == []
        assert sorted(os.listdir(tmp_path)) == [
            "manifest.json", "shard_0000.json", "shard_0001.json",
            "shard_0002.json"]

    def test_chaos_oracles_without_a_kill_are_invalid(self, monkeypatch):
        # A kill that never fires must fail its oracle as invalid, not
        # pass vacuously: disarm the fault seam both oracles arm.
        from repro.check import chaos
        monkeypatch.setattr(chaos, "injected",
                            lambda plan: contextlib.nullcontext())
        for check in (chaos.check_fleet_worker_kill,
                      chaos.check_service_worker_kill):
            deviation = check()
            assert not deviation.passed
            assert "no worker was killed" in deviation.detail

    def test_checkpoints_resume_without_resimulation(self, tmp_path):
        plan = generate_fleet(self.CONFIG)
        first = run_sharded_fleet(plan, shard_count=3, workers=1,
                                  checkpoint_dir=str(tmp_path))
        written = sorted(os.listdir(tmp_path))
        assert written == ["manifest.json", "shard_0000.json",
                           "shard_0001.json", "shard_0002.json"]
        resumed = run_sharded_fleet(plan, shard_count=3, workers=1,
                                    checkpoint_dir=str(tmp_path))
        assert counters_equal(first, resumed) == []
        assert moments_close(first, resumed, rel_tol=0.0) == []

    def test_shard_failure_carries_context(self, monkeypatch):
        from repro.fleet.shards import _shard_engine
        engine = _shard_engine("cohort")

        def fail_shard_1(shard):
            if shard.index == 1:
                raise RuntimeError("injected failure in shard 1")
            return engine(shard)

        monkeypatch.setattr("repro.fleet.shards._shard_engine",
                            lambda kernel: fail_shard_1)
        before = METRICS.counter("fleet.shard_failures").value
        plan = generate_fleet(self.CONFIG)
        with pytest.raises(ShardExecutionError) as exc_info:
            run_sharded_fleet(plan, shard_count=3, workers=1)
        error = exc_info.value
        assert error.failures[0][0] == 1           # shard index
        assert ".." in error.failures[0][1]        # device-id range
        assert "shard 1" in str(error)
        assert METRICS.counter("fleet.shard_failures").value == before + 1


class _Crash(BaseException):
    """A process crash at a store operation: not an ``Exception``, so
    no handler in the code under test can absorb it."""


def _crash_at(patch, k):
    """Route ``os.fsync``/``os.replace``/``os.unlink`` through a counter
    that raises :class:`_Crash` in place of the ``k``-th call (none if
    ``k`` is ``None``); returns the log of ``(name, args)`` of the
    calls that ran."""
    log = []
    for name in ("fsync", "replace", "unlink"):
        def operation(*args, _name=name, _real=getattr(os, name)):
            if len(log) + 1 == k:
                raise _Crash(_name)
            _real(*args)
            log.append((_name, args))
        patch.setattr(os, name, operation)
    return log


class TestStoreCrashPoints:
    """Crash a run at each durable operation of both checkpoint stores
    (every ``os.fsync``, ``os.replace`` and ``os.unlink``), then resume
    from what is on disk: it must hold exactly what the run committed.
    A process crash keeps what the kernel accepted, so lost page cache
    is out of scope."""

    def test_gateway_load_returns_the_last_committed_save(
            self, tmp_path, monkeypatch):
        from repro.service.checkpoint import ServiceCheckpointer
        saves = 5
        counted = ServiceCheckpointer(str(tmp_path / "count"))
        with monkeypatch.context() as patch:
            log = _crash_at(patch, None)
            for index in range(saves):
                counted.save({"ingested": index, "tenants": {}})
        # Per save: fsync, replace, directory fsync; 2 prunes add an
        # unlink and a directory fsync each.
        assert len(log) == 19
        for k in range(1, len(log) + 1):
            directory = str(tmp_path / f"crash_{k}")
            checkpointer = ServiceCheckpointer(directory)
            returned = -1
            with monkeypatch.context() as patch:
                log = _crash_at(patch, k)
                with pytest.raises(_Crash):
                    for index in range(saves):
                        checkpointer.save({"ingested": index, "tenants": {}})
                        returned = index
            in_flight = returned + 1
            replaced = any(
                name == "replace" and args[1].endswith(
                    f"checkpoint_{in_flight:08d}.json")
                for name, args in log)
            expected = in_flight if replaced else returned
            payload = ServiceCheckpointer(directory).load()
            found = -1 if payload is None else payload["ingested"]
            assert found == expected, f"crash at operation {k}"
            if payload is not None:
                assert payload["generation"] == expected

    def test_fleet_rerun_after_a_crash_equals_the_uncrashed_run(
            self, tmp_path, monkeypatch):
        plan = generate_fleet(TestFleetChaos.CONFIG)
        clean = run_sharded_fleet(plan, shard_count=3).to_state()
        with monkeypatch.context() as patch:
            log = _crash_at(patch, None)
            run_sharded_fleet(plan, shard_count=3,
                              checkpoint_dir=str(tmp_path / "count"))
        # The manifest and 3 shards: fsync, replace, directory fsync.
        assert len(log) == 12
        for k in range(1, len(log) + 1):
            directory = str(tmp_path / f"crash_{k}")
            with monkeypatch.context() as patch:
                _crash_at(patch, k)
                with pytest.raises(_Crash):
                    run_sharded_fleet(plan, shard_count=3,
                                      checkpoint_dir=directory)
            rerun = run_sharded_fleet(plan, shard_count=3,
                                      checkpoint_dir=directory)
            assert rerun.to_state() == clean, f"crash at operation {k}"


class TestCheckpointHygiene:
    """Corrupt, truncated, stale and foreign checkpoint directories.

    Pre-fix behaviour these tests pin against: a corrupt checkpoint's
    ``json.load`` ran before the worker's try block (raising raw across
    the pool boundary instead of the documented ``("failed", ...)``
    tuple), and ``run_sharded_fleet`` loaded any ``shard_NNNN.json``
    present with no check that it belonged to the running plan.
    """

    CONFIG = FleetConfig(device_count=30, area_m=(100.0, 30.0),
                         interval_s=5.0, duration_s=12.0, seed=5)

    def _checkpointed_run(self, tmp_path, **kwargs):
        plan = generate_fleet(self.CONFIG)
        return plan, run_sharded_fleet(plan, shard_count=2, workers=1,
                                       checkpoint_dir=str(tmp_path),
                                       **kwargs)

    def test_corrupt_checkpoint_recomputed_not_raised(self, tmp_path):
        plan, clean = self._checkpointed_run(tmp_path)
        bad = tmp_path / "shard_0001.json"
        bad.write_text("{ this is not json", encoding="utf-8")
        resumed = run_sharded_fleet(plan, shard_count=2, workers=1,
                                    checkpoint_dir=str(tmp_path))
        assert counters_equal(clean, resumed) == []
        assert moments_close(clean, resumed, rel_tol=0.0) == []
        # the recompute rewrote a valid checkpoint over the corpse
        import json
        json.loads(bad.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_corrupt_checkpoint_quarantined_and_counted(self, tmp_path,
                                                        workers):
        plan, _ = self._checkpointed_run(tmp_path)
        (tmp_path / "shard_0001.json").write_text("{ torn",
                                                  encoding="utf-8")
        before = METRICS.counter("store.checkpoint_corrupt").value
        run_sharded_fleet(plan, shard_count=2, workers=workers,
                          checkpoint_dir=str(tmp_path))
        # Moved aside (not deleted) for a post-mortem, exactly as the
        # service quarantines a corrupt generation.
        corpse = tmp_path / "shard_0001.json.corrupt"
        assert corpse.read_text(encoding="utf-8") == "{ torn"
        assert METRICS.counter("store.checkpoint_corrupt").value \
            == before + 1

    def test_truncated_checkpoint_recomputed(self, tmp_path):
        plan, clean = self._checkpointed_run(tmp_path)
        path = tmp_path / "shard_0000.json"
        blob = path.read_text(encoding="utf-8")
        path.write_text(blob[:len(blob) // 2], encoding="utf-8")
        resumed = run_sharded_fleet(plan, shard_count=2, workers=1,
                                    checkpoint_dir=str(tmp_path))
        assert counters_equal(clean, resumed) == []

    def test_wrong_schema_checkpoint_recomputed(self, tmp_path):
        plan, clean = self._checkpointed_run(tmp_path)
        # valid JSON, wrong shape: must recompute, not crash the merge
        (tmp_path / "shard_0001.json").write_text(
            '{"device_count": 3}', encoding="utf-8")
        resumed = run_sharded_fleet(plan, shard_count=2, workers=1,
                                    checkpoint_dir=str(tmp_path))
        assert counters_equal(clean, resumed) == []

    def test_corrupt_checkpoint_recovered_through_pool(self, tmp_path):
        # Same recovery across the process-pool boundary: pre-fix the
        # raw JSONDecodeError violated the ("failed", ...) protocol.
        plan, clean = self._checkpointed_run(tmp_path)
        (tmp_path / "shard_0001.json").write_bytes(b"\x00\xff garbage")
        resumed = run_sharded_fleet(plan, shard_count=2, workers=2,
                                    checkpoint_dir=str(tmp_path))
        assert counters_equal(clean, resumed) == []

    def test_different_seed_directory_refused(self, tmp_path):
        self._checkpointed_run(tmp_path)
        other = generate_fleet(FleetConfig(
            device_count=30, area_m=(100.0, 30.0), interval_s=5.0,
            duration_s=12.0, seed=6))
        with pytest.raises(CheckpointMismatchError) as exc_info:
            run_sharded_fleet(other, shard_count=2, workers=1,
                              checkpoint_dir=str(tmp_path))
        assert "seed" in exc_info.value.mismatched

    @pytest.mark.parametrize("field, value", [
        ("drift_std_ppm", 80.0), ("jitter_std_s", 5e-3),
        ("cluster_count", 3), ("cluster_std_m", 2.0)])
    def test_plan_shaping_change_refused(self, tmp_path, field, value):
        # These fields shape the plan (or, for jitter, the clocks built
        # from it) but were missing from the fingerprint: a rerun with
        # one of them changed silently returned the first run's
        # aggregate.
        config = dataclasses.replace(self.CONFIG, layout="clusters")
        run_sharded_fleet(generate_fleet(config), shard_count=2, workers=1,
                          checkpoint_dir=str(tmp_path))
        other = generate_fleet(dataclasses.replace(config, **{field: value}))
        with pytest.raises(CheckpointMismatchError):
            run_sharded_fleet(other, shard_count=2, workers=1,
                              checkpoint_dir=str(tmp_path))

    def test_hand_edited_plan_refused(self, tmp_path):
        plan, _ = self._checkpointed_run(tmp_path)
        x_m = plan.x_m.copy()
        x_m[0] /= 2.0
        with pytest.raises(CheckpointMismatchError) as exc_info:
            run_sharded_fleet(dataclasses.replace(plan, x_m=x_m),
                              shard_count=2, workers=1,
                              checkpoint_dir=str(tmp_path))
        assert exc_info.value.mismatched == ["plan_sha256"]

    def test_fingerprint_is_stable(self):
        # The identity is an on-disk contract: a directory written by
        # any earlier build must still match it, so every key and value
        # is pinned — the shard geometry included.
        plan = generate_fleet(FleetConfig(device_count=2000,
                                          area_m=(200.0, 200.0),
                                          duration_s=600.0))
        assert plan_fingerprint(plan, 4) == {
            "seed": 0, "device_count": 2000, "receiver_count": 225,
            "shard_count": 4, "duration_s": 600.0, "interval_s": 600.0,
            "jitter_std_s": 0.002, "area_m": [200.0, 200.0],
            "layout": "uniform", "start": "staggered", "channel": 6,
            "halo_m": 90.0, "max_range_m": 20.0,
            "interference_range_m": 90.0, "mobility": None,
            "plan_sha256": "ca7b98ba3e3d6df5553772c7394abf82"
                           "9d19be9566e4201f1421eeb8faa1a60b"}

    def test_different_shard_count_refused(self, tmp_path):
        plan, _ = self._checkpointed_run(tmp_path)
        with pytest.raises(CheckpointMismatchError) as exc_info:
            run_sharded_fleet(plan, shard_count=3, workers=1,
                              checkpoint_dir=str(tmp_path))
        assert "shard_count" in exc_info.value.mismatched

    def test_unfingerprinted_shards_refused(self, tmp_path):
        plan, _ = self._checkpointed_run(tmp_path)
        os.remove(tmp_path / "manifest.json")
        with pytest.raises(CheckpointError):
            run_sharded_fleet(plan, shard_count=2, workers=1,
                              checkpoint_dir=str(tmp_path))

    def test_corrupt_manifest_with_shards_refused(self, tmp_path):
        plan, _ = self._checkpointed_run(tmp_path)
        (tmp_path / "manifest.json").write_text("not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            run_sharded_fleet(plan, shard_count=2, workers=1,
                              checkpoint_dir=str(tmp_path))

    def test_kernel_switch_still_resumes(self, tmp_path):
        # The manifest records the kernel informationally only:
        # checkpoints are kernel-agnostic, so an event-kernel directory
        # must resume under the cohort kernel (and vice versa).
        plan, first = self._checkpointed_run(tmp_path, kernel="event")
        resumed = run_sharded_fleet(plan, shard_count=2, workers=1,
                                    checkpoint_dir=str(tmp_path),
                                    kernel="cohort")
        assert counters_equal(first, resumed) == []

    def test_no_temporary_files_left_behind(self, tmp_path):
        self._checkpointed_run(tmp_path)
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.endswith(".tmp")]
        assert leftovers == []
