"""Tests for the vectorized cohort kernel and the bench baseline gate.

The kernel's contract is exact equivalence with the event engine —
identical integer counters, moments within 1e-9 — including the nasty
edges: demotion on collision, synchronised worst cases, shard-boundary
interference through halos, checkpoint/resume, empty shards, and
transmissions still in flight at the horizon. The gate's contract is
that a >=30% injected slowdown or any counter drift fails CI.
"""

import dataclasses
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.check.bench import BenchGateError, load_baseline, run_gate
from repro.check.bench import main as bench_gate_main
from repro.experiments.fleet_scale import run_fleet_point
from repro.fleet import (
    FleetConfig,
    KernelError,
    KernelStats,
    generate_fleet,
    plan_shards,
    run_shard,
    run_shard_cohort,
    run_sharded_fleet,
)
from repro.fleet.aggregate import counters_equal, moments_close
from repro.fleet.kernel import (_SUM_CHUNK, _overlap_windows, _sequential_sum,
                                _sequential_sum_table)
from repro.obs.metrics import METRICS

SMALL = FleetConfig(device_count=60, area_m=(60.0, 30.0), interval_s=30.0,
                    duration_s=600.0, seed=11)
# Everyone transmits in the same slot: every beacon overlaps, so the
# kernel must demote broadly and still match the event engine exactly.
SYNC = FleetConfig(device_count=64, area_m=(50.0, 50.0), interval_s=20.0,
                   duration_s=200.0, seed=3, start="synchronised")
# One dense shard: 13,200 transmissions, 796 of them demoted.
DENSE = FleetConfig(device_count=600, area_m=(45.0, 45.0), interval_s=1.0,
                    duration_s=30.0, seed=5)


def _assert_identical(event, cohort, context=""):
    assert counters_equal(event, cohort) == [], context
    assert moments_close(event, cohort) == [], context


class TestKernelSelection:
    @pytest.mark.parametrize("kernel", ["auto", "bogus"])
    def test_unknown_kernel_rejected_before_any_shard_runs(
            self, kernel, monkeypatch):
        def no_shards(*args, **kwargs):
            raise AssertionError("shards planned for a bad kernel name")

        monkeypatch.setattr("repro.fleet.shards.plan_shards", no_shards)
        plan = generate_fleet(SMALL)
        with pytest.raises(KernelError):
            run_sharded_fleet(plan, shard_count=2, kernel=kernel)

    def test_fleet_point_runs_on_cohort_kernel(self):
        METRICS.clear()
        run_fleet_point(SMALL, shard_count=2)
        runs = [record["value"] for record in METRICS.snapshot()
                if record["name"] == "fleet.kernel.cohort_runs"]
        METRICS.clear()
        assert runs == [2]


class TestCohortEquivalence:
    def test_staggered_shard_matches_event(self):
        plan = generate_fleet(SMALL)
        (shard,) = plan_shards(plan, 1)
        stats = KernelStats()
        _assert_identical(run_shard(shard),
                          run_shard_cohort(shard, stats=stats))
        assert stats.transmissions > 0
        assert stats.cohort_resolved + stats.demotions == stats.transmissions

    def test_synchronised_collisions_demote_and_match(self):
        plan = generate_fleet(SYNC)
        (shard,) = plan_shards(plan, 1)
        stats = KernelStats()
        event = run_shard(shard)
        cohort = run_shard_cohort(shard, stats=stats)
        _assert_identical(event, cohort)
        # The synchronised start guarantees overlap, hence demotions —
        # and every demoted transmission must be decided (promoted).
        assert event.uplink_lost_collision > 0
        assert stats.demotions > 0
        assert stats.promotions == stats.demotions
        assert 0 < stats.demoted_devices <= stats.devices

    def test_collision_at_shard_boundary(self):
        # 3 shards over a synchronised fleet: overlapping transmitters
        # straddle strip boundaries, so correctness depends on halo
        # devices being simulated identically by both kernels.
        plan = generate_fleet(SYNC)
        for shard in plan_shards(plan, 3):
            _assert_identical(run_shard(shard), run_shard_cohort(shard),
                              f"shard {shard.index}")

    def test_sharded_merge_matches_event_kernel(self):
        plan = generate_fleet(SMALL)
        event = run_sharded_fleet(plan, shard_count=3, kernel="event")
        cohort = run_sharded_fleet(plan, shard_count=3, kernel="cohort")
        _assert_identical(event, cohort)

    def test_kernel_counters_survive_fan_out(self):
        plan = generate_fleet(SYNC)
        counters = []
        for workers in (1, 2):
            METRICS.clear()
            run_sharded_fleet(plan, shard_count=3, workers=workers,
                              kernel="cohort")
            counters.append({record["name"]: record["value"]
                             for record in METRICS.snapshot()
                             if record["name"].startswith("fleet.kernel.")})
        METRICS.clear()
        assert counters[0]["fleet.kernel.cohort_runs"] == 3
        assert counters[0]["fleet.kernel.demotions"] > 0
        assert counters[1] == counters[0]

    def test_checkpoint_resume_with_cohort_kernel(self):
        plan = generate_fleet(SMALL)
        reference = run_sharded_fleet(plan, shard_count=2, kernel="event")
        with tempfile.TemporaryDirectory() as directory:
            first = run_sharded_fleet(plan, shard_count=2, kernel="cohort",
                                      checkpoint_dir=directory)
            # Second run resumes every shard from its checkpoint file —
            # aggregates written by the cohort kernel must round-trip.
            resumed = run_sharded_fleet(plan, shard_count=2,
                                        kernel="cohort",
                                        checkpoint_dir=directory)
        _assert_identical(reference, first)
        _assert_identical(reference, resumed)

    def test_empty_shard(self):
        plan = generate_fleet(SMALL)
        (shard,) = plan_shards(plan, 1)
        none = np.zeros(0, dtype=int)
        empty = dataclasses.replace(
            shard, device_id=none, x_m=none.astype(float),
            y_m=none.astype(float), first_wake_s=none.astype(float),
            drift_ppm=none.astype(float), clock_seed=none,
            owned=none.astype(bool), designated=none.reshape(0, 2),
            uncovered=none)
        stats = KernelStats()
        _assert_identical(run_shard(empty),
                          run_shard_cohort(empty, stats=stats))
        assert stats.transmissions == 0

    def test_in_flight_at_horizon(self):
        # Horizon lands 50 us into the synchronised burst's airtime:
        # every transmission starts but none completes, and overlapped
        # in-flight beacons leave their devices demoted at the horizon.
        config = FleetConfig(device_count=64, area_m=(50.0, 50.0),
                             interval_s=20.0, duration_s=20.35005,
                             seed=3, start="synchronised")
        plan = generate_fleet(config)
        (shard,) = plan_shards(plan, 1)
        stats = KernelStats()
        event = run_shard(shard)
        cohort = run_shard_cohort(shard, stats=stats)
        _assert_identical(event, cohort)
        assert event.beacons_in_flight == 64
        assert event.beacons_sent == 0
        assert stats.still_demoted_at_horizon == 64


class TestWorkingSet:
    def test_kernel_peak_per_transmission(self):
        # The kernel keeps a few bytes per transmission plus per-device
        # state (~41 B per transmission here). An overlap window per
        # transmission, or an interference cache keyed by (device,
        # gateway), takes this shard past the bound.
        (shard,) = plan_shards(generate_fleet(DENSE), 1)
        run_shard_cohort(plan_shards(generate_fleet(SMALL), 1)[0])
        stats = KernelStats()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            run_shard_cohort(shard, stats=stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (stats.transmissions, stats.demotions) == (13_200, 796)
        assert (peak - before) / stats.transmissions < 100

    @pytest.mark.parametrize("count", [0, 1, _SUM_CHUNK - 1, _SUM_CHUNK,
                                       _SUM_CHUNK + 1, 3 * _SUM_CHUNK + 7])
    def test_chunked_sum_equals_table(self, count):
        # The airtime counter's sequential sum, in bounded chunks, lands
        # on the same bits as the whole per-beacon table.
        for addend in (52.8 / 1e6, 0.1):
            table = _sequential_sum_table(addend, count)
            expected = float(table[-1]) if count else 0.0
            assert _sequential_sum(addend, count) == expected


def _windows_by_definition(starts, airtime_s, horizon_s):
    """Every transmission's overlap window from two ``searchsorted``
    calls; it overlaps another iff its window holds more than itself."""
    ends = starts + airtime_s
    lo = np.searchsorted(ends, starts, side="left")
    hi = np.searchsorted(starts, ends, side="right")
    overlapped = (hi - lo) > 1
    completed = ends <= horizon_s
    demoted = np.flatnonzero(completed & overlapped)
    return (int(completed.sum()), overlapped, demoted, lo[demoted],
            hi[demoted])


class TestOverlapRule:
    # Starts and horizon on a grid of half airtimes, so ties, exact
    # adjacency (start == previous end, exact for the dyadic airtimes)
    # and partial overlaps all occur; the non-dyadic airtime is a fleet
    # beacon's (52.8 us), where adjacency is decided by rounding. The
    # example chains three back-to-back frames, the last ending exactly
    # at the horizon.
    @given(st.lists(st.integers(0, 40), max_size=60),
           st.sampled_from([0.5, 2.0 ** -12, 52.8 / 1e6]),
           st.integers(0, 44))
    @example(slots=[0, 2, 4, 9], airtime_s=0.5, horizon_slot=6)
    def test_neighbour_flags_equal_window_definition(
            self, slots, airtime_s, horizon_slot):
        starts = np.sort(np.array(slots, dtype=float)) * (airtime_s / 2)
        horizon_s = horizon_slot * (airtime_s / 2)
        kernel = _overlap_windows(starts, airtime_s, horizon_s)
        definition = _windows_by_definition(starts, airtime_s, horizon_s)
        assert kernel[0] == definition[0]
        for got, want in zip(kernel[1:], definition[1:]):
            np.testing.assert_array_equal(got, want)


def _write_baseline(directory, suite, benches):
    payload = {"schema": 1, "suite": suite,
               "calibration_seconds": 0.01, "benches": benches}
    path = os.path.join(directory, f"BENCH_{suite}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def _bench(work_units, counters=None):
    return {"seconds": work_units * 0.01, "work_units": work_units,
            "counters": counters or {"sent": 100}}


class TestBenchGate:
    def test_identical_baselines_pass(self, tmp_path):
        committed, fresh = tmp_path / "a", tmp_path / "b"
        committed.mkdir(), fresh.mkdir()
        for directory in (committed, fresh):
            _write_baseline(directory, "fleet", {"run": _bench(10.0)})
            _write_baseline(directory, "substrate", {"op": _bench(0.5)})
            _write_baseline(directory, "service", {"soak": _bench(3.0)})
            _write_baseline(directory, "scenarios", {"fig": _bench(2.0)})
            _write_baseline(directory, "federation", {"merge": _bench(1.0)})
        report = run_gate(str(committed), str(fresh))
        assert report.ok
        assert {result.name for result in report.results} == \
            {"bench-fleet-run", "bench-substrate-op", "bench-service-soak",
             "bench-scenarios-fig", "bench-federation-merge"}

    def test_injected_slowdown_fails(self, tmp_path):
        # The committed/fresh pair the BENCH_INJECT_SLOWDOWN=1.5 knob
        # produces: same counters, 50% more work units. Must fail the
        # 30% band; the same slowdown passes a 60% band.
        committed, fresh = tmp_path / "a", tmp_path / "b"
        committed.mkdir(), fresh.mkdir()
        for suite in ("fleet", "substrate"):
            _write_baseline(committed, suite, {"run": _bench(10.0)})
            _write_baseline(fresh, suite, {"run": _bench(15.0)})
        suites = ("fleet", "substrate")
        report = run_gate(str(committed), str(fresh), tolerance=0.30,
                          suites=suites)
        assert not report.ok
        assert len(report.failed) == 2
        assert report.failed[0].max_deviation == pytest.approx(0.5)
        assert run_gate(str(committed), str(fresh), tolerance=0.60,
                        suites=suites).ok

    def test_faster_never_fails(self, tmp_path):
        committed, fresh = tmp_path / "a", tmp_path / "b"
        committed.mkdir(), fresh.mkdir()
        for suite in ("fleet", "substrate"):
            _write_baseline(committed, suite, {"run": _bench(10.0)})
            _write_baseline(fresh, suite, {"run": _bench(2.0)})
        assert run_gate(str(committed), str(fresh),
                        suites=("fleet", "substrate")).ok

    def test_counter_drift_fails_exactly(self, tmp_path):
        committed, fresh = tmp_path / "a", tmp_path / "b"
        committed.mkdir(), fresh.mkdir()
        _write_baseline(committed, "fleet",
                        {"run": _bench(10.0, {"sent": 100})})
        _write_baseline(fresh, "fleet",
                        {"run": _bench(10.0, {"sent": 101})})
        report = run_gate(str(committed), str(fresh), suites=("fleet",))
        assert not report.ok
        (failed,) = report.failed
        assert failed.unit == "mismatches"
        assert "sent" in failed.detail

    def test_missing_bench_fails(self, tmp_path):
        committed, fresh = tmp_path / "a", tmp_path / "b"
        committed.mkdir(), fresh.mkdir()
        _write_baseline(committed, "fleet",
                        {"run": _bench(10.0), "gone": _bench(1.0)})
        _write_baseline(fresh, "fleet", {"run": _bench(10.0)})
        report = run_gate(str(committed), str(fresh), suites=("fleet",))
        assert not report.ok
        assert report.failed[0].name == "bench-fleet-gone"

    def test_missing_or_malformed_baseline_raises(self, tmp_path):
        with pytest.raises(BenchGateError):
            load_baseline(str(tmp_path), "fleet")
        path = tmp_path / "BENCH_fleet.json"
        path.write_text("not json")
        with pytest.raises(BenchGateError):
            load_baseline(str(tmp_path), "fleet")
        path.write_text(json.dumps({"benches": {}}))
        with pytest.raises(BenchGateError):
            load_baseline(str(tmp_path), "fleet")

    def test_cli_exit_codes(self, tmp_path, capsys):
        committed, fresh = tmp_path / "a", tmp_path / "b"
        committed.mkdir(), fresh.mkdir()
        for suite in ("fleet", "substrate"):
            _write_baseline(committed, suite, {"run": _bench(10.0)})
            _write_baseline(fresh, suite, {"run": _bench(15.0)})
        suite_args = ["--suites", "fleet", "substrate"]
        assert bench_gate_main(["--committed", str(committed),
                                "--fresh", str(fresh),
                                "--tolerance", "0.60"] + suite_args) == 0
        assert bench_gate_main(["--committed", str(committed),
                                "--fresh", str(fresh)] + suite_args) == 1
        assert bench_gate_main(["--committed", str(tmp_path / "nope"),
                                "--fresh", str(fresh)] + suite_args) == 2
        report_path = tmp_path / "report.json"
        bench_gate_main(["--committed", str(committed),
                         "--fresh", str(fresh),
                         "--json", str(report_path)] + suite_args)
        payload = json.loads(report_path.read_text())
        assert payload["summary"]["failed"] == 2
        capsys.readouterr()


def test_committed_baselines_are_loadable():
    """The repo-root BENCH_*.json must always parse and validate."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for suite in ("fleet", "substrate", "service", "scenarios"):
        payload = load_baseline(root, suite)
        assert payload["suite"] == suite
        for entry in payload["benches"].values():
            assert entry["work_units"] > 0


class TestBenchHistory:
    def test_gate_uses_latest_history_entry(self, tmp_path):
        # Committed top-level timings are stale-slow; the latest history
        # entry is fast. A fresh run matching the history tail must
        # pass, proving the gate reads history[-1], not the top level.
        committed, fresh = tmp_path / "a", tmp_path / "b"
        committed.mkdir(), fresh.mkdir()
        payload = {"schema": 2, "suite": "fleet",
                   "calibration_seconds": 0.01,
                   "benches": {"run": _bench(100.0)},
                   "history": [
                       {"sha": "aaaaaaa", "calibration_seconds": 0.01,
                        "benches": {"run": {"seconds": 1.0,
                                            "work_units": 100.0}}},
                       {"sha": "bbbbbbb", "calibration_seconds": 0.01,
                        "benches": {"run": {"seconds": 0.1,
                                            "work_units": 10.0}}},
                   ]}
        with open(committed / "BENCH_fleet.json", "w") as handle:
            json.dump(payload, handle)
        _write_baseline(fresh, "fleet", {"run": _bench(10.5)})
        report = run_gate(str(committed), str(fresh), suites=("fleet",))
        assert report.ok, report.render()
        # Against the stale top-level 100 wu a 10.5 wu run would be a
        # huge speedup; against history[-1] it is +5%.
        (result,) = report.results
        assert result.max_deviation == pytest.approx(0.05)
        # Counters still come from the top level: drift there fails even
        # when the history timings agree.
        _write_baseline(fresh, "fleet",
                        {"run": _bench(10.0, {"sent": 999})})
        assert not run_gate(str(committed), str(fresh),
                            suites=("fleet",)).ok

    def test_history_appends_and_caps(self, tmp_path, monkeypatch):
        import importlib.util
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "bench_conftest", os.path.join(root, "benchmarks",
                                           "conftest.py"))
        bench_conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_conftest)
        monkeypatch.setenv("BENCH_OUT_DIR", str(tmp_path))
        monkeypatch.setattr(bench_conftest, "_RECORDS",
                            {"fleet": {"run": _bench(10.0)}})
        monkeypatch.setitem(bench_conftest._CALIBRATION, "seconds", 0.01)
        for _ in range(bench_conftest.HISTORY_LIMIT + 3):
            bench_conftest.pytest_sessionfinish(None, 0)
        payload = json.loads((tmp_path / "BENCH_fleet.json").read_text())
        assert len(payload["history"]) == bench_conftest.HISTORY_LIMIT
        tail = payload["history"][-1]
        assert tail["benches"]["run"]["work_units"] == 10.0
        assert tail["sha"]
        assert "counters" not in tail["benches"]["run"]

    def test_malformed_history_tail_raises(self, tmp_path):
        path = tmp_path / "BENCH_fleet.json"
        path.write_text(json.dumps(
            {"benches": {"run": _bench(10.0)}, "history": ["bogus"]}))
        with pytest.raises(BenchGateError):
            load_baseline(str(tmp_path), "fleet")
