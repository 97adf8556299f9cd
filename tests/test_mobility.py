"""Tests for the mobility subsystem: trajectory determinism, AP grids,
handoff policies/costs, the fleet integration (zero-speed == static,
moving-shard invariance, medium re-bucketing), and the sweep + audit
plumbing."""

import csv
import dataclasses
import hashlib
import os
import subprocess
import sys

import pytest

from repro.check import CheckError, oracles_for_mode
from repro.energy import calibration as cal
from repro.experiments import mobility as mobility_sweep
from repro.experiments.artifacts import write_rows_csv
from repro.experiments.mobility import MobilityCell, run_cell
from repro.fleet import (
    FleetAggregate,
    FleetConfig,
    FleetError,
    generate_fleet,
    plan_shards,
    run_shard,
    run_shard_cohort,
)
from repro.fleet.kernel import KernelStats
from repro.fleet.population import validate_positions
from repro.mobility import (
    DEFAULT_SENSITIVITY_DBM,
    HANDOFF_TECHNOLOGIES,
    MOBILITY_MODELS,
    POLICY_KINDS,
    ApGrid,
    HandoffPolicy,
    MobilityConfig,
    MobilityError,
    Trajectory,
    build_trajectories,
    build_trajectory,
    reassociation_cost,
    walk_trajectory,
)
from repro.mobility.grid import GridError
from repro.mobility.handoff import HandoffError
from repro.obs import audit_mobility
from repro.sim import Position, Radio, Simulator, WirelessMedium
from repro.dot11 import Beacon, MacAddress, Ssid
from repro.dot11.rates import OFDM_24

AREA = (200.0, 100.0)


def _sample_hash(config, device_id, start, duration_s=3600.0):
    trajectory = build_trajectory(config, device_id, start, AREA, duration_s)
    return hashlib.blake2b(trajectory.sample(duration_s).tobytes()).hexdigest()


class TestTrajectories:
    def test_same_seed_bit_identical(self):
        for model in MOBILITY_MODELS:
            config = MobilityConfig(model=model, speed_mps=1.5, seed=3)
            first = build_trajectory(config, 5, (10.0, 20.0), AREA, 3600.0)
            second = build_trajectory(config, 5, (10.0, 20.0), AREA, 3600.0)
            assert first == second
            assert first.sample(3600.0).tobytes() == \
                second.sample(3600.0).tobytes()

    def test_different_seed_or_device_differs(self):
        config = MobilityConfig(model="random-waypoint", seed=3)
        base = build_trajectory(config, 5, (10.0, 20.0), AREA, 3600.0)
        other_seed = build_trajectory(
            MobilityConfig(model="random-waypoint", seed=4),
            5, (10.0, 20.0), AREA, 3600.0)
        other_device = build_trajectory(config, 6, (10.0, 20.0), AREA,
                                        3600.0)
        assert base.knots != other_seed.knots
        assert base.knots != other_device.knots

    def test_cross_process_determinism(self):
        """The blake2b draw discipline holds across interpreter runs,
        not just within one process."""
        config = MobilityConfig(model="random-waypoint", speed_mps=1.5,
                                seed=42)
        local = _sample_hash(config, 7, (12.5, 30.0))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = (
            "import hashlib\n"
            "from repro.mobility import MobilityConfig, build_trajectory\n"
            "config = MobilityConfig(model='random-waypoint',"
            " speed_mps=1.5, seed=42)\n"
            "trajectory = build_trajectory(config, 7, (12.5, 30.0),"
            " (200.0, 100.0), 3600.0)\n"
            "payload = trajectory.sample(3600.0).tobytes()\n"
            "print(hashlib.blake2b(payload).hexdigest())\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONHASHSEED"] = "1"  # must not matter; prove it
        remote = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, env=env,
                                timeout=120, check=True).stdout.strip()
        assert remote == local

    def test_zero_speed_and_static_are_single_knot(self):
        for config in (MobilityConfig(model="static"),
                       MobilityConfig(model="random-waypoint",
                                      speed_mps=0.0)):
            trajectory = build_trajectory(config, 1, (5.0, 6.0), AREA,
                                          3600.0)
            assert trajectory.is_static
            assert trajectory.knots == ((0.0, 5.0, 6.0),)
            assert not trajectory.moves_on_epoch_grid(3600.0)

    def test_positions_stay_inside_area(self):
        for model in MOBILITY_MODELS:
            config = MobilityConfig(model=model, speed_mps=5.0, seed=8)
            trajectory = build_trajectory(config, 2, (100.0, 50.0), AREA,
                                          7200.0)
            for x_m, y_m in trajectory.sample(7200.0):
                assert 0.0 <= x_m <= AREA[0]
                assert 0.0 <= y_m <= AREA[1]

    def test_epoch_position_matches_interpolation(self):
        config = MobilityConfig(model="waypoint", speed_mps=2.0, seed=1)
        trajectory = build_trajectory(config, 0, (0.0, 0.0), AREA, 3600.0)
        for epoch in (0, 7, 31, 60):
            assert trajectory.epoch_position(epoch) == \
                trajectory.position_at(epoch * trajectory.epoch_s)

    def test_x_extent_bounds_all_samples(self):
        config = MobilityConfig(model="commuter", speed_mps=1.4, seed=6)
        trajectory = build_trajectory(config, 9, (30.0, 70.0), AREA, 5400.0)
        x_min, x_max = trajectory.x_extent(5400.0)
        for x_m, _y in trajectory.sample(5400.0):
            assert x_min <= x_m <= x_max

    def test_build_trajectories_keys_by_device_id(self):
        config = MobilityConfig(model="random-waypoint", seed=2)
        starts = [(100, 1.0, 2.0), (101, 3.0, 4.0)]
        trajectories = build_trajectories(config, starts, AREA, 1800.0)
        assert [t.device_id for t in trajectories] == [100, 101]
        assert trajectories[0].knots[0] == (0.0, 1.0, 2.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(MobilityError):
            MobilityConfig(model="teleport")
        with pytest.raises(MobilityError):
            MobilityConfig(speed_mps=-1.0)
        with pytest.raises(MobilityError):
            MobilityConfig(epoch_s=0.0)


class TestApGrid:
    def test_candidates_match_brute_force(self):
        grid = ApGrid.build((300.0, 200.0), spacing_m=45.0)
        for index in range(100):
            x_m = (index * 37.0) % 300.0
            y_m = (index * 53.0) % 200.0
            assert grid.best(x_m, y_m) == grid.best_brute(x_m, y_m)

    def test_none_below_sensitivity(self):
        # One AP centred in a huge area: the far corner is out of reach.
        grid = ApGrid.build((4000.0, 4000.0), spacing_m=4000.0)
        assert grid.rssi_dbm(grid.sites[0], 0.0, 0.0) \
            < DEFAULT_SENSITIVITY_DBM
        assert grid.best(0.0, 0.0) is None
        centre = grid.sites[0]
        assert grid.best(centre.x_m + 1.0, centre.y_m) is not None

    def test_invalid_grid_rejected(self):
        with pytest.raises(GridError):
            ApGrid.build((100.0, 100.0), spacing_m=0.0)
        with pytest.raises(GridError):
            ApGrid.build((0.0, 100.0), spacing_m=10.0)


class TestPolicies:
    def setup_method(self):
        grid = ApGrid.build((200.0, 50.0), spacing_m=100.0)
        self.first, self.second = grid.sites[:2]

    def test_hysteresis_suppresses_small_wins(self):
        policy = HandoffPolicy(kind="hysteresis", hysteresis_db=3.0)
        stay = policy.select(self.first, -60.0, self.second, -58.0,
                             now_s=0.0, last_switch_s=-1e9)
        switch = policy.select(self.first, -60.0, self.second, -55.0,
                               now_s=0.0, last_switch_s=-1e9)
        assert stay is self.first
        assert switch is self.second

    def test_sticky_holds_through_dwell(self):
        policy = HandoffPolicy(kind="sticky", dwell_s=30.0)
        held = policy.select(self.first, -70.0, self.second, -50.0,
                             now_s=10.0, last_switch_s=0.0)
        released = policy.select(self.first, -70.0, self.second, -50.0,
                                 now_s=40.0, last_switch_s=0.0)
        assert held is self.first
        assert released is self.second

    def test_outage_and_reacquisition(self):
        policy = HandoffPolicy(kind="strongest")
        assert policy.select(self.first, -60.0, None, float("-inf"),
                             0.0, 0.0) is None
        assert policy.select(None, None, self.second, -50.0,
                             0.0, 0.0) is self.second

    def test_invalid_policy_rejected(self):
        with pytest.raises(HandoffError):
            HandoffPolicy(kind="psychic")
        with pytest.raises(HandoffError):
            HandoffPolicy(hysteresis_db=-1.0)


class TestHandoffCost:
    def test_wile_is_exactly_free(self):
        cost = reassociation_cost("Wi-LE")
        assert cost.mac_frames == 0
        assert cost.higher_frames == 0
        assert cost.airtime_s == 0.0
        assert cost.latency_s == 0.0
        assert cost.energy_j == 0.0

    def test_wifi_replays_the_papers_frame_counts(self):
        for technology in ("WiFi-PS", "WiFi-DC"):
            cost = reassociation_cost(technology)
            assert cost.mac_frames == cal.PAPER_MAC_FRAME_COUNT
            assert cost.higher_frames == cal.PAPER_HIGHER_LAYER_FRAME_COUNT
            assert cost.energy_j > 0.0
            assert cost.airtime_s > 0.0
            assert cost.latency_s > cost.airtime_s

    def test_ble_repair_between_free_and_wifi(self):
        ble = reassociation_cost("BLE")
        assert ble.mac_frames > 0
        assert 0.0 < ble.energy_j < reassociation_cost("WiFi-PS").energy_j

    def test_unknown_technology_rejected(self):
        with pytest.raises(HandoffError):
            reassociation_cost("LoRa")


class TestWalk:
    def test_row_crossing_counts_handoffs(self):
        grid = ApGrid.build((500.0, 50.0), spacing_m=50.0)
        trajectory = Trajectory(device_id=0, epoch_s=10.0,
                                knots=((0.0, 5.0, 25.0),
                                       (1000.0, 495.0, 25.0)))
        stats = walk_trajectory(trajectory, grid, HandoffPolicy(),
                                duration_s=1000.0, interval_s=10.0)
        assert stats.handoffs == grid.columns - 1
        assert stats.reacquisitions == 1
        assert stats.outage_s == 0.0
        assert stats.beacons_delivered == stats.beacons_sent

    def test_static_device_never_hands_off(self):
        grid = ApGrid.build((100.0, 100.0), spacing_m=50.0)
        trajectory = Trajectory(device_id=0, epoch_s=60.0,
                                knots=((0.0, 50.0, 50.0),))
        stats = walk_trajectory(trajectory, grid, HandoffPolicy(),
                                duration_s=3600.0, interval_s=600.0)
        assert stats.handoffs == 0
        assert stats.association_events == 1  # the cold start
        assert stats.beacons_delivered == stats.beacons_sent == 6

    def test_no_coverage_means_outage_and_loss(self):
        grid = ApGrid.build((4000.0, 4000.0), spacing_m=4000.0)
        trajectory = Trajectory(device_id=0, epoch_s=60.0,
                                knots=((0.0, 1.0, 1.0),))
        stats = walk_trajectory(trajectory, grid, HandoffPolicy(),
                                duration_s=3600.0, interval_s=600.0)
        assert stats.outage_s == 3600.0
        assert stats.handoffs == stats.reacquisitions == 0
        assert stats.beacons_delivered == 0

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_camped_exactly_when_some_ap_is_detectable(self, kind):
        """Why one delivery count serves every technology: whatever the
        policy, the walk camps on an AP in exactly the epochs where some
        AP is detectable, so any-AP and serving-AP delivery coincide."""
        grid = ApGrid.build((2000.0, 100.0), spacing_m=400.0)
        trajectory = Trajectory(device_id=0, epoch_s=10.0,
                                knots=((0.0, 5.0, 50.0),
                                       (2000.0, 1995.0, 50.0)))
        stats = walk_trajectory(trajectory, grid, HandoffPolicy(kind=kind),
                                duration_s=2000.0, interval_s=10.0)
        detectable = [grid.best(*trajectory.epoch_position(epoch))
                      is not None for epoch in range(stats.epochs)]
        assert [ap_id != -1 for ap_id in stats.serving_history] == detectable
        assert 0 < stats.beacons_delivered < stats.beacons_sent

    def test_walk_shorter_than_an_epoch_rejected(self):
        trajectory = Trajectory(device_id=0, epoch_s=60.0,
                                knots=((0.0, 1.0, 1.0),))
        with pytest.raises(HandoffError):
            walk_trajectory(trajectory, ApGrid.build((100.0, 100.0), 50.0),
                            HandoffPolicy(), duration_s=30.0,
                            interval_s=10.0)


MOBILE = FleetConfig(
    device_count=40, area_m=(120.0, 40.0), interval_s=60.0,
    duration_s=900.0, seed=13,
    mobility=MobilityConfig(model="random-waypoint", speed_mps=3.0,
                            epoch_s=30.0, seed=2))


class TestFleetIntegration:
    def test_mobility_config_validated(self):
        with pytest.raises(FleetError):
            FleetConfig(device_count=4, area_m=(10.0, 10.0),
                        interval_s=60.0, duration_s=60.0,
                        mobility="random-waypoint")

    def test_plan_carries_trajectories(self):
        plan = generate_fleet(MOBILE)
        assert plan.trajectories is not None
        assert len(plan.trajectories) == MOBILE.device_count
        trajectory = plan.trajectories[7]
        assert trajectory.device_id == 0x10000 + 7
        assert trajectory.knots[0] == (0.0, plan.x_m[7].item(),
                                       plan.y_m[7].item())
        static = generate_fleet(dataclasses.replace(MOBILE, mobility=None))
        assert static.trajectories is None

    def test_validate_positions_rejects_out_of_area(self):
        plan = generate_fleet(dataclasses.replace(MOBILE, mobility=None))
        x_m = plan.x_m.copy()
        x_m[0] = -1.0
        broken = dataclasses.replace(plan, x_m=x_m)
        with pytest.raises(FleetError, match="outside"):
            plan_shards(broken, 2)
        bad_receiver = dataclasses.replace(
            plan.receivers[0], y_m=plan.config.area_m[1] + 5.0)
        broken = dataclasses.replace(
            plan, receivers=(bad_receiver,) + plan.receivers[1:])
        with pytest.raises(FleetError, match="outside"):
            validate_positions(broken)

    def test_zero_speed_equals_static_both_kernels(self):
        base = FleetConfig(device_count=24, area_m=(60.0, 30.0),
                           interval_s=60.0, duration_s=600.0, seed=3)
        frozen = dataclasses.replace(
            base, mobility=MobilityConfig(model="random-waypoint",
                                          speed_mps=0.0, seed=5))
        for engine in (run_shard, run_shard_cohort):
            states = []
            for config in (base, frozen):
                total = FleetAggregate()
                for shard in plan_shards(generate_fleet(config), 2):
                    total.merge(engine(shard))
                states.append(total.to_state())
            assert states[0] == states[1], engine.__name__

    def test_moving_fleet_shard_invariance(self):
        # The 2-way split at x=60 cuts straight through moving devices'
        # paths: crossers are owned by one shard and haloed in the
        # other, and the integer counters must not care.
        plan = generate_fleet(MOBILE)
        crosses = sum(
            1 for trajectory in plan.trajectories
            if trajectory.x_extent(MOBILE.duration_s)[0] < 60.0
            < trajectory.x_extent(MOBILE.duration_s)[1])
        assert crosses > 0, "fixture must exercise boundary crossing"
        states = []
        for shard_count in (1, 2):
            total = FleetAggregate()
            for shard in plan_shards(plan, shard_count):
                total.merge(run_shard(shard))
            states.append(total.to_state())
        one, two = states
        for key, value in one.items():
            if key == "shard_count":
                continue
            if isinstance(value, int):
                assert value == two[key], key
        assert one["beacons_sent"] > 0
        assert one["uplink_out_of_range"] >= 0

    def test_cohort_demotes_moving_shards_to_event(self):
        plan = generate_fleet(MOBILE)
        (shard,) = plan_shards(plan, 1)
        stats = KernelStats()
        cohort = run_shard_cohort(shard, stats=stats)
        assert stats.demotions >= 1
        assert cohort.to_state() == run_shard(shard).to_state()


class TestMoveRadio:
    def _setup(self):
        sim = Simulator()
        medium = WirelessMedium(sim, max_range_m=50.0)
        tx = Radio(sim, medium, MacAddress.parse("02:00:00:00:00:0a"),
                   position=Position(0.0, 0.0), default_power_dbm=20.0)
        rx = Radio(sim, medium, MacAddress.parse("02:00:00:00:00:0b"),
                   position=Position(10.0, 0.0), default_power_dbm=20.0)
        return sim, medium, tx, rx

    def test_move_rebuckets_listener(self):
        sim, medium, tx, rx = self._setup()
        received = []
        rx.rx_callback = lambda frame, t: received.append(frame)
        tx.power_on()
        rx.power_on()
        # Stale-bucket trap: moving the *sender* across cells means the
        # receiver's power-on cell is no longer in the sender's 3x3
        # unless move_radio re-bucketed correctly.
        medium.move_radio(tx, Position(140.0, 0.0))
        medium.move_radio(rx, Position(130.0, 0.0))
        source = tx.mac
        tx.transmit(Beacon(source=source, bssid=source,
                           elements=(Ssid.named("t"),)), OFDM_24)
        sim.run()
        assert len(received) == 1
        assert medium._radio_cell[rx] == (2, 0)

    def test_move_out_of_range_loses_frame(self):
        sim, medium, tx, rx = self._setup()
        received = []
        rx.rx_callback = lambda frame, t: received.append(frame)
        tx.power_on()
        rx.power_on()
        medium.move_radio(rx, Position(500.0, 0.0))
        source = tx.mac
        tx.transmit(Beacon(source=source, bssid=source,
                           elements=(Ssid.named("t"),)), OFDM_24)
        sim.run()
        assert not received


class TestExperimentAndAudit:
    CELL = MobilityCell(speed_mps=1.4, ap_spacing_m=60.0,
                        technology="WiFi-PS", device_count=3,
                        area_m=(150.0, 150.0), duration_s=3600.0,
                        interval_s=600.0, seed=1)

    def test_run_cell_identities(self):
        point = run_cell(self.CELL)
        cost = reassociation_cost("WiFi-PS")
        assert point.devices == 3
        assert point.handoff_unit_j == cost.energy_j
        assert point.handoff_mac_frames == cal.PAPER_MAC_FRAME_COUNT
        assert point.handoff_energy_j == \
            point.association_events * cost.energy_j
        assert 0.0 <= point.delivery_rate <= 1.0
        assert point.energy_per_device_day_j > 0.0
        wile = run_cell(dataclasses.replace(self.CELL, technology="Wi-LE"))
        assert wile.handoff_unit_j == 0.0
        assert wile.handoff_energy_j == 0.0

    def test_audit_passes_and_catches_tampering(self):
        point = run_cell(self.CELL)
        report = audit_mobility(point)
        assert report.ok
        assert report.checks >= 4
        point.handoff_energy_j += 1e-6  # break the exact identity
        broken = audit_mobility(point)
        assert not broken.ok
        assert any("handoff-energy-conservation" == finding.invariant
                   for finding in broken.findings)
        wile = run_cell(dataclasses.replace(self.CELL, technology="Wi-LE"))
        wile.handoff_energy_j = 1e-9
        assert any("wile-handoff-free" == finding.invariant
                   for finding in audit_mobility(wile).findings)

    def test_default_sweep_walks_each_pair_once(self, monkeypatch,
                                                tmp_path):
        """One walk per (speed, spacing) pair and device scores all four
        technologies: 12 pairs x 8 devices = 96 walks, not 48 cells x 8,
        and no wake looks up its strongest AP a second time. Each
        speed builds its 8 trajectories once for all three spacings:
        4 speeds x 8 devices = 32 builds, not 96."""
        builds, walks, lookups = [], [], []

        def counted(real, calls):
            def wrapper(*args, **kwargs):
                calls.append(None)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mobility_sweep, "build_trajectory",
                            counted(mobility_sweep.build_trajectory, builds))
        monkeypatch.setattr(mobility_sweep, "walk_trajectory",
                            counted(walk_trajectory, walks))
        monkeypatch.setattr(ApGrid, "best", counted(ApGrid.best, lookups))
        points = mobility_sweep.run_mobility()
        assert len(builds) == 32
        assert len(walks) == 96
        assert len(lookups) == 96 * 240  # one per 60 s epoch of 4 h
        assert [point.cell.technology for point in points] == \
            list(HANDOFF_TECHNOLOGIES) * 12
        # Recorded when every technology still walked its own devices.
        counts = {(point.cell.technology, point.cell.speed_mps,
                   point.cell.ap_spacing_m): (point.handoffs,
                                              point.reacquisitions,
                                              point.beacons_sent,
                                              point.beacons_delivered)
                  for point in points}
        assert counts["WiFi-PS", 1.4, 60.0] == (1535, 8, 192, 192)
        assert counts["BLE", 5.0, 120.0] == (1542, 8, 192, 192)
        assert counts["Wi-LE", 15.0, 120.0] == (1652, 8, 192, 192)
        write_rows_csv(str(tmp_path / "mobility.csv"), points)
        assert hashlib.sha256((tmp_path / "mobility.csv").read_bytes()) \
            .hexdigest() == ("84cfbf1aa45c01288d8a5fbe6560d4be"
                             "1325e3fe7589db8d3025eee7a40ed5d8")

    def test_csv_roundtrip(self, tmp_path):
        points = [run_cell(self.CELL),
                  run_cell(dataclasses.replace(self.CELL,
                                               technology="Wi-LE"))]
        path = tmp_path / "mobility.csv"
        artifact = write_rows_csv(str(path), points)
        assert artifact.rows == 2
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["technology"] for row in rows] == ["WiFi-PS", "Wi-LE"]
        assert float(rows[1]["handoff_energy_j"]) == 0.0
        assert int(rows[0]["handoffs"]) == points[0].handoffs


class TestCheckWiring:
    def test_only_prefix_selects_family(self):
        family = oracles_for_mode("full", only=["mobility"])
        names = {oracle.name for oracle in family}
        assert len(names) >= 6
        assert all(name.startswith("mobility-") for name in names)

    def test_only_exact_name_still_selects_one(self):
        (chosen,) = oracles_for_mode(
            "full", only=["mobility-trajectory-golden"])
        assert chosen.name == "mobility-trajectory-golden"

    def test_only_unknown_still_raises(self):
        with pytest.raises(CheckError):
            oracles_for_mode("full", only=["mobility-nope-nothing"])
