"""Smoke tests: every shipped example runs end to end and tells its story.

Run as subprocesses so each example exercises exactly what a user would
execute, including imports from the installed package.
"""

import os
import subprocess
import sys

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestQuickstart:
    def test_runs_and_decodes(self):
        output = run_example("quickstart.py")
        assert "messages decoded: 5" in output
        assert "84.0 uJ" in output
        assert "latest temperature: 17.50 C" in output


class TestFarmSensors:
    def test_full_fleet_heard_and_encrypted(self):
        output = run_example("farm_sensors.py")
        assert "from 20 devices" in output
        assert "decrypted 0" in output  # the eavesdropper
        assert "CR2032 life:" in output


class TestBatteryPlanner:
    def test_default_interval(self):
        output = run_example("battery_planner.py")
        assert "Wi-LE" in output and "verdict:" in output

    def test_custom_interval(self):
        output = run_example("battery_planner.py", "60")
        assert "one message every 60 s" in output


class TestSmartActuator:
    def test_commands_applied(self):
        output = run_example("smart_actuator.py")
        assert "new setpoint 21.5 C" in output
        assert "new setpoint 19.0 C" in output
        assert "commands delivered: 2" in output


class TestHomeInfrastructure:
    def test_ap_collects_while_serving(self):
        output = run_example("home_infrastructure.py")
        assert "laptop associated" in output
        assert "AP heard sensor 0xb001" in output
        assert "fleet loss rate: 0.0%" in output
        assert "0xb001 on channel 6" in output
