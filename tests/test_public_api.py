"""The public API surface: what `import repro` promises downstream users.

A rename in a submodule that silently drops a top-level re-export is an
API break; this test pins the names the README and examples rely on.
Package re-exports resolve on first access (``repro._lazy``), so the
tests that depend on import state run in a fresh interpreter. Those
also pin what laziness buys: a bare ``import repro`` loads no
subpackage, the gateway service loads no numpy, no simulation layer,
no beacon encoder and no process pool, the experiments driver loads no
experiment it does not run, and a cohort fleet run loads no process
pool, mobility or fault injection.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.experiments.__main__ import EXPERIMENTS

HERE = os.path.dirname(os.path.abspath(__file__))
#: ``__all__`` of ``repro`` and of every subpackage, as the eager
#: ``__init__``s built it before re-exports became lazy.
GOLDEN_EXPORTS = os.path.join(HERE, "public_exports.json")


EXPECTED_TOP_LEVEL = [
    # simulation substrate
    "Simulator", "WirelessMedium", "Position", "Radio", "JitteryClock",
    # Wi-LE core
    "WiLEDevice", "WiLEReceiver", "TwoWayResponder", "DeviceKeyring",
    "WileMessage", "WileMessageType", "WileFlags",
    "SensorReading", "SensorKind",
    "encode_beacon", "decode_beacon", "is_wile_beacon", "ReceivedMessage",
    # 802.11 / MAC
    "Beacon", "MacAddress", "PhyRate", "VendorSpecific",
    "AccessPoint", "Station", "MonitorSniffer",
    # energy
    "CurrentTrace", "DutyCycleProfile", "Battery", "CR2032",
    # scenarios
    "ScenarioResult", "run_all_scenarios", "run_wile", "run_ble",
    "run_wifi_dc", "run_wifi_ps",
    # testbed
    "Keysight34465A",
]


def test_top_level_names_present():
    missing = [name for name in EXPECTED_TOP_LEVEL
               if not hasattr(repro, name)]
    assert not missing, f"top-level API lost: {missing}"


def test_all_is_consistent():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version_is_semver():
    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))
    # pyproject.toml reads the version from repro.__version__, so the
    # newest release heading of the changelog is the one other source.
    with open(os.path.join(HERE, os.pardir, "CHANGELOG.md"),
              encoding="utf-8") as handle:
        releases = re.findall(r"^## (\d+\.\d+\.\d+)$", handle.read(),
                              flags=re.MULTILINE)
    assert releases[0] == repro.__version__


def test_subpackages_importable():
    import importlib
    for package in ("core", "dot11", "security", "netproto", "phy", "sim",
                    "mac", "ble", "energy", "testbed", "scenarios",
                    "experiments", "fleet", "obs", "service"):
        module = importlib.import_module(f"repro.{package}")
        assert module.__doc__, f"repro.{package} lacks a docstring"


def test_every_public_module_documented():
    """Every public class/function reachable from the top level has a
    docstring — the documentation deliverable, enforced."""
    import inspect
    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, f"missing docstrings: {undocumented}"


def in_fresh_interpreter(code: str, *argv: str):
    """Run ``code`` in a new interpreter; returns the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, os.pardir, "src"))
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def golden_exports() -> dict[str, list[str]]:
    with open(GOLDEN_EXPORTS, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_package_all_unchanged():
    packages = sorted(golden_exports())
    found = in_fresh_interpreter(
        "import importlib, json, sys\n"
        "print(json.dumps({package: sorted(importlib.import_module("
        "package).__all__) for package in json.loads(sys.argv[1])}))",
        json.dumps(packages))
    assert found == golden_exports()


#: Resolves every declared export of every package and prints the names
#: that are not the very object their defining module holds. With
#: ``submodules-first`` every module is imported before any package
#: attribute is read, the order that lets a submodule bind itself over
#: a function of the same name (``repro.ble.crc24``, ``repro.dot11.show``,
#: ``repro.service.replay``).
RESOLVE_EXPORTS = """
import ast, importlib, importlib.util, json, pkgutil, sys

packages, order = json.loads(sys.argv[1]), sys.argv[2]
if order == "submodules-first":
    for package in packages:
        locations = importlib.util.find_spec(package).submodule_search_locations
        for info in pkgutil.iter_modules(locations):
            if info.name != "__main__":
                importlib.import_module(f"{package}.{info.name}")
wrong = []
for package in packages:
    module = importlib.import_module(package)
    with open(module.__file__, encoding="utf-8") as handle:
        calls = [node for node in ast.walk(ast.parse(handle.read()))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "lazy_exports"]
    for call in calls:
        for source, names in ast.literal_eval(call.args[1]).items():
            for entry in names:
                attribute, _, alias = entry.partition(" as ")
                value = getattr(module, alias or attribute)
                if value is not getattr(importlib.import_module(
                        source, package), attribute):
                    wrong.append(f"{package}.{alias or attribute}")
            if source.count(".") == 1 and source[1:] not in names:
                if getattr(module, source[1:]) is not sys.modules[
                        package + source]:
                    wrong.append(f"{package}{source}")
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("order", ["package-first", "submodules-first"])
def test_exports_are_their_defining_modules_objects(order):
    packages = sorted(golden_exports())
    assert in_fresh_interpreter(RESOLVE_EXPORTS, json.dumps(packages),
                                order) == []


#: What the gateway must never load: numpy and the simulation stack;
#: the beacon encoder and the frame classes, since it decodes with its
#: own fast path; and the process-pool stack, which it builds only when
#: configured with workers. ``repro.experiments`` is allowed only its
#: two stdlib-only modules, ``runner`` (the process pool) and
#: ``statistics`` (streaming moments).
GATEWAY_FORBIDDEN = ("numpy", "repro.sim", "repro.mac", "repro.security",
                     "repro.scenarios", "repro.testbed", "repro.ble",
                     "repro.core.codec", "repro.dot11.frames",
                     "multiprocessing")
GATEWAY_EXPERIMENTS = {"repro.experiments", "repro.experiments.runner",
                       "repro.experiments.statistics"}


def modules_after(statement: str) -> set[str]:
    """Every module loaded once ``statement`` ran in a fresh
    interpreter."""
    return set(in_fresh_interpreter(
        f"{statement}\nimport json, sys\n"
        "print(json.dumps(sorted(sys.modules)))"))


def test_import_repro_loads_no_subpackage():
    loaded = {name for name in modules_after("import repro")
              if name.startswith("repro.")}
    assert loaded == {"repro._lazy"}


#: The discrete-event stack: a fleet run on the cohort kernel, the
#: default, must not load it; only the event reference ``run_shard``
#: (and the cohort kernel's fallback for moving shards) needs it.
EVENT_ENGINE = {"repro.core.device", "repro.sim.engine", "repro.sim.medium",
                "repro.sim.radio"}
FLEET_RUN = (
    "from repro.fleet import FleetConfig, generate_fleet, run_sharded_fleet\n"
    "run_sharded_fleet(generate_fleet(FleetConfig(device_count=200, "
    "area_m=(60.0, 30.0), interval_s=30.0, duration_s=300.0)), "
    "shard_count=2, kernel={kernel!r})")


def under(prefixes, loaded: set[str]) -> list[str]:
    """The modules of ``loaded`` that are, or sit under, one of
    ``prefixes``."""
    return sorted(name for name in loaded
                  if any(name == prefix or name.startswith(prefix + ".")
                         for prefix in prefixes))


def test_cohort_fleet_run_loads_no_event_engine():
    assert not modules_after(FLEET_RUN.format(kernel="cohort")) & EVENT_ENGINE
    assert modules_after(FLEET_RUN.format(kernel="event")) >= EVENT_ENGINE


def test_cohort_fleet_run_loads_no_pool_mobility_or_faults():
    # A serial run builds no process pool, and a static fleet neither
    # moves nor injects faults.
    assert under(("multiprocessing", "concurrent.futures.process",
                  "repro.mobility", "repro.faults"),
                 modules_after(FLEET_RUN.format(kernel="cohort"))) == []


#: What the driver imports only for the entry, or the flag, that uses
#: it: every experiment ``--quick`` does not run, the artifact writers
#: (``--out``), the audits (``--audit``), and the mobility and fault
#: injection layers those experiments build on.
DRIVER_DEFERRED = (
    *(f"repro.experiments.{experiment.name}" for experiment in EXPERIMENTS
      if not experiment.quick),
    "repro.experiments.artifacts", "repro.obs.audit", "repro.mobility",
    "repro.faults.inject")


def test_driver_imports_only_what_quick_runs():
    assert under(DRIVER_DEFERRED,
                 modules_after("import repro.experiments.__main__")) == []


def test_importtime_lists_every_loaded_module():
    # ``-X importtime`` profiles the C import path; a lazy import routed
    # around it (``importlib.import_module``) drops what it loads from
    # the log, and so from any import-time breakdown taken with it.
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, os.pardir, "src"))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import json, sys, repro.experiments.__main__\n"
         "print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    logged = {line.rsplit("|", 1)[-1].strip()
              for line in result.stderr.splitlines()
              if line.startswith("import time:")}
    loaded = set(json.loads(result.stdout))
    assert under(("repro",), logged) == under(("repro",), loaded)


@pytest.mark.parametrize("statement", [
    "import repro.service.server, repro.service.federation",
    "import repro.service.__main__",
])
def test_gateway_loads_no_simulation_layer(statement):
    loaded = modules_after(statement)
    forbidden = under(GATEWAY_FORBIDDEN, loaded) + sorted(
        name for name in loaded
        if name.startswith("repro.experiments")
        and name not in GATEWAY_EXPERIMENTS)
    assert not forbidden, f"{statement!r} loaded {forbidden}"
