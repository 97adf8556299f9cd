"""Tests for the experiment registry behind ``python -m repro.experiments``."""

import ast
import contextlib
import csv
import dataclasses
import hashlib
import io
import os
import pkgutil

import pytest

import repro.experiments
from repro.experiments import new_devices
from repro.experiments.__main__ import EXPERIMENTS, main

#: sha256 of ``python -m repro.experiments --quick`` stdout; the same
#: value the end-to-end benchmark checks as its ``quick`` output.
QUICK_SHA256 = "ba33ec154b5bf05850e5be6add5328a4f7315237f8724aa0448f82dbf2256f87"

#: Entries that take seconds to minutes; left to the full-run checks.
SLOW = {"fleet_scale", "contention", "reliability", "band_5ghz"}

RULE = "#" * 72


def run_main(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def blocks(stdout: str) -> dict[str, str]:
    """Printed blocks keyed by their banner title."""
    parts = stdout.split(f"\n{RULE}\n# ")[1:]
    return dict(part.split(f"\n{RULE}\n", 1) for part in parts)


@pytest.fixture(scope="module")
def quick_stdout():
    code, stdout = run_main(["--quick"])
    assert code == 0
    return stdout


def test_quick_stdout_is_pinned(quick_stdout):
    digest = hashlib.sha256(quick_stdout.encode("utf-8")).hexdigest()
    assert digest == QUICK_SHA256


def test_names_are_unique():
    names = [experiment.name for experiment in EXPERIMENTS]
    assert len(names) == len(set(names)) == 17
    assert [experiment.name for experiment in EXPERIMENTS
            if experiment.quick] == ["table1", "figure3", "figure4",
                                     "frame_counts"]


@pytest.mark.parametrize("experiment",
                         [experiment for experiment in EXPERIMENTS
                          if experiment.name not in SLOW],
                         ids=lambda experiment: experiment.name)
def test_only_runs_writes_and_audits_one_entry(experiment, quick_stdout,
                                               tmp_path):
    code, stdout = run_main(["--only", experiment.name,
                             "--out", str(tmp_path), "--audit"])
    assert code == 0
    printed = blocks(stdout)
    assert experiment.title in printed
    for filename, _write in experiment.artifacts:
        with open(tmp_path / filename, newline="") as handle:
            assert len(list(csv.reader(handle))) > 1, filename
    audit = printed["Invariant audit"]
    assert "all invariants hold" in audit
    if experiment.audit is not None:
        assert f"\n{experiment.name}: " in audit
    if experiment.quick:
        assert printed[experiment.title] == \
            blocks(quick_stdout)[experiment.title]


def test_tampered_harvester_fleet_run_fails_audit(monkeypatch):
    honest = new_devices.run_fleet_cell

    def tampered(cell):
        point = honest(cell)
        first = dataclasses.replace(point.runs[0],
                                    transmitted=point.runs[0].transmitted + 1)
        return dataclasses.replace(point, runs=(first, *point.runs[1:]))

    monkeypatch.setattr(new_devices, "run_fleet_cell", tampered)
    code, stdout = run_main(["--only", "new_devices", "--audit"])
    assert code == 1
    assert "FAIL [report-accounting] harvest-fleet[" in stdout


def test_timings_list_each_experiment_once():
    code, stdout = run_main(["--quick", "--timings"])
    assert code == 0
    rows = [line.split() for line in
            blocks(stdout)["Stage timings"].splitlines()[4:]]
    assert sorted(row[0] for row in rows) == sorted(
        ["experiments.scenarios", "experiments.table1",
         "experiments.figure3", "experiments.figure4",
         "experiments.frame_counts", "total"])
    assert all(row[1] == "1" for row in rows[:-1])


def test_only_and_quick_are_exclusive():
    with pytest.raises(SystemExit):
        main(["--quick", "--only", "table1"])
    with pytest.raises(SystemExit):
        main(["--only", "no-such-experiment"])


def test_only_main_module_has_an_entry_point():
    offenders = []
    for module in pkgutil.iter_modules(repro.experiments.__path__):
        if module.name == "__main__":
            continue
        path = os.path.join(repro.experiments.__path__[0],
                            f"{module.name}.py")
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "main":
                offenders.append(f"{module.name}.main")
            if isinstance(node, ast.If) and "__name__" in ast.unparse(
                    node.test):
                offenders.append(f"{module.name} __main__ guard")
    assert offenders == []
