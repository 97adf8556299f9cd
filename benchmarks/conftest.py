"""Shared fixtures for the reproduction benches.

Each bench regenerates one of the paper's tables/figures (or an
ablation) and prints the rendered artifact so ``pytest benchmarks/
--benchmark-only -s`` doubles as the reproduction report. Scenario runs
are cached per session: the benches measure the harness once and reuse
results for the printed comparisons.

Baseline recording
------------------

Benches call :func:`record_baseline` with their measured seconds and
exact counters. When ``BENCH_OUT_DIR=<dir>`` is set, the session end
writes one ``BENCH_<suite>.json`` per suite there — ``fleet`` and
``substrate`` are the two committed at the repo root. Timings are
stored both raw (``seconds``) and machine-normalised (``work_units`` =
seconds / :func:`calibration_seconds`, where the calibration is a
fixed pure-Python workload timed on the same host in the same session),
so the regression gate (``python -m repro.check.bench``) can compare a
CI runner against a baseline recorded on different hardware. Each
refresh also appends a ``history`` entry (git SHA + per-bench timings,
most recent last, capped at :data:`HISTORY_LIMIT`) so a baseline file
doubles as a drift trail; the gate always compares against the latest
entry.

Refresh the committed baselines with::

    BENCH_OUT_DIR=. PYTHONPATH=src python -m pytest benchmarks/ \
        --benchmark-only -q

``BENCH_INJECT_SLOWDOWN=<factor>`` multiplies every recorded timing —
the self-test knob that proves the gate trips on a real slowdown.
Never set it outside that test.
"""

import json
import os
import subprocess
import time

import pytest

from repro.scenarios import run_all_scenarios


@pytest.fixture(scope="session")
def scenario_results():
    return run_all_scenarios()


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer.

    Scenario experiments are deterministic end-to-end simulations;
    repeating them only multiplies wall-clock time without adding
    information, so every bench uses a single round.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def timed_once(benchmark, fn, *args, **kwargs):
    """Like :func:`once`, but also return the measured wall seconds.

    The timing is taken around the call itself (inside the pedantic
    round), so it excludes pytest-benchmark's harness overhead and can
    feed :func:`record_baseline` directly.
    """
    box = {}

    def wrapper(*call_args, **call_kwargs):
        started = time.perf_counter()
        box["result"] = fn(*call_args, **call_kwargs)
        box["seconds"] = time.perf_counter() - started
        return box["result"]

    benchmark.pedantic(wrapper, args=args, kwargs=kwargs,
                       rounds=1, iterations=1, warmup_rounds=0)
    return box["result"], box["seconds"]


def best_op_seconds(fn, *args, repeat=5, target_s=0.02):
    """Best-of-``repeat`` per-call seconds for a microsecond-scale op.

    Loops the call enough times that each sample spans ``target_s`` of
    wall clock (so the timer's granularity is negligible) and takes the
    minimum — the standard noise-floor estimate for micro timings.
    """
    started = time.perf_counter()
    fn(*args)
    single = time.perf_counter() - started
    number = max(1, min(20_000, int(target_s / max(single, 1e-9))))
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        for _ in range(number):
            fn(*args)
        best = min(best, (time.perf_counter() - started) / number)
    return best


_CALIBRATION: dict = {}


def _calibration_workload() -> float:
    """A fixed pure-Python mix of float and integer work (~tens of ms).

    Deliberately dependency-free: it measures the interpreter + host
    speed, the same denominator every bench's simulation time divides
    by, so ``work_units`` cancels out machine speed to first order.
    """
    accumulator = 0.0
    scale = 1e-9
    for index in range(200_000):
        accumulator += (index & 7) * scale
        scale = scale * 1.000001 if scale < 1.0 else 1e-9
    return accumulator


def calibration_seconds() -> float:
    """Best-of-3 seconds for the calibration workload (session-cached)."""
    if "seconds" not in _CALIBRATION:
        _CALIBRATION["seconds"] = min(
            best_op_seconds(_calibration_workload, repeat=1, target_s=0.0)
            for _ in range(3))
    return _CALIBRATION["seconds"]


def calibrated_op_seconds(fn, *args):
    """:func:`best_op_seconds` of ``fn`` at the session calibration's speed.

    A shared host's speed drifts by up to 2x over seconds, so a
    millisecond op timed well after the session calibration can read
    60% slow in work units. Three rounds time ``fn`` and the calibration
    workload in turn, each best of five; the best ``fn`` time over the
    best calibration time, times the session calibration, cancels that
    drift while a real slowdown of ``fn`` still raises the ratio. The
    result is what ``fn`` takes at the session calibration's speed, so
    :func:`record_baseline` stores it as seconds.
    """
    best = calibration = float("inf")
    for _ in range(3):
        best = min(best, best_op_seconds(fn, *args))
        calibration = min(calibration, best_op_seconds(
            _calibration_workload, repeat=5, target_s=0.0))
    return best / calibration * calibration_seconds()


#: suite name -> bench name -> {"seconds", "work_units", "counters"}
_RECORDS: dict = {}


def record_baseline(suite, name, seconds, counters=None):
    """Record one bench's timing + exact counters for the baseline file.

    ``counters`` must be integers (or strings): the gate compares them
    exactly, so they pin determinism while ``work_units`` pins speed.
    """
    factor = float(os.environ.get("BENCH_INJECT_SLOWDOWN", "1") or "1")
    seconds = seconds * factor
    _RECORDS.setdefault(suite, {})[name] = {
        "seconds": float(f"{seconds:.6g}"),
        "work_units": float(f"{seconds / calibration_seconds():.6g}"),
        "counters": dict(counters or {}),
    }


#: Most recent history entries kept per baseline file.
HISTORY_LIMIT = 50


def _git_sha() -> str:
    """The current commit's short SHA, or ``"unknown"`` outside git."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _prior_history(path: str) -> list:
    """The ``history`` list of an existing baseline file, else empty."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            prior = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return []
    history = prior.get("history")
    return list(history) if isinstance(history, list) else []


def pytest_sessionfinish(session, exitstatus):
    out_dir = os.environ.get("BENCH_OUT_DIR")
    if not out_dir or not _RECORDS:
        return
    os.makedirs(out_dir, exist_ok=True)
    for suite in sorted(_RECORDS):
        benches = {name: _RECORDS[suite][name]
                   for name in sorted(_RECORDS[suite])}
        path = os.path.join(out_dir, f"BENCH_{suite}.json")
        # Each refresh appends a timing snapshot (no counters: those are
        # pinned at the top level) so the gate compares against the most
        # recent recording and the file keeps a drift trail.
        history = _prior_history(path)
        history.append({
            "sha": _git_sha(),
            "calibration_seconds": float(f"{calibration_seconds():.6g}"),
            "benches": {name: {"seconds": entry["seconds"],
                               "work_units": entry["work_units"]}
                        for name, entry in benches.items()},
        })
        payload = {
            "schema": 2,
            "suite": suite,
            "calibration_seconds": float(f"{calibration_seconds():.6g}"),
            "benches": benches,
            "history": history[-HISTORY_LIMIT:],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nbench baseline written to {path} "
              f"({len(payload['history'])} history entries)")
