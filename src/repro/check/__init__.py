"""repro.check — the differential- and metamorphic-correctness harness.

Every fast path in this repository ships with a slower twin (T-table
AES vs the FIPS-197 reference, sampled traces vs exact integrals,
N-shard fleets vs one shard, fault plans at zero intensity vs no plan
at all, a run with a killed worker or gateway vs a clean one), and
every model has analytic ground truth somewhere (Eq. 1's closed form,
the DCF slotted-access analysis, RFC 1071 / CRC conformance vectors).
Nothing used to run both sides *systematically* — a modelling bug
could survive until someone read the code, as the DCF backoff-redraw
bug did. This package is the standing defence:

* **differential oracles** run both members of a fast/reference pair
  on the same inputs and diff the outputs to a stated tolerance;
* **analytic oracles** compare simulated behaviour against closed-form
  or published ground truth;
* **metamorphic oracles** assert properties no single run can check —
  time-shift invariance of traces, seed-permutation invariance of
  replications, linearity of charge in cycle count, merge-equals-
  sequential for every mergeable accumulator.

Run it with ``python -m repro.check [--smoke|--full]``. Every oracle
reports a :class:`CheckResult` (max deviation, tolerance, pass/fail);
the report is machine-readable (``--json``) and each run registers its
deviations in :data:`repro.obs.metrics.METRICS` under ``check.*``.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..obs.metrics import METRICS, MetricsRegistry

__all__ = [
    "CheckError", "Deviation", "Oracle", "CheckResult", "CheckReport",
    "oracle", "all_oracles", "oracles_for_mode", "run_checks", "KINDS",
]

KINDS = ("differential", "analytic", "metamorphic")


class CheckError(RuntimeError):
    """Raised for misuse of the check harness itself."""


@dataclass(frozen=True, slots=True)
class Deviation:
    """What an oracle measured: worst disagreement vs allowed bound.

    ``max_deviation`` and ``tolerance`` share a unit (``unit``); a
    count-valued oracle (conformance vectors, byte-exact diffs) uses
    ``unit="mismatches"`` with tolerance 0.
    """

    max_deviation: float
    tolerance: float
    unit: str = ""
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


@dataclass(frozen=True, slots=True)
class Oracle:
    """One registered correctness check."""

    name: str
    kind: str
    description: str
    fn: Callable[[], Deviation]
    smoke: bool = True


@dataclass(frozen=True, slots=True)
class CheckResult:
    """One oracle's outcome, ready for the table and the JSON report."""

    name: str
    kind: str
    description: str
    passed: bool
    max_deviation: float
    tolerance: float
    unit: str
    detail: str
    duration_s: float
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "passed": self.passed,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "unit": self.unit,
            "detail": self.detail,
            "duration_s": self.duration_s,
            "error": self.error,
        }


@dataclass
class CheckReport:
    """All results of one harness run."""

    mode: str
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failed(self) -> list[CheckResult]:
        return [result for result in self.results if not result.passed]

    def to_dict(self) -> dict:
        """Machine-readable report (the ``--json`` artifact)."""
        return {
            "mode": self.mode,
            "checks": [result.to_dict() for result in self.results],
            "summary": {
                "total": len(self.results),
                "passed": sum(1 for r in self.results if r.passed),
                "failed": len(self.failed),
                "kinds": {kind: sum(1 for r in self.results
                                    if r.kind == kind)
                          for kind in KINDS},
                "ok": self.ok,
            },
        }

    def render(self) -> str:
        from ..experiments.report import render_table
        rows = []
        for result in self.results:
            rows.append([
                result.name,
                result.kind,
                "PASS" if result.passed else "FAIL",
                f"{result.max_deviation:.3g}",
                f"{result.tolerance:.3g}",
                result.unit,
                f"{result.duration_s * 1e3:.0f} ms",
            ])
        table = render_table(
            f"repro.check — {self.mode}: "
            f"{len(self.results) - len(self.failed)}/{len(self.results)} "
            "oracles passed",
            ["oracle", "kind", "verdict", "max dev", "tolerance", "unit",
             "time"], rows)
        notes = [table]
        for result in self.failed:
            notes.append(f"FAIL {result.name}: {result.detail or result.error}")
        return "\n".join(notes)


#: Global oracle registry, populated at import of the oracle modules.
_REGISTRY: list[Oracle] = []


def oracle(name: str, kind: str, description: str,
           smoke: bool = True) -> Callable:
    """Register ``fn() -> Deviation`` as a named correctness oracle."""
    if kind not in KINDS:
        raise CheckError(f"unknown oracle kind {kind!r}; choose from {KINDS}")

    def wrap(fn: Callable[[], Deviation]) -> Callable[[], Deviation]:
        if any(existing.name == name for existing in _REGISTRY):
            raise CheckError(f"duplicate oracle name {name!r}")
        _REGISTRY.append(Oracle(name=name, kind=kind,
                                description=description, fn=fn, smoke=smoke))
        return fn

    return wrap


def all_oracles() -> list[Oracle]:
    """Every registered oracle (importing the oracle modules on demand)."""
    from . import (analytic, chaos, differential,  # noqa: F401
                   energy, federation, metamorphic, mobility)
    return list(_REGISTRY)


def oracles_for_mode(mode: str = "smoke",
                     only: Iterable[str] | None = None) -> list[Oracle]:
    """The oracles one harness invocation will run.

    Each ``only`` token selects either the exactly-named oracle or —
    when the token is a family prefix — every oracle named
    ``<token>-...`` (so ``--only mobility`` runs the whole mobility
    family, and in full mode ``--only cohort-vs-event`` also runs its
    ``-large`` and ``-contended`` variants).
    """
    if mode not in ("smoke", "full"):
        raise CheckError(f"unknown mode {mode!r}; use 'smoke' or 'full'")
    chosen = [o for o in all_oracles() if mode == "full" or o.smoke]
    if only is not None:
        def matches(name: str, token: str) -> bool:
            return name == token or name.startswith(token + "-")

        tokens = list(only)
        unknown = [token for token in tokens
                   if not any(matches(o.name, token) for o in chosen)]
        if unknown:
            raise CheckError(
                f"unknown oracle(s) {sorted(set(unknown))}; "
                f"available: {sorted(o.name for o in chosen)}")
        chosen = [o for o in chosen
                  if any(matches(o.name, token) for token in tokens)]
    return chosen


def _run_one(entry: Oracle) -> CheckResult:
    started = time.perf_counter()
    try:
        deviation = entry.fn()
    except Exception:
        return CheckResult(
            name=entry.name, kind=entry.kind, description=entry.description,
            passed=False, max_deviation=float("inf"), tolerance=0.0,
            unit="", detail="oracle raised",
            duration_s=time.perf_counter() - started,
            error=traceback.format_exc())
    return CheckResult(
        name=entry.name, kind=entry.kind, description=entry.description,
        passed=deviation.passed, max_deviation=deviation.max_deviation,
        tolerance=deviation.tolerance, unit=deviation.unit,
        detail=deviation.detail,
        duration_s=time.perf_counter() - started)


def run_checks(mode: str = "smoke", only: Iterable[str] | None = None,
               registry: MetricsRegistry | None = None,
               verbose: bool = False) -> CheckReport:
    """Run the harness and record every deviation in the metrics registry.

    Each oracle leaves ``check.max_deviation`` / ``check.tolerance``
    gauges and a ``check.runs`` counter (labelled by check name); a
    failing oracle increments ``check.failures``. Exceptions inside an
    oracle become failing results, never crashes — the report always
    covers every selected oracle.
    """
    registry = registry if registry is not None else METRICS
    report = CheckReport(mode=mode)
    for entry in oracles_for_mode(mode, only):
        if verbose:
            print(f"  running {entry.name} [{entry.kind}] ...", flush=True)
        result = _run_one(entry)
        report.results.append(result)
        registry.counter("check.runs", check=entry.name).inc()
        registry.gauge("check.max_deviation", check=entry.name).set(
            result.max_deviation if result.max_deviation != float("inf")
            else -1.0)
        registry.gauge("check.tolerance", check=entry.name).set(
            result.tolerance)
        if not result.passed:
            registry.counter("check.failures", check=entry.name).inc()
    return report
