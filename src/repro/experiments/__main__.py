"""Run the whole evaluation: every table, figure, claim, and ablation.

    python -m repro.experiments              # print all reports
    python -m repro.experiments --out DIR    # also write CSV artifacts
    python -m repro.experiments --quick      # core artifacts only
    python -m repro.experiments --only NAME  # one experiment (repeatable)
    python -m repro.experiments --workers 4  # fan sweeps over processes
    python -m repro.experiments --timings    # append a stage-timing table
    python -m repro.experiments --metrics    # metrics table + JSONL artifact
    python -m repro.experiments --audit      # cross-check run invariants

Every experiment is one :class:`Experiment` in :data:`EXPERIMENTS`.
:func:`main` runs the shared measurement scenarios, then each selected
entry in registry order (banner, run, print), and ``--out``,
``--timings`` and ``--audit`` iterate the results it kept.
"""

from __future__ import annotations

import argparse
import os
import sys
import textwrap
from dataclasses import dataclass
from types import ModuleType
from typing import TYPE_CHECKING, Any, Callable

from .._lazy import import_module
from ..obs import METRICS
from ..scenarios import run_all_scenarios
from .figure3 import Figure3Report, run_figure3
from .figure4 import Figure4Report, run_figure4
from .frame_counts import FrameCountReport, run_frame_counts
from .runner import StageTimings
from .table1 import Table1Report, run_table1

if TYPE_CHECKING:
    from ..obs.audit import AuditReport
    from .artifacts import WrittenArtifact


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: how to run, print, save and audit it.

    ``run(results, workers)`` gets the shared scenario results and the
    pool size; ``render(result)`` is the block printed under ``title``;
    ``artifacts`` pairs each CSV file name with its ``write(path,
    result)``; ``audit(result)`` cross-checks the result's invariants.
    ``quick`` entries make up ``--quick``.
    """

    name: str
    title: str
    run: Callable[[dict, int], Any]
    render: Callable[[Any], str]
    quick: bool = False
    artifacts: tuple[tuple[str, Callable[[str, Any], WrittenArtifact]],
                     ...] = ()
    audit: Callable[[Any], AuditReport] | None = None


def _module(name: str) -> ModuleType:
    """This package's module ``name``, imported on first use: a run
    loads only the modules of the entries it runs, and ``--out`` and
    ``--audit`` only what they write and check with."""
    return import_module(f".{name}", __package__)


def _write_rows(path: str, rows: Any) -> WrittenArtifact:
    return _module("artifacts").write_rows_csv(path, rows)


# Entries call the run functions through this module's globals, or
# through their module's, at call time, so a wrapper patched over e.g.
# ``run_table1`` here takes effect.
EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "table1", "Table 1", quick=True,
        run=lambda results, workers: run_table1(results),
        render=Table1Report.render,
        artifacts=(("table1.csv", lambda path, report:
                    _module("artifacts").write_table1_csv(
                        path, report.results)),)),
    Experiment(
        "figure3", "Figure 3", quick=True,
        run=lambda results, workers: run_figure3(),
        render=Figure3Report.render,
        artifacts=(
            ("figure3a_wifi.csv", lambda path, report:
             _module("artifacts").write_trace_csv(path, report.wifi_trace)),
            ("figure3b_wile.csv", lambda path, report:
             _module("artifacts").write_trace_csv(path, report.wile_trace)),
            ("figure3a_wifi_segments.csv", lambda path, report:
             _module("artifacts").write_trace_segments_csv(
                 path, report.wifi_trace)),
            ("figure3b_wile_segments.csv", lambda path, report:
             _module("artifacts").write_trace_segments_csv(
                 path, report.wile_trace)))),
    Experiment(
        "figure4", "Figure 4", quick=True,
        run=lambda results, workers: run_figure4(results),
        render=Figure4Report.render,
        artifacts=(("figure4.csv", lambda path, report:
                    _module("artifacts").write_figure4_csv(
                        path, report.results)),)),
    Experiment(
        "frame_counts", "Section 3.1 frame counts", quick=True,
        run=lambda results, workers: run_frame_counts(),
        render=FrameCountReport.render),
    Experiment(
        "multi_device", "Section 6: multi-device jitter",
        run=lambda results, workers:
            _module("multi_device").run_multi_device(),
        render=lambda report: report.render(),
        artifacts=(("multi_device_rounds.csv", lambda path, report:
                    _module("artifacts").write_multi_device_csv(
                        path, report)),)),
    Experiment(
        "two_way", "Section 6: two-way communication",
        run=lambda results, workers: _module("two_way").run_two_way(),
        render=lambda report: report.render()),
    # The ablation and 5 GHz reports compute their sweeps while
    # rendering, so their result is the printed text itself.
    Experiment(
        "ablations", "Ablations",
        run=lambda results, workers: _module("ablations").render_all(),
        render=str),
    Experiment(
        "band_5ghz", "Section 1: 5 GHz",
        run=lambda results, workers: _module("band_5ghz").render(),
        render=str),
    Experiment(
        "contention", "Contention",
        run=lambda results, workers:
            _module("contention").run_contention(workers=workers),
        render=lambda points: _module("contention").render(points)),
    Experiment(
        "scheduling", "Fleet scheduling",
        run=lambda results, workers:
            _module("scheduling").run_scheduling(workers=workers),
        render=lambda points: _module("scheduling").render(points)),
    Experiment(
        "reliability", "Beacon repetition reliability",
        run=lambda results, workers:
            _module("reliability").run_reliability(workers=workers),
        render=lambda points: _module("reliability").render(points)),
    Experiment(
        "adaptive", "Adaptive reporting",
        run=lambda results, workers:
            _module("adaptive").run_adaptive(workers=workers),
        render=lambda points: _module("adaptive").render(points)),
    Experiment(
        "battery_life", "Battery life",
        run=lambda results, workers:
            _module("battery_life").battery_life(results),
        render=lambda rows: _module("battery_life").render(rows)),
    Experiment(
        "fleet_scale", "Fleet scale",
        run=lambda results, workers:
            _module("fleet_scale").run_fleet_scale(workers=workers),
        render=lambda points: _module("fleet_scale").render(points),
        artifacts=(("fleet_scale.csv", _write_rows),),
        audit=lambda points: _module("fleet_scale").audit_points(points)),
    Experiment(
        "resilience", "Resilience under injected faults",
        run=lambda results, workers:
            _module("resilience").run_resilience(workers=workers),
        render=lambda points: _module("resilience").render(points),
        artifacts=(("resilience.csv", _write_rows),),
        audit=lambda points: _module("resilience").audit_points(points)),
    Experiment(
        "mobility", "Mobility: handoff tax",
        run=lambda results, workers:
            _module("mobility").run_mobility(workers=workers),
        render=lambda points: _module("mobility").render(points),
        artifacts=(("mobility.csv", _write_rows),),
        audit=lambda points: _module("mobility").audit_points(points)),
    Experiment(
        "new_devices", "New device classes: WUR + batteryless harvesting",
        run=lambda results, workers: _module("new_devices").run_new_devices(
            results, workers=workers),
        render=lambda report: report.render(),
        artifacts=(
            ("harvester_resilience.csv", lambda path, report:
             _module("artifacts").write_rows_csv(path, report.resilience)),
            ("harvester_fleet.csv", lambda path, report:
             _module("artifacts").write_rows_csv(path, report.fleet))),
        audit=lambda report: _module("new_devices").audit_points(
            report.resilience + report.fleet)),
)


def _banner(title: str) -> None:
    print()
    print("#" * 72)
    print(f"# {title}")
    print("#" * 72)


def _render_subjects(name: str, report: AuditReport) -> str:
    return textwrap.fill(", ".join(report.subjects), width=72,
                         initial_indent=f"{name}: ", subsequent_indent="  ",
                         break_on_hyphens=False)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate every artifact of the Wi-LE reproduction.")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="also write CSV artifacts into DIR")
    selection = parser.add_mutually_exclusive_group()
    selection.add_argument("--quick", action="store_true",
                           help="core artifacts only (Table 1, Figures 3/4, "
                                "frame counts)")
    selection.add_argument("--only", action="append", metavar="NAME",
                           choices=[experiment.name
                                    for experiment in EXPERIMENTS],
                           help="run only the named experiment "
                                "(repeatable; choices: %(choices)s)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="process-pool size for the independent sweeps "
                             "(default 1 = serial; results are identical)")
    parser.add_argument("--timings", action="store_true",
                        help="print a per-stage wall-clock table at the end")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics table and write a JSONL "
                             "artifact (metrics.jsonl, under --out if given)")
    parser.add_argument("--audit", action="store_true",
                        help="cross-check run invariants (charge "
                             "conservation, timeline monotonicity, sampling "
                             "consistency); non-zero exit on violation")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.only:
        selected = [experiment for experiment in EXPERIMENTS
                    if experiment.name in args.only]
    else:
        selected = [experiment for experiment in EXPERIMENTS
                    if experiment.quick or not args.quick]

    timings = StageTimings()
    print("running the measurement scenarios...")
    with timings.span("experiments.scenarios"):
        results = run_all_scenarios(workers=args.workers)
    kept = []
    for experiment in selected:
        with timings.span(f"experiments.{experiment.name}"):
            _banner(experiment.title)
            result = experiment.run(results, args.workers)
            print(experiment.render(result))
        kept.append((experiment, result))

    if args.out is not None:
        from .artifacts import export_all
        _banner(f"Artifacts -> {args.out}")
        for artifact in export_all(args.out, kept):
            print(f"  wrote {artifact.path} ({artifact.rows} rows)")

    if args.timings:
        _banner("Stage timings")
        print(timings.render())

    audit_failed = False
    if args.audit:
        from ..obs.audit import audit_all
        _banner("Invariant audit")
        report = audit_all(results)
        print(_render_subjects("scenarios", report))
        for experiment, result in kept:
            if experiment.audit is not None:
                part = experiment.audit(result)
                print(_render_subjects(experiment.name, part))
                report.merge(part)
        print(report.render())
        audit_failed = not report.ok

    if args.metrics:
        from .artifacts import write_metrics_jsonl
        from .report import render_metrics
        _banner("Metrics")
        print(render_metrics(METRICS))
        path = os.path.join(args.out, "metrics.jsonl") if args.out else "metrics.jsonl"
        artifact = write_metrics_jsonl(path)
        print(f"\nwrote {artifact.path} ({artifact.rows} metrics)")

    return 1 if audit_failed else 0


if __name__ == "__main__":
    sys.exit(main())
