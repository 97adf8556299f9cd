"""Experiment harnesses: one module per table, figure, and §6 claim.

``python -m repro.experiments`` runs them from one ordered registry
(``--only <name>`` runs one of them), and most are also driven by a
matching bench in ``benchmarks/``. The per-experiment index lives in DESIGN.md;
paper-vs-measured numbers in EXPERIMENTS.md.
"""

# runner/statistics first: they import nothing from the simulation
# layers, and the experiment modules below depend on them.
from .runner import ParallelRunner, StageTimings, run_grid
from .statistics import Replication, replicate, replicate_many

from . import (
    ablations,
    adaptive,
    band_5ghz,
    battery_life,
    contention,
    figure3,
    figure4,
    frame_counts,
    multi_device,
    reliability,
    resilience,
    runner,
    scheduling,
    statistics,
    table1,
    two_way,
)
from .ablations import listen_interval_sweep, payload_sweep, rate_sweep
from .adaptive import run_adaptive
from .band_5ghz import band_range_table, run_congestion_escape
from .battery_life import battery_life as run_battery_life
from .contention import BackgroundTraffic, run_contention, run_contention_point
from .reliability import run_reliability, train_energy_j
from .resilience import ResilienceCell, ResiliencePoint, run_resilience
from .scheduling import run_scheduling
from .figure3 import Figure3Report, run_figure3
from .figure4 import Figure4Report, run_figure4
from .frame_counts import FrameCountReport, run_frame_counts
from .multi_device import (
    MultiDeviceReport,
    run_multi_device,
    run_multi_device_sweep,
)
from .report import (
    format_si,
    render_log_sketch,
    render_metrics,
    render_series,
    render_table,
    render_timings,
)
from .table1 import Table1Report, run_table1
from .two_way import TwoWayReport, run_two_way, window_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
