"""Experiment harnesses: one module per table, figure, and §6 claim.

``python -m repro.experiments`` runs them from one ordered registry
(``--only <name>`` runs one of them), and most are also driven by a
matching bench in ``benchmarks/``. The per-experiment index lives in DESIGN.md;
paper-vs-measured numbers in EXPERIMENTS.md.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".runner": ("ParallelRunner", "StageTimings", "run_grid"),
    ".statistics": ("Replication", "replicate", "replicate_many"),
    ".ablations": ("listen_interval_sweep", "payload_sweep", "rate_sweep"),
    ".adaptive": ("run_adaptive",),
    ".band_5ghz": ("band_range_table", "run_congestion_escape"),
    ".battery_life": ("battery_life as run_battery_life",),
    ".contention": (
        "BackgroundTraffic", "run_contention", "run_contention_point",
    ),
    ".figure3": ("Figure3Report", "run_figure3"),
    ".figure4": ("Figure4Report", "run_figure4"),
    ".frame_counts": ("FrameCountReport", "run_frame_counts"),
    ".multi_device": ("MultiDeviceReport", "run_multi_device"),
    ".reliability": ("run_reliability", "train_energy_j"),
    ".resilience": ("ResilienceCell", "ResiliencePoint", "run_resilience"),
    ".scheduling": ("run_scheduling",),
    ".table1": ("Table1Report", "run_table1"),
    ".two_way": ("TwoWayReport", "run_two_way", "window_sweep"),
    ".report": (
        "format_si", "render_log_sketch", "render_metrics", "render_series",
        "render_table", "render_timings",
    ),
})
