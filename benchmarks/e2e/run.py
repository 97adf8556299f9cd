"""End-to-end benchmark of the Wi-LE reproduction.

    python3 benchmarks/e2e/run.py                        # every workload
    python3 benchmarks/e2e/run.py --seed 1 --trace       # + layer traces
    python3 benchmarks/e2e/run.py --workload fleet-sparse --seed 3 \\
        --seconds 12 --trace 0

Run from the repository root; ``src/`` is put on the path of every
process it starts. Each repetition of a workload runs in a fresh
process (``rep.py``), one at a time, until ``run_seconds`` of
``BENCHMARK.json`` have passed and at least two have run; every
end-to-end metric is the median over them (set-up time over at least
five set-ups). ``--seconds`` is accepted because benchmark runners pass
it, and must equal ``run_seconds``.
``--trace 1`` runs the workload once more with the layer wrappers
installed, prints the per-layer self-time table and reports the
per-layer metrics instead of the end-to-end ones. Every output is
checked (``checks.py``); the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 1 when a check fails and 2 when the benchmark itself cannot run.
See README.md for the metrics, the workloads and the baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Streams, traces and checkpoints a run leaves behind, under the
#: repository's git-ignored ``artifacts/``.
RUN_DIR = os.path.join(ROOT, "artifacts", "e2e-bench")

sys.path.insert(0, HERE)

import checks  # noqa: E402
import rep  # noqa: E402
import spans  # noqa: E402

MIN_REPETITIONS = 2
#: setup_s is the median of this many set-ups per run: those of the
#: repetitions, topped up by processes that stop after their set-up.
SETUP_SAMPLES = 5
#: No repetition starts this late into a run, however slow the machine,
#: so a run ends well inside three minutes.
LAST_START_S = 100.0
REPETITION_TIMEOUT_S = 150.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- repetitions --------------------------------------------------------------


def spawn(workload: str, seed: int, stream: str | None = None,
          open_loop: bool = False, trace_out: str | None = None,
          setup_only: bool = False) -> dict:
    """Run one repetition in a fresh process; returns its JSON result."""
    command = [sys.executable, os.path.join(HERE, "rep.py"),
               "--workload", workload, "--seed", str(seed),
               "--run-dir", RUN_DIR]
    if stream is not None:
        command += ["--stream", stream]
    if open_loop:
        command.append("--open-loop")
    if trace_out is not None:
        command += ["--trace-out", trace_out]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH")) if part)
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        completed = subprocess.run(command, cwd=ROOT, env=env, text=True,
                                   capture_output=True,
                                   timeout=REPETITION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: repetition timed out after "
                             f"{REPETITION_TIMEOUT_S:.0f} s") from None
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: repetition exited "
                             f"{completed.returncode}\n"
                             f"{completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def prepare_gateway(seed: int, open_loop: bool) -> tuple[str, dict]:
    """Generate and record the seed's stream once for every repetition
    of this run, and fold it sequentially for the oracle."""
    from repro.service.replay import generate_stream, record_stream
    wires = generate_stream(
        rep.stream_payloads(open_loop), device_count=rep.GATEWAY_DEVICES,
        tenant_count=rep.GATEWAY_TENANTS, seed=seed,
        corrupt_fraction=rep.GATEWAY_CORRUPT_FRACTION)
    path = os.path.join(RUN_DIR, f"stream-{os.getpid()}.bin")
    record_stream(path, wires, header_extra={"seed": seed})
    marks = (rep.SOAK_PAYLOADS,) + ((rep.OPEN_LOOP_PAYLOADS,)
                                    if open_loop else ())
    return path, checks.reference_fold(wires, marks)


# -- metrics ------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def untraced(reps: list[dict],
             setups: list[float]) -> dict[str, tuple[float, int]]:
    """Metric name -> (median, sample count) over the untraced
    repetitions and the run's set-ups. Memory has one sample per
    repetition; a repetition may time its operation several times (the
    gateway's soaks), and every timing is one sample."""
    n = len(reps)
    walls = [wall for r in reps for wall in r["walls"]]
    rates = [r["beacons"] / wall for r in reps for wall in r["walls"]]
    return {
        "setup_s": (median(setups), len(setups)),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), n),
        "wall_s": (median(walls), len(walls)),
        "beacons_per_s": (median(rates), len(rates)),
    }


def per_layer(reps: list[dict], setups: list[float], traced: dict,
              trace: dict,
              reference: dict | None) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count), from the traced repetition
    (layer times and counts) and the untraced ones (wall time, latency,
    queue and checkpoint behaviour, the tracing overhead)."""
    start, end = trace["window"]
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, float] = defaultdict(float)
    selfs = spans.self_times(trace["spans"], trace["leaves"])
    self_s: dict[str, float] = defaultdict(float)
    in_window = set()
    for span in trace["spans"]:
        if span.end <= start or span.start >= end:
            continue
        in_window.add(span.id)
        total_s[span.name] += span.end - span.start
        self_s[span.name] += selfs[span.id]
        calls[span.name] += 1
        for key, value in (span.attrs or {}).items():
            attrs[f"{span.name}.{key}"] += value
    leaf_s: dict[str, float] = defaultdict(float)
    leaf_calls: dict[str, int] = defaultdict(int)
    for parent, name, count, total in trace["leaves"]:
        if parent in in_window or parent == trace["root"]:
            leaf_s[name] += total
            leaf_calls[name] += count

    def ratio(numerator: float, denominator: float, scale: float = 1.0):
        return numerator / denominator * scale if denominator else 0.0

    metrics = untraced(reps, setups)
    for stage in rep.DRIVER_STAGES:
        name = f"experiments.{stage}"
        metrics[f"{name}.s"] = (total_s[name], calls[name])
    metrics["experiments.runner.run_grid.overhead_s"] = (
        self_s["experiments.runner.run_grid"],
        calls["experiments.runner.run_grid"])
    events = attrs["sim.engine.run.events"]
    metrics["sim.engine.run.self_s"] = (self_s["sim.engine.run"],
                                        calls["sim.engine.run"])
    metrics["sim.engine.events"] = (events, calls["sim.engine.run"])
    metrics["sim.engine.us_per_event"] = (
        ratio(self_s["sim.engine.run"], events, 1e6), int(events))
    for layer in ("core.codec.encode_beacon", "security.aes.encrypt_block",
                  "dot11.parser.parse_frame"):
        metrics[f"{layer}.calls"] = (leaf_calls[layer], 1)
        metrics[f"{layer}.s"] = (leaf_s[layer], leaf_calls[layer])
    for layer in ("fleet.population.generate_fleet",
                  "fleet.shards.plan_shards",
                  "fleet.kernel.run_shard_cohort"):
        metrics[f"{layer}.s"] = (total_s[layer], calls[layer])
    cohort = "fleet.kernel.run_shard_cohort"
    transmissions = attrs[f"{cohort}.transmissions"]
    demotions = attrs[f"{cohort}.demotions"]
    shards = calls[cohort]
    metrics["fleet.shards.halo_ratio"] = (
        ratio(transmissions, traced["beacons"]) if shards else 0.0, shards)
    metrics["fleet.kernel.us_per_tx"] = (
        ratio(total_s[cohort], transmissions, 1e6), int(transmissions))
    metrics["fleet.kernel.transmissions"] = (transmissions, shards)
    metrics["fleet.kernel.cohort_resolved"] = (
        attrs[f"{cohort}.cohort_resolved"], shards)
    metrics["fleet.kernel.demotions"] = (demotions, shards)
    metrics["fleet.kernel.demotion_share"] = (
        ratio(demotions, transmissions), int(transmissions))
    metrics["fleet.aggregate.merge.s"] = (
        total_s["fleet.aggregate.from_state"]
        + total_s["fleet.aggregate.merge"],
        calls["fleet.aggregate.merge"])

    decode = "service.ingest.decode_wires"
    frames = attrs[f"{decode}.frames"]
    metrics[f"{decode}.calls"] = (calls[decode], 1)
    metrics[f"{decode}.frames"] = (frames, calls[decode])
    metrics[f"{decode}.errors"] = (attrs[f"{decode}.errors"], calls[decode])
    metrics[f"{decode}.us_per_frame"] = (
        ratio(total_s[decode], frames, 1e6), int(frames))
    observe = "service.tenants.observe"
    metrics[f"{observe}.us_per_payload"] = (
        ratio(leaf_s[observe], leaf_calls[observe], 1e6), leaf_calls[observe])
    # Every checkpoint is one snapshot (a to_state per tenant) and one save.
    save = "service.checkpoint.save"
    metrics["service.tenants.to_state.ms_per_checkpoint"] = (
        ratio(total_s["service.tenants.to_state"], calls[save], 1e3),
        calls[save])
    metrics[f"{save}.ms"] = (ratio(total_s[save], calls[save], 1e3),
                             calls[save])
    metrics[f"{save}.bytes"] = (ratio(attrs[f"{save}.bytes"], calls[save]),
                                calls[save])

    soaks = [soak for r in reps for soak in r.get("soaks", ())]
    metrics["service.checkpoint.on_time_ratio"] = (
        median([soak["checkpoint_on_time_ratio"] for soak in soaks]),
        len(soaks))
    for key in ("blocked_s", "blocked_puts", "max_depth"):
        metrics[f"service.queue.{key}"] = (
            median([soak["queue"][key] for soak in soaks]), len(soaks))
    open_loops = [r["open_loop"] for r in reps if "open_loop" in r]
    n_open = len(open_loops)
    metrics["service.checkpoint.open_loop_on_time_ratio"] = (
        median([o["checkpoint_on_time_ratio"] for o in open_loops]), n_open)
    metrics["loadgen.late_ms.max"] = (
        max((o["late_max_s"] for o in open_loops), default=0.0) * 1e3,
        n_open)
    for index, rate in enumerate(rep.OPEN_LOOP_RATES):
        pooled = [latency for o in open_loops
                  for latency in o["latency_s"][index]]
        label = f"{rate // 1000}k"
        metrics[f"ingest_p50_ms_{label}"] = (
            percentile(pooled, 0.50) * 1e3, len(pooled))
        metrics[f"ingest_p99_ms_{label}"] = (
            percentile(pooled, 0.99) * 1e3, len(pooled))
    metrics["service.reference_fold.s"] = (
        reference[rep.SOAK_PAYLOADS]["fold_s"] if reference else 0.0,
        1 if reference else 0)

    metrics["trace.overhead_ratio"] = (
        ratio(median(traced["walls"]), metrics["wall_s"][0]) - 1.0,
        metrics["wall_s"][1])
    metrics["trace.coverage"] = (spans.layer_table(trace)[1], 1)
    return metrics


# -- one workload -------------------------------------------------------------


def check(workload: str, seed: int, goldens: dict, results: list[dict],
          reference: dict | None) -> tuple[list[str], int]:
    """(problems, failed operations) over every repetition's outputs. A
    repetition whose outputs fail a check, or differ from repetition
    0's, fails every operation it attempted."""
    problems: list[str] = []
    failed = 0
    for index, result in enumerate(results):
        outputs = result["outputs"]
        if workload == "paper-driver":
            found = checks.check_driver(outputs, seed, goldens)
        elif workload == "gateway-ingest":
            found = checks.check_gateway(outputs, seed, goldens, reference)
        else:
            spec = rep.FLEETS[workload]
            found = checks.check_fleet(workload, outputs, seed, goldens,
                                       spec.device_count, spec.shards)
        if outputs != results[0]["outputs"]:
            found.append(f"{workload}: repetition {index} output differs "
                         f"from repetition 0")
        if found:
            failed += result["operations"]
        problems += found
    return problems, failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 goldens: dict) -> dict:
    open_loop = trace and workload == "gateway-ingest"
    stream = reference = None
    began = perf_counter()
    if workload == "gateway-ingest":
        stream, reference = prepare_gateway(seed, open_loop)
    try:
        reps: list[dict] = []
        started = perf_counter()
        while (len(reps) < MIN_REPETITIONS
               or perf_counter() - started < seconds) \
                and perf_counter() - started < LAST_START_S:
            reps.append(spawn(workload, seed, stream, open_loop))
        setups = [result["setup_s"] for result in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, setup_only=True)["setup_s"])
        traced = trace_data = None
        if trace:
            path = os.path.join(RUN_DIR, f"trace-{workload}.json")
            traced = spawn(workload, seed, stream, open_loop, path)
            trace_data = spans.load(path)
    finally:
        if stream is not None:
            os.remove(stream)
    results = reps + ([traced] if traced else [])
    problems, failed = check(workload, seed, goldens, results, reference)
    outcome = {
        "workload": workload, "seed": seed, "problems": problems,
        "attempted": sum(result["operations"] for result in results),
        "failed": failed, "repetitions": len(reps),
        "elapsed_s": perf_counter() - began,
        "metrics": untraced(reps, setups),
    }
    if trace:
        layers = per_layer(reps, setups, traced, trace_data, reference)
        outcome["metrics"] = layers
        outcome["report"] = spans.render_report(
            workload, trace_data, layers["trace.overhead_ratio"][0])
    return outcome


def render(outcome: dict, metrics: dict[str, tuple[float, int]],
           units: dict[str, str]) -> str:
    lines = [f"== {outcome['workload']}: seed {outcome['seed']}, "
             f"{outcome['repetitions']} repetitions, "
             f"{outcome['elapsed_s']:.1f} s =="]
    for name, (value, samples) in metrics.items():
        lines.append(f"  {name:<44} {value:>14.6g} {units[name]:<6} "
                     f"n={samples}")
    failed, attempted = outcome["failed"], outcome["attempted"]
    share = failed / attempted if attempted else 0.0
    lines.append(f"  failed {failed} of {attempted} operations "
                 f"(failed_ratio {share:.3g})")
    if outcome["problems"]:
        lines.append("  CHECKS FAILED:")
        lines += [f"    {problem}" for problem in outcome["problems"]]
    else:
        lines.append("  checks: all goldens and oracles hold")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end benchmark of the Wi-LE reproduction.")
    parser.add_argument("--workload", default="all",
                        choices=("all",) + rep.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal run_seconds in BENCHMARK.json, "
                             "which sets how long each workload is "
                             "measured")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: one more traced repetition; report the "
                             "per-layer metrics")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    # The program never calls BLAS; without this numpy's BLAS starts an
    # idle thread pool in every process, past the two threads a
    # repetition uses.
    os.environ.update({name: "1" for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    sys.path.insert(0, SRC)
    spec = load_spec()
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds {args.seconds:g} differs from run_seconds "
                     f"{seconds} in BENCHMARK.json")
    listed = [metric["name"] for metric in
              spec["per_layer" if args.trace else "end_to_end"]]
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    goldens = checks.load_goldens()
    workloads = rep.WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(RUN_DIR, exist_ok=True)
    reported: dict[str, dict] = {}
    correct = True
    attempted = failed = 0
    try:
        for workload in workloads:
            outcome = run_workload(workload, args.seed, seconds,
                                   bool(args.trace), goldens)
            measured = outcome["metrics"]
            # Untraced, the wall time and throughput (per-layer metrics)
            # are printed beside the end-to-end ones.
            shown = listed if args.trace else list(measured)
            print(render(outcome, {name: measured.get(name, (0.0, 0))
                                   for name in shown}, units), flush=True)
            if args.trace:
                print(outcome["report"], flush=True)
            correct = correct and not outcome["problems"]
            attempted += outcome["attempted"]
            failed += outcome["failed"]
            prefix = "" if len(workloads) == 1 else f"{workload}/"
            for name in listed:
                reported[prefix + name] = {
                    "value": measured.get(name, (0.0, 0))[0],
                    "unit": units[name]}
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
