"""Multi-seed replication: means, deviations and intervals for the
stochastic experiments.

Most of the reproduction is deterministic, but the §6-family experiments
(multi-device jitter, contention, scheduling) have seeded randomness.
One seed is an anecdote; this module reruns an experiment across seeds
and reports mean ± standard deviation with a normal-approximation
confidence interval, so the benches can assert on population behaviour
rather than one lucky draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .runner import run_grid


class StatisticsError(ValueError):
    """Raised for degenerate sample sets."""


@dataclass
class StreamingSummary:
    """A mergeable running summary: count/mean/std/min/max in O(1) state.

    Uses Welford's online update for the mean and the sum of squared
    deviations (``M2``), and Chan et al.'s pairwise formula for
    :meth:`merge` — both algebraically exact, so summarising a stream in
    shards and merging gives the same moments as one sequential pass
    (up to float rounding; see the pinning tests against
    :class:`Replication`). This is the accumulator the fleet aggregator
    (:mod:`repro.fleet.aggregate`) ships between shard processes instead
    of raw per-beacon traces.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        if not math.isfinite(value):
            raise StatisticsError(f"cannot summarise non-finite {value}")
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def merge(self, other: "StreamingSummary") -> None:
        """Fold another summary in, exactly as if its observations had
        been streamed into this one (parallel Welford combine)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = (self.m2 + other.m2
                   + delta * delta * self.count * other.count / total)
        self.mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator, like :class:`Replication`)."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def sum(self) -> float:
        return self.mean * self.count

    @classmethod
    def of(cls, values: Iterable[float]) -> "StreamingSummary":
        summary = cls()
        summary.observe_many(values)
        return summary

    def to_dict(self) -> dict:
        """JSON-serialisable form for artifacts."""
        return {"count": self.count, "mean": self.mean, "std": self.std,
                "min": self.minimum if self.count else None,
                "max": self.maximum if self.count else None}

    def state_dict(self) -> dict:
        """Exact raw state for checkpointing (vs the lossy
        :meth:`to_dict`): JSON round-trips ``repr`` floats exactly, so
        a summary restored with :meth:`from_state` merges bit-identically
        to the original — the property the fleet's shard checkpoint
        relies on."""
        return {"count": self.count, "mean": self.mean, "m2": self.m2,
                "minimum": None if math.isinf(self.minimum) else self.minimum,
                "maximum": None if math.isinf(self.maximum) else self.maximum}

    @classmethod
    def from_state(cls, state: dict) -> "StreamingSummary":
        """Inverse of :meth:`state_dict`."""
        return cls(count=int(state["count"]), mean=float(state["mean"]),
                   m2=float(state["m2"]),
                   minimum=(math.inf if state["minimum"] is None
                            else float(state["minimum"])),
                   maximum=(-math.inf if state["maximum"] is None
                            else float(state["maximum"])))

    def describe(self, unit: str = "") -> str:
        suffix = f" {unit}" if unit else ""
        if not self.count:
            return "no observations"
        return (f"{self.mean:.4g}{suffix} +/- {self.std:.2g} "
                f"[{self.minimum:.4g}, {self.maximum:.4g}] (n={self.count})")


@dataclass(frozen=True, slots=True)
class Replication:
    """Summary of one metric across seeds."""

    values: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mean = self.mean
        variance = (sum((value - mean) ** 2 for value in self.values)
                    / (len(self.values) - 1))
        return math.sqrt(variance)

    @property
    def minimum(self) -> float:
        return min(self.values)

    @property
    def maximum(self) -> float:
        return max(self.values)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI for the mean (default 95 %)."""
        if z <= 0:
            raise StatisticsError("z must be positive")
        half_width = z * self.std / math.sqrt(len(self.values))
        return self.mean - half_width, self.mean + half_width

    def describe(self, unit: str = "") -> str:
        low, high = self.confidence_interval()
        suffix = f" {unit}" if unit else ""
        return (f"{self.mean:.4g}{suffix} +/- {self.std:.2g} "
                f"(95% CI [{low:.4g}, {high:.4g}], n={self.count})")


def replicate(metric: Callable[[int], float],
              seeds: Sequence[int] = tuple(range(10)),
              workers: int = 1) -> Replication:
    """Evaluate ``metric(seed)`` across seeds.

    With ``workers > 1`` the seeds fan out over a process pool; results
    come back in seed order, so the :class:`Replication` is byte-identical
    to the serial run (the runner's determinism contract). ``metric``
    must then be picklable — a module-level function or a
    :func:`functools.partial` of one; lambdas degrade to serial.
    """
    if not seeds:
        raise StatisticsError("need at least one seed")
    return Replication(tuple(float(value) for value
                             in run_grid(metric, seeds, workers=workers)))


def replicate_many(metrics: Callable[[int], dict[str, float]],
                   seeds: Sequence[int] = tuple(range(10)),
                   workers: int = 1) -> dict[str, Replication]:
    """Like :func:`replicate` for functions returning several metrics."""
    if not seeds:
        raise StatisticsError("need at least one seed")
    collected: dict[str, list[float]] = {}
    for result in run_grid(metrics, seeds, workers=workers):
        for name, value in result.items():
            collected.setdefault(name, []).append(float(value))
    counts = {len(values) for values in collected.values()}
    if len(counts) > 1:
        raise StatisticsError("metric keys differ across seeds")
    return {name: Replication(tuple(values))
            for name, values in collected.items()}
