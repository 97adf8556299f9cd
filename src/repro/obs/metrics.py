"""A process-local metrics registry: counters, gauges, histograms.

Every layer of the reproduction records into one registry — the MAC
layer counts frames and retries, the scenarios record their energy
integrals, the simulator its event throughput — and the registry
snapshots to plain dicts, so ``python -m repro.experiments --metrics``
can render a table and write a JSONL artifact without any external
telemetry dependency.

Metrics are named ``<package>[.<module>].<noun>`` (no ``_total``:
the record's type says counter) with an optional label set
(``scenario="Wi-LE"``, ``layer="mac"``); the (name, labels) pair
identifies one instrument. The default registry (:data:`METRICS`) is
per-process: :class:`repro.experiments.runner.ProcessPool` merges what
each input recorded in its worker into the parent's registry.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping


class MetricsError(ValueError):
    """Raised for malformed metric registration or observation."""


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (frames sent, events fired)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise MetricsError(
                f"counter {self.name} cannot decrease (inc {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        """One JSON-serialisable record for export."""
        return {"name": self.name, "type": "counter",
                "labels": self.labels, "value": self._value}


class Gauge:
    """A point-in-time value (an energy integral, an idle current)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        if not math.isfinite(value):
            raise MetricsError(f"gauge {self.name} set to non-finite {value}")
        self._value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (may be negative)."""
        self.set(self._value + delta)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        """One JSON-serialisable record for export."""
        return {"name": self.name, "type": "gauge",
                "labels": self.labels, "value": self._value}


class Histogram:
    """A streaming summary of observations: count/sum/min/max/mean.

    Keeps O(1) state rather than buckets — the consumers here (the
    metrics table, the JSONL artifact) want distribution summaries of
    segment durations and airtime, not quantile estimation.
    """

    __slots__ = ("name", "labels", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        if not math.isfinite(value):
            raise MetricsError(
                f"histogram {self.name} observed non-finite {value}")
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """One JSON-serialisable record for export."""
        return {"name": self.name, "type": "histogram",
                "labels": self.labels, "count": self.count,
                "sum": self.sum, "mean": self.mean,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None}


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by (name, labels).

    >>> registry = MetricsRegistry()
    >>> registry.counter("frames", layer="mac").inc()
    >>> registry.counter("frames", layer="mac").value
    1.0
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, cls, name: str, labels: Mapping[str, str]):
        if not name:
            raise MetricsError("metric name must be non-empty")
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise MetricsError(
                f"metric {name}{dict(labels)} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}")
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for (name, labels), created on first use."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge for (name, labels), created on first use."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        """The histogram for (name, labels), created on first use."""
        return self._get_or_create(Histogram, name, labels)

    def get(self, name: str, **labels: str) -> Counter | Gauge | Histogram | None:
        """The existing instrument for (name, labels), or None."""
        return self._instruments.get((name, _label_key(labels)))

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        return iter(self._instruments.values())

    def snapshot(self) -> list[dict]:
        """All instruments as JSON-serialisable records, sorted by
        (name, labels) so exports diff cleanly across runs."""
        return [instrument.snapshot()
                for _key, instrument in sorted(self._instruments.items(),
                                               key=lambda item: item[0])]

    def merge(self, records: Iterable[Mapping]) -> None:
        """Fold another registry's :meth:`snapshot` into this one:
        counters add, gauges take the recorded value, histograms add
        count and sum and combine min/max. A histogram's sum matches a
        serial run only while each label set is observed by one input."""
        for record in records:
            name, labels = record["name"], record["labels"]
            if record["type"] == "counter":
                self.counter(name, **labels).inc(record["value"])
            elif record["type"] == "gauge":
                self.gauge(name, **labels).set(record["value"])
            else:
                histogram = self.histogram(name, **labels)
                if record["count"]:
                    histogram.count += record["count"]
                    histogram.sum += record["sum"]
                    histogram.min = min(histogram.min, record["min"])
                    histogram.max = max(histogram.max, record["max"])

    def clear(self) -> None:
        """Drop every instrument (test isolation)."""
        self._instruments.clear()


#: The process-global registry the reproduction's layers record into.
METRICS = MetricsRegistry()
