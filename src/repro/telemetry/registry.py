"""Metrics primitives: counters, gauges, histograms and their registry.

Dependency-free and thread-safe.  Every metric belongs to a
:class:`MetricsRegistry`; instrumented code obtains metric handles through
the registry (``registry.counter("eco_cache_hits_total")``) and mutates
them on the hot path.  The registry hands out one object per
``(name, labels)`` pair, so repeated lookups are cheap dictionary hits and
handles can be cached by the caller for the hottest loops.

Histograms keep a bounded reservoir of observations (deterministic
per-metric PRNG, so snapshots are reproducible for a given observation
sequence) from which p50/p95/p99 are computed at snapshot time — the hot
path never sorts.
"""

from __future__ import annotations

import random
import threading
from typing import Mapping, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: histogram reservoir bound — large enough for stable tail quantiles,
#: small enough that a runaway loop cannot exhaust memory
RESERVOIR_SIZE = 4096

LabelArg = Optional[Mapping[str, str]]
LabelKey = "tuple[tuple[str, str], ...]"


def _label_key(labels: LabelArg) -> "tuple[tuple[str, str], ...]":
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelArg = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": self.labels, "value": self._value}


class Gauge:
    """A value that can go up and down (queue depth, temperature, ...)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelArg = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": self.labels, "value": self._value}


class Histogram:
    """Observation distribution with snapshot-time quantiles.

    Exact count/sum/min/max; quantiles from a bounded reservoir.  The
    reservoir uses Vitter's algorithm R with a PRNG seeded from the metric
    identity, so two processes observing the same sequence report the same
    quantiles.
    """

    __slots__ = ("name", "labels", "_lock", "_count", "_sum", "_min", "_max",
                 "_reservoir", "_rng")

    def __init__(self, name: str, labels: LabelArg = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._reservoir: list[float] = []
        self._rng = random.Random(hash((name, _label_key(labels))) & 0xFFFFFFFF)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._reservoir) < RESERVOIR_SIZE:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < RESERVOIR_SIZE:
                    self._reservoir[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile over the reservoir, q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            data = sorted(self._reservoir)
        if not data:
            return 0.0
        if len(data) == 1:
            return data[0]
        pos = q * (len(data) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(data) - 1)
        frac = pos - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def snapshot(self) -> dict:
        with self._lock:
            data = sorted(self._reservoir)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max

        def q(p: float) -> float:
            if not data:
                return 0.0
            pos = p * (len(data) - 1)
            i = int(pos)
            j = min(i + 1, len(data) - 1)
            frac = pos - i
            return data[i] * (1.0 - frac) + data[j] * frac

        return {
            "name": self.name,
            "labels": self.labels,
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "min": lo if count else 0.0,
            "max": hi if count else 0.0,
            "p50": q(0.50),
            "p95": q(0.95),
            "p99": q(0.99),
        }


class MetricsRegistry:
    """Process-local metric store keyed by ``(name, sorted labels)``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- handle accessors ------------------------------------------------
    def counter(self, name: str, labels: LabelArg = None) -> Counter:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(key, Counter(name, labels))
        return metric

    def gauge(self, name: str, labels: LabelArg = None) -> Gauge:
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(key, Gauge(name, labels))
        return metric

    def histogram(self, name: str, labels: LabelArg = None) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(key, Histogram(name, labels))
        return metric

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-serializable snapshot of every metric."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": [c.snapshot() for c in counters],
            "gauges": [g.snapshot() for g in gauges],
            "histograms": [h.snapshot() for h in histograms],
        }

    def reset(self) -> None:
        """Drop every metric (tests and fresh CLI invocations)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._gauges) + len(self._histograms)
