"""Streaming metrics: counters, gauges, log-scale histograms, time series.

The tracer (:mod:`repro.observe.tracer`) explains *one* run after the fact;
this module watches a *long-running* one while it executes.  A
:class:`MetricsRegistry` holds named instruments that a live engine feeds
batch by batch -- the observability substrate of the always-on coloring
service (:mod:`repro.serve`):

* :class:`Counter` -- monotone event count (updates absorbed, escalations,
  properness violations);
* :class:`Gauge` -- last-written level (live vertices, current ``Delta``);
* :class:`LogHistogram` -- mergeable fixed-bucket log-scale histogram for
  latency-shaped distributions, with p50/p95/p99 extraction whose relative
  error is bounded by the bucket growth factor (see below);
* :class:`WindowedSeries` -- fixed-width time windows accumulating
  count/sum/min/max, for throughput-over-time and properness-over-time.

A registry reaches a run inside
:class:`~repro.observe.instruments.Instruments` and is fed *measured
values* only (the invisibility contract, docs/OBSERVABILITY.md).

Histogram accuracy
------------------

A :class:`LogHistogram` buckets positive values geometrically: value ``v``
lands in bucket ``floor(log(v / min_value) / log(growth))``.  Quantile
extraction walks the cumulative counts to the bucket holding the
nearest-rank sample and returns the bucket's geometric midpoint, clamped
to the observed ``[min, max]``.  Every sample in a bucket is within a
factor ``sqrt(growth)`` of that midpoint, so the reported quantile is
within relative error ``sqrt(growth) - 1`` of the true nearest-rank
percentile (default growth ``2**0.25``: under 9.1%; the property tests in
``tests/test_metrics.py`` pin this against ``numpy.percentile``).  Two
histograms with the same layout merge by adding bucket counts -- merge is
associative and commutative, so per-shard or per-window histograms roll up
losslessly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "WindowedSeries",
    "exact_percentiles",
]

#: Default bucket growth factor: quantiles within ``sqrt(growth)-1`` < 9.1%.
DEFAULT_GROWTH = 2.0 ** 0.25

#: Default smallest resolvable positive value (microsecond-scale when the
#: unit is milliseconds); smaller positives clamp into bucket 0.
DEFAULT_MIN_VALUE = 1e-3


@dataclass
class Counter:
    """A monotone event counter (``inc`` only; merge adds)."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Absorb another counter's count."""
        self.value += other.value

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot."""
        return {"value": self.value}


@dataclass
class Gauge:
    """A last-write-wins level (``set`` overwrites; merge keeps the latest
    write, tracked by an internal write sequence)."""

    value: float | None = None
    _writes: int = 0

    def set(self, value: float) -> None:
        """Overwrite the level."""
        self.value = float(value)
        self._writes += 1

    def merge(self, other: "Gauge") -> None:
        """Keep whichever side wrote more recently (by write count -- the
        deterministic proxy the registry uses instead of wall clocks)."""
        if other._writes > self._writes:
            self.value = other.value
            self._writes = other._writes

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot."""
        return {"value": self.value}


class LogHistogram:
    """Mergeable fixed-bucket log-scale histogram (see module docstring).

    Parameters
    ----------
    growth:
        Geometric bucket width; quantile relative error is bounded by
        ``sqrt(growth) - 1``.  Must exceed 1.
    min_value:
        Lower edge of bucket 0.  Positive samples below it clamp into
        bucket 0; zero and negative samples count into a dedicated
        underflow bucket (they are tracked, and quantiles treat them as
        the smallest samples).
    """

    __slots__ = (
        "growth", "min_value", "_log_growth", "buckets", "zero_count",
        "count", "total", "min", "max",
    )

    def __init__(
        self, growth: float = DEFAULT_GROWTH, min_value: float = DEFAULT_MIN_VALUE
    ) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        if min_value <= 0.0:
            raise ValueError(f"min_value must be > 0, got {min_value}")
        self.growth = float(growth)
        self.min_value = float(min_value)
        self._log_growth = math.log(self.growth)
        self.buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ---- recording -----------------------------------------------------------

    def _index(self, value: float) -> int:
        return max(0, int(math.log(value / self.min_value) / self._log_growth))

    def record(self, value: float) -> None:
        """Count one sample."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
            return
        idx = self._index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def record_many(self, values: Iterable[float]) -> None:
        """Count every sample of an iterable."""
        for value in values:
            self.record(value)

    # ---- extraction ----------------------------------------------------------

    @property
    def mean(self) -> float | None:
        """Exact sample mean (``None`` when empty)."""
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Nearest-rank ``q``-quantile (``q`` in [0, 100]) within the
        documented relative-error bound; ``None`` when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q / 100.0 * self.count))
        if rank <= self.zero_count:
            return max(0.0, self.min)
        seen = self.zero_count
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                # geometric midpoint of [min_value*g^idx, min_value*g^(idx+1))
                mid = self.min_value * self.growth ** (idx + 0.5)
                return min(max(mid, self.min, 0.0), self.max)
        return self.max  # pragma: no cover - counts always cover the rank

    def percentiles(self, qs: Sequence[float] = (50, 95, 99)) -> dict[str, float | None]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for the given ranks."""
        return {f"p{q:g}": self.quantile(q) for q in qs}

    # ---- merge ---------------------------------------------------------------

    def merge(self, other: "LogHistogram") -> None:
        """Add another histogram's counts; layouts must match exactly."""
        if (self.growth, self.min_value) != (other.growth, other.min_value):
            raise ValueError(
                "cannot merge histograms with different layouts: "
                f"(growth={self.growth}, min={self.min_value}) vs "
                f"(growth={other.growth}, min={other.min_value})"
            )
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot: exact count/sum/min/max/mean plus the
        p50/p95/p99 extraction (bucket arrays stay internal)."""
        out: dict[str, Any] = {"count": self.count}
        if self.count:
            out.update(
                sum=round(self.total, 6),
                min=round(self.min, 6),
                max=round(self.max, 6),
                mean=round(self.total / self.count, 6),
            )
            out.update(
                {
                    k: round(v, 6)
                    for k, v in self.percentiles().items()
                    if v is not None
                }
            )
        return out


class WindowedSeries:
    """Fixed-width time windows accumulating count/sum/min/max per window.

    ``record(t, value)`` folds a sample into window ``floor(t / window_s)``;
    :meth:`points` returns one aggregate row per non-empty window in time
    order -- the series ``repro serve`` plots throughput and
    properness-over-time from.  Merging two series adds their windows
    (layouts must match).
    """

    __slots__ = ("window_s", "_windows")

    def __init__(self, window_s: float = 1.0) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        self.window_s = float(window_s)
        self._windows: dict[int, list[float]] = {}  # idx -> [count, sum, min, max]

    def record(self, t: float, value: float = 1.0) -> None:
        """Fold ``value`` into the window containing time ``t`` (seconds)."""
        idx = int(math.floor(t / self.window_s))
        w = self._windows.get(idx)
        if w is None:
            self._windows[idx] = [1.0, float(value), float(value), float(value)]
        else:
            w[0] += 1.0
            w[1] += value
            w[2] = min(w[2], value)
            w[3] = max(w[3], value)

    def points(self) -> list[dict[str, float]]:
        """One row per non-empty window, in time order: ``t`` (window
        start), ``count``, ``sum``, ``min``, ``max``, ``mean``, and
        ``rate`` (sum per second of window width)."""
        rows = []
        for idx in sorted(self._windows):
            count, total, lo, hi = self._windows[idx]
            rows.append(
                {
                    "t": idx * self.window_s,
                    "count": count,
                    "sum": total,
                    "min": lo,
                    "max": hi,
                    "mean": total / count,
                    "rate": total / self.window_s,
                }
            )
        return rows

    def merge(self, other: "WindowedSeries") -> None:
        """Add another series' windows; window widths must match."""
        if self.window_s != other.window_s:
            raise ValueError(
                f"cannot merge series with window_s {self.window_s} vs "
                f"{other.window_s}"
            )
        for idx, (count, total, lo, hi) in other._windows.items():
            w = self._windows.get(idx)
            if w is None:
                self._windows[idx] = [count, total, lo, hi]
            else:
                w[0] += count
                w[1] += total
                w[2] = min(w[2], lo)
                w[3] = max(w[3], hi)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot (window width + the aggregate rows)."""
        return {"window_s": self.window_s, "points": self.points()}


@dataclass
class MetricsRegistry:
    """Named instruments for one long-running execution.

    Accessors are get-or-create (``registry.counter("stream.updates")``),
    so instrumentation sites need no registration ceremony.  Instrument
    kinds are namespaced separately; asking for an existing name with
    mismatched construction arguments raises (layouts are part of a
    metric's identity -- required for lossless merges).
    """

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, LogHistogram] = field(default_factory=dict)
    series: dict[str, WindowedSeries] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter()
        return inst

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge()
        return inst

    def histogram(
        self,
        name: str,
        growth: float = DEFAULT_GROWTH,
        min_value: float = DEFAULT_MIN_VALUE,
    ) -> LogHistogram:
        """Get or create the histogram ``name`` (layout must agree with
        any earlier creation)."""
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = LogHistogram(growth, min_value)
        elif (inst.growth, inst.min_value) != (float(growth), float(min_value)):
            raise ValueError(
                f"histogram {name!r} already exists with layout "
                f"(growth={inst.growth}, min={inst.min_value})"
            )
        return inst

    def windowed(self, name: str, window_s: float = 1.0) -> WindowedSeries:
        """Get or create the windowed series ``name`` (width must agree
        with any earlier creation)."""
        inst = self.series.get(name)
        if inst is None:
            inst = self.series[name] = WindowedSeries(window_s)
        elif inst.window_s != float(window_s):
            raise ValueError(
                f"series {name!r} already exists with window_s {inst.window_s}"
            )
        return inst

    def merge(self, other: "MetricsRegistry") -> None:
        """Absorb another registry instrument-by-instrument (per-shard or
        per-window registries roll up into one)."""
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other.gauges.items():
            self.gauge(name).merge(gauge)
        for name, hist in other.histograms.items():
            self.histogram(name, hist.growth, hist.min_value).merge(hist)
        for name, series in other.series.items():
            self.windowed(name, series.window_s).merge(series)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of every instrument, grouped by kind."""
        return {
            "counters": {k: v.to_dict() for k, v in sorted(self.counters.items())},
            "gauges": {k: v.to_dict() for k, v in sorted(self.gauges.items())},
            "histograms": {
                k: v.to_dict() for k, v in sorted(self.histograms.items())
            },
            "series": {k: v.to_dict() for k, v in sorted(self.series.items())},
        }


def exact_percentiles(
    values: Sequence[float], qs: Sequence[float] = (50, 95, 99)
) -> dict[str, float]:
    """Exact (linear-interpolation) percentiles of a small sample.

    The scalar artifact fields (``repair_ms_p50`` et al.) come from here --
    one source of truth shared by :func:`repro.dynamic.harness.run_stream`,
    the service driver, and ``repro stream`` -- while the streaming
    :class:`LogHistogram` serves the live dashboard, where its bounded
    relative error is the price of mergeable constant memory.  Raises on an
    empty sample (callers gate on having batches).
    """
    if len(values) == 0:
        raise ValueError("exact_percentiles needs at least one sample")
    import numpy as np

    arr = np.asarray(values, dtype=np.float64)
    return {f"p{q:g}": float(np.percentile(arr, q)) for q in qs}
