"""Lightweight instrumentation: the one metrics registry of a simulated job.

Protocol layers increment counters (messages sent, fences issued, cache
misses...) and record dwell times (time blocked on the load-balance counter).
Benchmarks and tests read them back to check behaviour, not just timing.
Latency distributions (obs span durations, serving round trips) land in
named :class:`Histogram` series on the same :class:`Trace`.

Histogram bucket scheme (fixed, part of the documented output):

    bucket *i* counts values in ``(2**(i-1), 2**i] * 1 ns``

i.e. power-of-two boundaries anchored at one nanosecond, 96 buckets
(covering ~1 ns to ~7.9e19 s); values <= 1 ns land in bucket 0. Values
are simulated *seconds*. A histogram holds bucket counts, not raw
observations, so memory is O(1) in run length; ``percentile`` returns
the upper edge of the bucket holding the rank — a deterministic upper
bound, never an interpolation that could drift between runs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

#: Number of log2 buckets (fixed; part of the documented scheme).
NUM_BUCKETS = 96
#: Anchor of the bucket ladder: one simulated nanosecond.
BUCKET_ANCHOR = 1e-9


def bucket_index(value: float) -> int:
    """O(1) bucket index for ``value`` seconds (clamped to the ladder)."""
    if value <= BUCKET_ANCHOR:
        return 0
    # frexp: value/anchor = m * 2**e with m in [0.5, 1) -> ceil(log2) = e
    m, e = math.frexp(value / BUCKET_ANCHOR)
    idx = e if m > 0.5 else e - 1
    return min(max(idx, 0), NUM_BUCKETS - 1)


def bucket_upper_edge(index: int) -> float:
    """Upper boundary (seconds) of bucket ``index``."""
    return BUCKET_ANCHOR * (2.0**index)


class Histogram:
    """Fixed log2-bucket histogram (see module docstring for the scheme).

    ``record``/``record_many`` accept ``rank=`` to also maintain a
    lazily-created per-rank sub-histogram (:meth:`per_rank`).
    """

    __slots__ = ("counts", "count", "total", "min", "max", "_per_rank")

    def __init__(self) -> None:
        self.counts = [0] * NUM_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._per_rank: dict[int, "Histogram"] | None = None

    def _rank_histogram(self, rank: int) -> "Histogram":
        if self._per_rank is None:
            self._per_rank = {}
        sub = self._per_rank.get(rank)
        if sub is None:
            sub = self._per_rank[rank] = Histogram()
        return sub

    def record(self, value: float, rank: int | None = None) -> None:
        """O(1) record of one observation (simulated seconds)."""
        self.counts[bucket_index(value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if rank is not None:
            self._rank_histogram(rank).record(value)

    def record_many(self, values, rank: int | None = None) -> None:
        """Vectorized :meth:`record` of a whole array of observations.

        The serving workload records per-batch latency arrays (up to
        thousands of responses per delivery); bucketing them one Python
        call at a time would dominate the run. ``np.frexp`` computes
        every bucket index at once — same ladder, same clamping as
        :func:`bucket_index`.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        m, e = np.frexp(arr / BUCKET_ANCHOR)
        idx = np.where(m > 0.5, e, e - 1)
        np.clip(idx, 0, NUM_BUCKETS - 1, out=idx)
        idx[arr <= BUCKET_ANCHOR] = 0
        for i, c in zip(*np.unique(idx, return_counts=True)):
            self.counts[int(i)] += int(c)
        self.count += arr.size
        self.total += float(arr.sum())
        lo, hi = float(arr.min()), float(arr.max())
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi
        if rank is not None:
            self._rank_histogram(rank).record_many(arr)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """p-th percentile (p in [0, 100]): the upper edge of the bucket
        holding the rank (deterministic bound)."""
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(p / 100.0 * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return bucket_upper_edge(i)
        return bucket_upper_edge(NUM_BUCKETS - 1)

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations (per-rank included) into this one."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for rank, sub in (other._per_rank or {}).items():
            self._rank_histogram(rank).merge(sub)

    def per_rank(self) -> dict[int, "Histogram"]:
        """Per-rank sub-histograms (empty if ``rank=`` was never used)."""
        return dict(self._per_rank or {})

    def summary(self) -> dict:
        """Deterministic plain-dict summary (sorted, JSON-safe)."""
        return {
            "count": self.count,
            "max": self.max,
            "mean": self.mean,
            "min": self.min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "sum": self.total,
        }


@dataclass(frozen=True)
class Interval:
    """One recorded activity interval on a timeline lane."""

    lane: str
    label: str
    start: float
    end: float


@dataclass
class Trace:
    """Counter, timer and histogram sink shared across a simulated job."""

    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    durations: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Named latency distributions; see :meth:`histogram`.
    histograms: dict[str, Histogram] = field(default_factory=dict)
    #: Optional per-lane activity intervals (enable via record_intervals).
    intervals: list[Interval] = field(default_factory=list)
    #: Interval recording is opt-in: at scale it would dominate memory.
    record_intervals: bool = False

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counters[name] += amount

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into duration bucket ``name``."""
        self.durations[name] += seconds

    def histogram(self, name: str) -> Histogram:
        """Histogram series ``name``, created empty on first use.

        Read-only callers that must not create a series use
        ``trace.histograms.get(name)``.
        """
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        return h

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0)

    def time(self, name: str) -> float:
        """Accumulated duration ``name`` in seconds (0.0 if never recorded)."""
        return self.durations.get(name, 0.0)

    def interval(self, lane: str, label: str, start: float, end: float) -> None:
        """Record one activity interval (no-op unless enabled)."""
        if self.record_intervals and end > start:
            self.intervals.append(Interval(lane, label, start, end))

    def merge(self, other: "Trace") -> None:
        """Fold another trace's counters, durations and histograms in
        (counters and durations add, histograms combine buckets).

        The per-shard merge of the parallel PDES runtime: each shard
        records into its own trace (no cross-process sharing) and the
        runner merges them into one job-wide view.
        """
        for name, v in other.counters.items():
            self.counters[name] += v
        for name, v in other.durations.items():
            self.durations[name] += v
        for name, h in other.histograms.items():
            self.histogram(name).merge(h)

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of all counters (for before/after deltas)."""
        return dict(self.counters)

    def clear(self) -> None:
        """Reset all counters, durations, histograms, and intervals."""
        self.counters.clear()
        self.durations.clear()
        self.histograms.clear()
        self.intervals.clear()
