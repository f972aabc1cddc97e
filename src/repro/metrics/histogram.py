"""Latency collection and percentile summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["nearest_rank", "percentile", "LatencySummary", "LatencyRecorder"]


def percentile(sorted_samples: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile of pre-sorted samples.

    ``p`` in [0, 100].
    """
    if not sorted_samples:
        raise ValueError("no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    rank = (p / 100) * (len(sorted_samples) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_samples[low]
    frac = rank - low
    return sorted_samples[low] * (1 - frac) + sorted_samples[high] * frac


def nearest_rank(samples: Iterable[float], q: float) -> float:
    """Nearest-rank quantile: the ``int(q * n)``-th smallest sample.

    ``q`` in [0, 1]; 0.0 for no samples.  Unlike :func:`percentile`
    it never interpolates, so the answer is always one of the samples.
    """
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass(frozen=True)
class LatencySummary:
    """The usual suspects, in the unit the samples were recorded in."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    p999: float
    minimum: float
    maximum: float

    def row(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "p999": self.p999,
            "min": self.minimum,
            "max": self.maximum,
        }


class LatencyRecorder:
    """Accumulates samples; summarises on demand.

    The sorted view is cached and invalidated on insertion, so callers
    that summarise repeatedly (monitoring loops, per-window reports)
    pay one sort per batch of insertions instead of one per call.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: list[float] = []
        self._sorted: list[float] | None = None

    def record(self, value: float) -> None:
        self.samples.append(value)
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        self.samples.extend(values)
        self._sorted = None

    def __len__(self) -> int:
        return len(self.samples)

    def summary_or_none(self) -> LatencySummary | None:
        """Like :meth:`summary`, but None while empty instead of raising."""
        return self.summary() if self.samples else None

    def summary(self) -> LatencySummary:
        if not self.samples:
            raise ValueError(f"recorder {self.name!r} has no samples")
        ordered = self._sorted
        if ordered is None or len(ordered) != len(self.samples):
            ordered = self._sorted = sorted(self.samples)
        return LatencySummary(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=percentile(ordered, 50),
            p90=percentile(ordered, 90),
            p99=percentile(ordered, 99),
            p999=percentile(ordered, 99.9),
            minimum=ordered[0],
            maximum=ordered[-1],
        )
