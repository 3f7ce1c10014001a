"""Metric primitives: counters, gauges, and bounded histograms.

All three are deliberately tiny — a telemetry registry may host hundreds
of them and hot paths (one update per solver query, per trace packet)
touch them directly, so updates are attribute arithmetic with no locking
and no allocation.  :class:`Histogram` keeps exact count/sum/min/max and
a *bounded* value sample: once the sample reaches its cap it is
decimated (every other kept value dropped, stride doubled), so memory
stays O(cap) while percentiles remain representative of the whole run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram"]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-write-wins numeric metric (buffer sizes, graph sizes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Value distribution with exact aggregates and a bounded sample.

    ``record`` is O(1) amortized; the sample never exceeds ``max_samples``
    entries.  When full, the sample is decimated: every other kept value
    is dropped and the keep-stride doubles, i.e. after k decimations only
    every 2^k-th recorded value is retained — a deterministic sketch that
    preserves the time-spread of the distribution.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "max_samples", "_sample", "_stride", "_pending")

    DEFAULT_MAX_SAMPLES = 1024

    def __init__(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES):
        if max_samples < 2:
            raise ValueError("histogram needs at least 2 sample slots")
        self.name = name
        self.count = 0
        self.total: float = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.max_samples = max_samples
        self._sample: List[float] = []
        self._stride = 1          # keep every _stride-th recorded value
        self._pending = 0         # records since the last kept value

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._pending += 1
        if self._pending < self._stride:
            return
        self._pending = 0
        self._sample.append(value)
        if len(self._sample) >= self.max_samples:
            del self._sample[::2]
            self._stride *= 2

    def absorb(self, agg: Dict) -> None:
        """Fold another histogram's ``to_dict()`` aggregate into this one.

        count/sum/min/max merge exactly; the percentile sketch can only
        inherit the aggregate's quantile points (the raw samples stayed
        in the other process), so percentiles after an absorb are
        approximate.
        """
        n = int(agg.get("count", 0))
        if n <= 0:
            return
        self.count += n
        self.total += agg.get("sum", 0.0)
        for bound, pick in (("min", min), ("max", max)):
            theirs = agg.get(bound)
            ours = getattr(self, bound)
            if theirs is not None:
                setattr(self, bound,
                        theirs if ours is None else pick(ours, theirs))
        for quantile in ("p50", "p90", "p99"):
            if quantile in agg:
                self._sample.append(agg[quantile])
                if len(self._sample) >= self.max_samples:
                    del self._sample[::2]
                    self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile over the retained sample."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} outside [0, 100]")
        if not self._sample:
            return 0.0
        ordered = sorted(self._sample)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100) * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    @property
    def sample_size(self) -> int:
        return len(self._sample)

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:g})"
