"""Streaming statistics helpers.

The dynamic GreenPerf estimation averages a server's power consumption
"over the execution of all past requests" (Section III-A) and the
Grid'5000 wattmeters average "more than 6,000 measurements" (Section IV).
These helpers provide numerically stable running means/variances and
fixed-size sliding windows used by the power estimators.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field


class RunningStats:
    """Welford running mean / variance over a stream of samples."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._minimum = math.inf
        self._maximum = -math.inf

    def add(self, value: float) -> None:
        """Incorporate one sample."""
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._minimum:
            self._minimum = value
        if value > self._maximum:
            self._maximum = value

    def extend(self, values) -> None:
        """Incorporate an iterable of samples."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self._count

    @property
    def mean(self) -> float:
        """Mean of observed samples (0.0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Population variance of observed samples."""
        return self._m2 / self._count if self._count else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest sample observed (``nan`` when empty)."""
        return self._minimum if self._count else math.nan

    @property
    def maximum(self) -> float:
        """Largest sample observed (``nan`` when empty)."""
        return self._maximum if self._count else math.nan

    @property
    def total(self) -> float:
        """Sum of observed samples."""
        return self._mean * self._count


@dataclass
class WindowedAverage:
    """Average over the last ``window`` samples.

    Used for the dynamic power estimate: the estimation vector reports a
    power figure "based on recent activity rather than on an initial
    benchmark".
    """

    window: int = 6000
    _samples: deque = field(default_factory=deque, repr=False)
    _sum: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be > 0, got {self.window}")

    def add(self, value: float) -> None:
        """Push one sample, evicting the oldest if the window is full."""
        value = float(value)
        self._samples.append(value)
        self._sum += value
        if len(self._samples) > self.window:
            self._sum -= self._samples.popleft()

    @property
    def count(self) -> int:
        """Number of samples currently held (≤ window)."""
        return len(self._samples)

    @property
    def value(self) -> float:
        """Current windowed average (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return self._sum / len(self._samples)

    def clear(self) -> None:
        """Drop all samples."""
        self._samples.clear()
        self._sum = 0.0
