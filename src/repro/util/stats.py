"""Streaming statistics helpers.

The dynamic GreenPerf estimation averages a server's power consumption
"over the execution of all past requests" (Section III-A); the SeD keeps
that average with the numerically stable running mean/variance below.
"""

from __future__ import annotations

import math


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
