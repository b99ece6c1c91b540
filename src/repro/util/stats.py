"""Streaming statistics helpers.

The dynamic GreenPerf estimation averages a server's power consumption
"over the execution of all past requests" (Section III-A); the SeD keeps
that average with the running mean below.
"""

from __future__ import annotations


class RunningStats:
    """Running mean over a stream of samples, updated in O(1) per sample."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0

    def add(self, value: float) -> None:
        """Incorporate one sample."""
        value = float(value)
        self._count += 1
        self._mean += (value - self._mean) / self._count

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self._count

    @property
    def mean(self) -> float:
        """Mean of observed samples (0.0 when empty)."""
        return self._mean if self._count else 0.0
