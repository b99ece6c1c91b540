"""Shared utilities: phase timing, statistics, tables, validation."""

from repro.util.stats import RunningStats
from repro.util.validation import (
    ensure_in_range,
    ensure_non_negative,
    ensure_positive,
)

__all__ = [
    "RunningStats",
    "ensure_in_range",
    "ensure_non_negative",
    "ensure_positive",
]
