"""Shared utilities: phase timing, statistics, tables, validation."""

from repro import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "RunningStats": "repro.util.stats",
    "ensure_in_range": "repro.util.validation",
    "ensure_non_negative": "repro.util.validation",
    "ensure_positive": "repro.util.validation",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
