"""Estimation vectors.

When a SeD receives a request it fills an *estimation vector* — a tagged
collection of performance and status values — which the agent hierarchy
uses to sort candidate servers (Section II-A).  The paper extends the
default DIET tags with power-related ones so that the green plug-in
scheduler can rank servers by energy efficiency.

:class:`EstimationVector` is a thin mapping from tag names to floats with
explicit registration of the standard tags used by this reproduction.
Custom estimation functions may add arbitrary extra tags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping


class EstimationTags:
    """Well-known estimation-vector tags.

    Default DIET-like tags
        ``FLOPS_PER_CORE``, ``TOTAL_FLOPS``, ``FREE_CORES``, ``TOTAL_CORES``,
        ``WAITING_TIME``, ``COMPLETED_TASKS``.

    Green-scheduling tags added by the paper's plug-in
        ``MEAN_POWER`` (dynamic estimate from recent activity),
        ``IDLE_POWER``, ``PEAK_POWER``, ``BOOT_POWER``, ``BOOT_TIME``,
        ``NODE_AVAILABLE`` (1.0 when the node is powered on).
    """

    FLOPS_PER_CORE = "flops_per_core"
    TOTAL_FLOPS = "total_flops"
    FREE_CORES = "free_cores"
    TOTAL_CORES = "total_cores"
    WAITING_TIME = "waiting_time"
    COMPLETED_TASKS = "completed_tasks"

    MEAN_POWER = "mean_power"
    IDLE_POWER = "idle_power"
    PEAK_POWER = "peak_power"
    BOOT_POWER = "boot_power"
    BOOT_TIME = "boot_time"
    NODE_AVAILABLE = "node_available"

    #: Tags every default estimation function must provide.
    REQUIRED = (
        FLOPS_PER_CORE,
        TOTAL_FLOPS,
        FREE_CORES,
        TOTAL_CORES,
        WAITING_TIME,
        MEAN_POWER,
        PEAK_POWER,
        NODE_AVAILABLE,
    )


@dataclass
class EstimationVector:
    """Tagged estimation values reported by one SeD for one request.

    Parameters
    ----------
    server:
        Name of the reporting SeD / node.
    cluster:
        Cluster of the reporting node.
    values:
        Mapping of tag name to float value.
    """

    server: str
    cluster: str
    values: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.server:
            raise ValueError("server must be a non-empty string")
        # Store every value the way :meth:`set` does (``float``, finite),
        # checked in one C-level pass; a failure re-runs the per-tag check
        # for its error message.
        values = {tag: float(value) for tag, value in self.values.items()}
        if not (all(values) and all(map(math.isfinite, values.values()))):
            for tag, value in values.items():
                self._check_value(tag, value)
        self.values = values

    @classmethod
    def from_finite(
        cls, server: str, cluster: str, values: dict[str, float]
    ) -> "EstimationVector":
        """A vector over ``values`` itself, skipping the constructor's checks.

        The caller guarantees what the constructor would check: ``server``
        is non-empty and every tag is a non-empty string mapped to a finite
        ``float``.

        >>> vector = EstimationVector.from_finite("n-0", "c", {"free_cores": 2.0})
        >>> vector == EstimationVector("n-0", "c", {"free_cores": 2})
        True
        """
        vector = cls.__new__(cls)
        vector.server = server
        vector.cluster = cluster
        vector.values = values
        return vector

    @staticmethod
    def _check_value(tag: str, value: float) -> float:
        if not tag:
            raise ValueError("estimation tags must be non-empty strings")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"estimation value for tag {tag!r} must be finite")
        return value

    # -- mapping-ish interface ---------------------------------------------------
    def set(self, tag: str, value: float) -> None:
        """Set (or overwrite) one tag."""
        self.values[tag] = self._check_value(tag, value)

    def get(self, tag: str, default: float | None = None) -> float:
        """Read one tag; raises :class:`KeyError` when absent and no default given."""
        if tag in self.values:
            return self.values[tag]
        if default is None:
            raise KeyError(f"estimation vector for {self.server!r} has no tag {tag!r}")
        return default

    def __contains__(self, tag: str) -> bool:
        return tag in self.values

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def as_dict(self) -> Mapping[str, float]:
        """Copy of the tag/value mapping."""
        return dict(self.values)

    # -- invariants -----------------------------------------------------------------
    def validate_required(self) -> None:
        """Raise :class:`ValueError` if any required tag is missing."""
        missing = [tag for tag in EstimationTags.REQUIRED if tag not in self.values]
        if missing:
            raise ValueError(
                f"estimation vector for {self.server!r} is missing tags: {missing}"
            )

    # -- convenience accessors used by the schedulers ---------------------------------
    @property
    def flops_per_core(self) -> float:
        """Per-core FLOP/s of the reporting node."""
        return self.get(EstimationTags.FLOPS_PER_CORE)

    @property
    def peak_power(self) -> float:
        """Full-load power of the reporting node (W)."""
        return self.get(EstimationTags.PEAK_POWER)

    @property
    def free_cores(self) -> float:
        """Currently idle cores on the reporting node."""
        return self.get(EstimationTags.FREE_CORES)

    @property
    def available(self) -> bool:
        """Whether the node is powered on."""
        return self.get(EstimationTags.NODE_AVAILABLE, 0.0) >= 0.5
