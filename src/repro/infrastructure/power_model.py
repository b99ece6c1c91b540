"""Server power-draw models.

The scheduler in the paper needs, for each server ``s``:

* ``c_s``  — average power consumption when the server is fully loaded,
* ``bc_s`` — consumption during the boot process,
* the instantaneous power draw, which the Omegawatt wattmeters sample at
  1 Hz on Grid'5000.

Servers are *not* energy proportional (Section II-B), so the model is a
linear interpolation between a non-zero idle power and the peak power
as a function of core utilisation — the standard first-order model used by
CloudSim-style simulators and consistent with the measurements the paper
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import ensure_in_range, ensure_non_negative


@dataclass(frozen=True)
class LinearPowerModel:
    """Linear power model: ``P(u) = idle + (peak - idle) * u``.

    ``idle`` and ``peak`` are in watts; ``peak`` must be at least ``idle``.
    """

    idle: float
    peak: float

    def __post_init__(self) -> None:
        ensure_non_negative(self.idle, "idle")
        ensure_non_negative(self.peak, "peak")
        if self.peak < self.idle:
            raise ValueError(
                f"peak power ({self.peak} W) must be >= idle power ({self.idle} W)"
            )

    def power_at(self, utilization: float) -> float:
        """Interpolated power at ``utilization`` in ``[0, 1]``."""
        ensure_in_range(utilization, "utilization", 0.0, 1.0)
        return self.idle + (self.peak - self.idle) * utilization
