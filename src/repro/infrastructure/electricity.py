"""Electricity-cost schedule.

Section IV-C defines the cost of energy "as a ratio between the cost over
a given period and the theoretical maximum cost" with three states:

* Regular time — cost 1.0 (most expensive),
* Off-peak time 1 — cost 0.8,
* Off-peak time 2 — cost 0.5 (least expensive).

The schedule is a piecewise-constant function of simulated time built from
:class:`TariffPeriod` segments.  The provisioning planner queries both the
*current* cost and the cost at a *future* time (the Master Agent learns of
scheduled cost changes 20 minutes ahead): both are :meth:`cost_at`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.util.validation import ensure_in_range, ensure_non_negative

#: The three cost levels used throughout the paper's experiments.
REGULAR_COST = 1.0
OFF_PEAK_1_COST = 0.8
OFF_PEAK_2_COST = 0.5


@dataclass(frozen=True)
class TariffPeriod:
    """The electricity cost becomes ``cost`` at simulated time ``start`` (s)."""

    start: float
    cost: float

    def __post_init__(self) -> None:
        ensure_non_negative(self.start, "start")
        ensure_in_range(self.cost, "cost", 0.0, 1.0)


class ElectricityCostSchedule:
    """Piecewise-constant electricity cost over simulated time.

    Before the first period the cost is :data:`REGULAR_COST`.  Periods
    are added one at a time; of two that start at the same time, the one
    added last is in effect.

    >>> schedule = ElectricityCostSchedule()
    >>> schedule.add_period(TariffPeriod(start=600.0, cost=0.8))
    >>> schedule.add_period(TariffPeriod(start=600.0, cost=0.5))
    >>> schedule.cost_at(0.0), schedule.cost_at(600.0)
    (1.0, 0.5)
    """

    def __init__(self) -> None:
        self._periods: list[TariffPeriod] = []
        self._starts: list[float] = []

    def add_period(self, period: TariffPeriod) -> None:
        """Insert a tariff change after every period starting no later."""
        index = bisect.bisect(self._starts, period.start)
        self._starts.insert(index, period.start)
        self._periods.insert(index, period)

    def cost_at(self, time: float) -> float:
        """Electricity cost ratio in effect at simulated ``time``."""
        index = bisect.bisect_right(self._starts, time) - 1
        if index < 0:
            return REGULAR_COST
        return self._periods[index].cost
