"""Seeded stochastic timeline generators.

Generators turn a few distribution parameters into a full
:class:`~repro.scenario.events.EventTimeline`, with all randomness drawn
from a private :class:`random.Random` seeded by the caller — the same
seed always produces the same timeline (and therefore the same timeline
content hash), which keeps generated fault scenarios sweep-cacheable.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.scenario.events import (
    EventTimeline,
    NodeFailure,
    NodeRecovery,
    TariffChange,
)
from repro.util.validation import ensure_positive


def exponential_failures(
    nodes: Iterable[str],
    *,
    mtbf: float,
    mttr: float,
    horizon: float,
    seed: int = 0,
) -> EventTimeline:
    """A crash/repair stream with exponential inter-event times.

    Each node alternates between up and down states: time-to-failure is
    drawn from ``Exp(1/mtbf)`` and time-to-repair from ``Exp(1/mttr)``,
    independently per node, until ``horizon``.  A node that is down when
    the horizon arrives gets a final recovery *inside* the horizon so
    every generated timeline is self-consistent (validation requires each
    recovery to repair a failed node — and leaves no node failed forever).

    >>> timeline = exponential_failures(["a"], mtbf=100.0, mttr=10.0, horizon=1e4, seed=1)
    >>> kinds = [event.kind for event in timeline]
    >>> set(kinds) == {"node_failure", "node_recovery"} and len(kinds) > 2
    True
    >>> timeline == exponential_failures(["a"], mtbf=100.0, mttr=10.0, horizon=1e4, seed=1)
    True
    """
    ensure_positive(mtbf, "mtbf")
    ensure_positive(mttr, "mttr")
    ensure_positive(horizon, "horizon")
    events: list = []
    for node in sorted(set(nodes)):
        # One independent stream per node, seeded by (seed, node name) so
        # adding a node never perturbs the other nodes' streams.
        rng = random.Random(f"{seed}:{node}")
        now = rng.expovariate(1.0 / mtbf)
        while now < horizon:
            repair_at = now + rng.expovariate(1.0 / mttr)
            if repair_at >= horizon:
                # Clamp the final repair inside the horizon so the node is
                # not left failed beyond the observed window.
                repair_at = horizon * (1.0 - 1e-9)
                if repair_at <= now:
                    break
            events.append(NodeFailure(time=now, node=node))
            events.append(NodeRecovery(time=repair_at, node=node))
            now = repair_at + rng.expovariate(1.0 / mtbf)
    return EventTimeline(events)


def periodic_tariffs(
    *,
    period: float,
    costs: Sequence[float],
    horizon: float,
) -> EventTimeline:
    """A cyclic tariff schedule: ``costs`` repeat every ``period`` seconds.

    Models day/night electricity pricing: each cost level holds for
    ``period / len(costs)`` seconds, cycling from time 0 until ``horizon``.

    >>> timeline = periodic_tariffs(period=100.0, costs=(1.0, 0.5), horizon=250.0)
    >>> [(event.time, event.cost) for event in timeline.tariff_changes]
    [(0.0, 1.0), (50.0, 0.5), (100.0, 1.0), (150.0, 0.5), (200.0, 1.0)]
    """
    ensure_positive(period, "period")
    ensure_positive(horizon, "horizon")
    if not costs:
        raise ValueError("at least one cost level is required")
    step = period / len(costs)
    events = []
    time = 0.0
    index = 0
    while time < horizon:
        events.append(TariffChange(time=time, cost=costs[index % len(costs)]))
        index += 1
        time = index * step
    return EventTimeline(events)
