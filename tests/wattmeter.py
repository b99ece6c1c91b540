"""Test oracles: the 1 Hz polling wattmeter and a per-second renderer.

Grid'5000's Lyon site instruments every node with an external Omegawatt
wattmeter that reports one power sample per second; the paper averages
"more than 6,000 measurements" to characterise a node and integrates the
samples into energy figures (Section IV).  This module keeps that
measurement setup literally, as the reference the event-driven
accounting of :mod:`repro.infrastructure.energy` is checked against:

* :class:`Wattmeter` samples a set of nodes at a fixed period (default
  1 s) when the simulation clock advances, producing per-node power traces.
* :class:`EnergyLog` holds the resulting samples and integrates them into
  joules, per node, per cluster and for the whole platform.
* :func:`power_trace` renders a :class:`~repro.infrastructure.energy.SegmentEnergyLog`
  one sampling instant at a time, and :func:`reference_windowed_power`
  masks that rendering once per window — the straightforward
  O(nodes × simulated-seconds) computation that
  :func:`repro.lab.observe.windowed_power` must reproduce bit for bit.
* :func:`analytic_energy` integrates a segment log's piecewise-constant
  power exactly (``watts × duration``), the sampling-free energy the 1 Hz
  reading must stay within one sample per transition of.

Whoever drives the wattmeter calls :meth:`Wattmeter.advance_to` before
simulated time moves forward, which keeps the sampling independent from
the scheduling logic — exactly like an external meter.  The tests step a
simulation's engine one event at a time and advance a meter to each
event's time before it fires (:func:`tests.conftest.run_beside_meter`),
then check the two logs agree.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.infrastructure.energy import SegmentEnergyLog
from repro.infrastructure.node import Node
from repro.util.validation import ensure_non_negative, ensure_positive


@dataclass(frozen=True, slots=True)
class PowerSample:
    """One power reading: ``node`` drew ``watts`` at simulated ``time``."""

    time: float
    node: str
    cluster: str
    watts: float


class EnergyLog:
    """Accumulates power samples and integrates them into energy."""

    def __init__(self, sample_period: float) -> None:
        ensure_positive(sample_period, "sample_period")
        self.sample_period = sample_period
        self._samples: list[PowerSample] = []
        self._energy_by_node: dict[str, float] = defaultdict(float)
        self._energy_by_cluster: dict[str, float] = defaultdict(float)
        self._node_clusters: dict[str, str] = {}
        # Per-node (time, watts) rows, built lazily on the first per-node
        # query and invalidated by record(): per-node queries then cost
        # O(own samples) instead of re-scanning every node's samples.
        self._rows_by_node: dict[str, list[tuple[float, float]]] | None = None

    def record(self, sample: PowerSample) -> None:
        """Append one sample; its energy contribution is ``watts × period``."""
        self._samples.append(sample)
        joules = sample.watts * self.sample_period
        self._energy_by_node[sample.node] += joules
        self._energy_by_cluster[sample.cluster] += joules
        self._node_clusters[sample.node] = sample.cluster
        self._rows_by_node = None

    # -- energy queries -------------------------------------------------------
    @property
    def total_energy(self) -> float:
        """Total integrated energy over all nodes (J)."""
        return sum(self._energy_by_node.values())

    def energy_of_node(self, node: str) -> float:
        """Integrated energy of one node (J); 0.0 if never sampled."""
        return self._energy_by_node.get(node, 0.0)

    def energy_by_node(self) -> Mapping[str, float]:
        """Integrated energy per node (J)."""
        return dict(self._energy_by_node)

    def energy_of_cluster(self, cluster: str) -> float:
        """Integrated energy of one cluster (J); 0.0 if never sampled."""
        return self._energy_by_cluster.get(cluster, 0.0)

    def energy_by_cluster(self) -> Mapping[str, float]:
        """Integrated energy per cluster (J)."""
        return dict(self._energy_by_cluster)

    # -- trace queries ----------------------------------------------------------
    @property
    def sample_count(self) -> int:
        """Number of recorded samples (O(1); ``samples`` copies them all)."""
        return len(self._samples)

    @property
    def samples(self) -> Sequence[PowerSample]:
        """All recorded samples in chronological order."""
        return tuple(self._samples)

    def _rows_for(self, node: str) -> list[tuple[float, float]]:
        if self._rows_by_node is None:
            index: dict[str, list[tuple[float, float]]] = defaultdict(list)
            for sample in self._samples:
                index[sample.node].append((sample.time, sample.watts))
            self._rows_by_node = dict(index)
        return self._rows_by_node.get(node, [])

    def power_trace(self, node: str | None = None) -> np.ndarray:
        """Return a ``(n, 2)`` array of ``(time, watts)`` samples.

        With ``node=None`` the platform-wide power is returned: samples that
        share a timestamp are summed.  Per-node traces read a lazily built
        per-node index (O(own samples) after one O(all samples) build).
        """
        if node is not None:
            rows = self._rows_for(node)
            return np.asarray(rows, dtype=float).reshape(-1, 2)
        totals: dict[float, float] = defaultdict(float)
        for sample in self._samples:
            totals[sample.time] += sample.watts
        rows = sorted(totals.items())
        return np.asarray(rows, dtype=float).reshape(-1, 2)

    def mean_power(self, node: str) -> float:
        """Average of the recorded power samples for ``node`` (W)."""
        trace = self.power_trace(node)
        if trace.size == 0:
            return 0.0
        return float(trace[:, 1].mean())


class Wattmeter:
    """Samples a collection of nodes at a fixed period.

    Parameters
    ----------
    nodes:
        Nodes to monitor.
    sample_period:
        Seconds between samples (1.0 reproduces the Omegawatt setup).
    start_time:
        Simulated time of the first sample.
    """

    def __init__(
        self,
        nodes: Iterable[Node],
        *,
        sample_period: float = 1.0,
        start_time: float = 0.0,
    ) -> None:
        ensure_positive(sample_period, "sample_period")
        ensure_non_negative(start_time, "start_time")
        self._nodes: list[Node] = list(nodes)
        self.sample_period = sample_period
        self.log = EnergyLog(sample_period)
        self._next_sample_time = start_time
        self._last_advance = start_time

    @property
    def next_sample_time(self) -> float:
        """Simulated time at which the next sample will be taken."""
        return self._next_sample_time

    @property
    def monitored_nodes(self) -> Sequence[Node]:
        """Nodes monitored by this wattmeter."""
        return tuple(self._nodes)

    def advance_to(self, time: float) -> int:
        """Advance simulated time to ``time``, sampling at every period tick.

        Returns the number of sampling instants processed.  Power values are
        read from the nodes' *current* state, so callers must advance the
        wattmeter before mutating node state at ``time``.
        """
        if time < self._last_advance:
            raise ValueError(
                f"wattmeter cannot go backwards: {time} < {self._last_advance}"
            )
        ticks = 0
        while self._next_sample_time <= time:
            sample_time = self._next_sample_time
            for node in self._nodes:
                self.log.record(
                    PowerSample(
                        time=sample_time,
                        node=node.name,
                        cluster=node.cluster,
                        watts=node.current_power(),
                    )
                )
            self._next_sample_time += self.sample_period
            ticks += 1
        self._last_advance = time
        return ticks


# -- per-second rendering of a segment log --------------------------------------------


def analytic_energy(log: SegmentEnergyLog) -> float:
    """Exact energy of the logged power segments (J), with no sampling."""
    return sum(segment.watts * segment.duration for segment in log.segments())


def node_watts(log: SegmentEnergyLog, node: str) -> np.ndarray:
    """Per-instant power of one node: each segment repeated over its ticks."""
    segments = log.segments(node)
    watts = np.array([segment.watts for segment in segments], dtype=float)
    return np.repeat(watts, [segment.ticks for segment in segments])


def power_trace(log: SegmentEnergyLog, node: str | None = None) -> np.ndarray:
    """A ``(n, 2)`` array of ``(time, watts)`` sampling instants.

    With ``node=None`` the platform power: per-node renderings summed
    instant by instant, nodes in registration order.
    """
    if node is not None:
        totals = node_watts(log, node)
    else:
        traces = [node_watts(log, name) for name in log.nodes]
        totals = np.zeros(max((trace.size for trace in traces), default=0), dtype=float)
        for trace in traces:
            totals[: trace.size] += trace
    times = np.arange(totals.size, dtype=float) * log.sample_period
    return np.column_stack([times, totals])


def reference_windowed_power(
    log: SegmentEnergyLog, *, window: float, duration: float
) -> tuple[tuple[float, float], ...]:
    """Per-window mean platform power: render, then mask once per window."""
    trace = power_trace(log)
    times, watts = trace[:, 0], trace[:, 1]
    series = []
    k = 0
    while k * window < duration:
        start, end = k * window, (k + 1) * window
        mask = (times >= start) & (times < end)
        if mask.any():
            series.append((end, float(watts[mask].mean())))
        k += 1
    return tuple(series)


def energy_of_node(log, node: str) -> float:
    """Integrated energy of one node (J); 0.0 if never observed."""
    return log.energy_by_node().get(node, 0.0)


def energy_of_cluster(log, cluster: str) -> float:
    """Integrated energy of one cluster (J); 0.0 if never observed."""
    return log.energy_by_cluster().get(cluster, 0.0)


def tick_count(log: SegmentEnergyLog, node: str) -> int:
    """Sampling instants a segment log has accounted for ``node``."""
    return sum(segment.ticks for segment in log.segments(node))
