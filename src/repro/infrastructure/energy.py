"""Event-driven energy accounting.

The seed reproduction mirrored the Grid'5000 measurement setup literally:
a wattmeter polled every node once per simulated second, allocating one
sample object per node per second — O(nodes × simulated-seconds) time
*and* memory.  Node power is piecewise-constant between scheduling
events, so the exact same energy figures are computable in
O(state-changes): this module does that.  (The polling meter survives
only as the tests' oracle, in ``tests/wattmeter.py``.)

Three cooperating pieces:

* :class:`PowerSegment` — one maximal ``(start, end, watts)`` interval of
  constant power on one node.
* :class:`SegmentEnergyLog` — the segment store.  It integrates energy
  per segment and answers the energy queries (``total_energy``,
  ``energy_by_node/cluster``) plus the segment queries (``segments``,
  ``nodes``) that observation reads.  It never renders a
  per-second trace: Figure 9's per-window platform power is computed from
  the segments by :func:`repro.lab.observe.windowed_power`.
* :class:`EnergyAccountant` — subscribes to every node's power-change
  notification (:meth:`~repro.infrastructure.node.Node.add_power_listener`)
  and closes a segment on each transition, stamping it with the
  simulation clock.

A two-node log, queried per node and per 2-second window:

>>> log = SegmentEnergyLog(sample_period=1.0)
>>> log.add_segment("a-0", "a", 0.0, 1.0, 100.0)   # instants t = 0, 1
>>> log.add_segment("a-0", "a", 1.0, 3.0, 200.0)   # instants t = 2, 3
>>> log.add_segment("b-0", "b", 0.0, 3.0, 50.0)    # instants t = 0..3
>>> log.energy_by_node()
{'a-0': 600.0, 'b-0': 200.0}
>>> [segment.ticks for segment in log.segments("a-0")]
[2, 2]
>>> from repro.lab.observe import windowed_power
>>> windowed_power(log, window=2.0, duration=4.0)
((2.0, 150.0), (4.0, 250.0))

Integration
-----------
The log reproduces the seed wattmeter's left-Riemann 1 Hz semantics
*exactly*: a segment ``(t0, t1]`` contributes ``watts × sample_period``
for every sampling instant ``t`` with ``t0 < t <= t1`` (the instant at a
transition time reads the power in effect *before* the transition,
exactly like a polling meter advanced to the event's time before the
event fires).  This is the reading of the paper's Grid'5000 wattmeters,
which sample every node at 1 Hz.  Tick counts come from floor
arithmetic — O(1) per segment — so the per-figure numbers match the
polling meter bit-for-bit whenever the sample period is exactly
representable in binary floating point (integers and dyadic rationals
such as 0.5; the experiments use 1 s, 5 s and 10 s).

Every segment keeps its ``start``, ``end`` and ``watts``, so the
analytic energy of the piecewise-constant power model (``watts ×
duration`` summed over :meth:`SegmentEnergyLog.segments`) is always
recoverable; the tests use it as an oracle (``tests/wattmeter.py``).

One deliberate fidelity improvement over the seed: the seed's driver
advanced its polling meter only on task and fault events, so a
provisioning transition (boot completion, power-off) that fired *between*
two such events was attributed to the wrong instants.  The accountant
is told about every transition by the node itself, so ticks are always
attributed to the power actually in effect.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Protocol, Sequence

from repro.util.validation import ensure_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.infrastructure.node import Node


class EnergyReadout(Protocol):
    """The energy totals :class:`~repro.simulation.metrics.MetricsCollector`
    and the driver read from a log.

    :class:`SegmentEnergyLog` satisfies it; so does the polling meter's
    log the tests compare it with.
    """

    @property
    def total_energy(self) -> float: ...

    def energy_by_node(self) -> Mapping[str, float]: ...

    def energy_by_cluster(self) -> Mapping[str, float]: ...


class PowerSegment:
    """One maximal constant-power interval on one node.

    ``watts`` is the draw over ``(start, end]``; ``ticks`` is the number of
    sampling instants the interval covers under the log's quantized
    semantics (see module docstring).
    """

    __slots__ = ("node", "cluster", "start", "end", "watts", "ticks")

    def __init__(
        self, node: str, cluster: str, start: float, end: float, watts: float, ticks: int
    ) -> None:
        self.node = node
        self.cluster = cluster
        self.start = start
        self.end = end
        self.watts = watts
        self.ticks = ticks

    @property
    def duration(self) -> float:
        """Length of the interval (s)."""
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PowerSegment({self.node!r}, [{self.start}, {self.end}], "
            f"{self.watts} W, ticks={self.ticks})"
        )


class SegmentEnergyLog:
    """Per-node power segments and the energy they integrate to.

    Segments are appended through :meth:`add_segment` in per-node
    chronological order (adjacent same-power segments are merged in
    place).  Energy figures are maintained incrementally — O(1) per
    segment.  A per-node query (``segments(node)``) reads only that
    node's data, never a scan of every node's.
    """

    def __init__(self, sample_period: float = 1.0) -> None:
        ensure_positive(sample_period, "sample_period")
        self.sample_period = sample_period
        #: Per-node segment lists, in registration order (the order
        #: platform power sums nodes in).
        self._segments: dict[str, list[PowerSegment]] = {}
        self._node_clusters: dict[str, str] = {}
        self._energy_by_node: dict[str, float] = {}
        self._energy_by_cluster: dict[str, float] = {}
        self._ticks_by_node: dict[str, int] = {}

    # -- recording ---------------------------------------------------------------
    def register_node(self, node: str, cluster: str) -> None:
        """Declare a node up front (fixes ordering; zero-energy nodes report 0.0)."""
        if node in self._segments:
            return
        self._segments[node] = []
        self._node_clusters[node] = cluster
        self._energy_by_node[node] = 0.0
        self._energy_by_cluster.setdefault(cluster, 0.0)
        self._ticks_by_node[node] = 0

    def add_segment(
        self, node: str, cluster: str, start: float, end: float, watts: float
    ) -> None:
        """Close one constant-power interval ``(start, end]`` for ``node``.

        Segments of one node must be contiguous — each starting exactly
        where the previous one ended, the first at time 0 — because tick
        attribution charges every sampling instant since the last
        accounted one to the incoming segment; a gap would silently book
        its instants at the wrong power.  A
        segment whose power equals the previous one is merged into it.
        The node's energy grows by ``watts × sample_period`` per sampling
        instant the segment covers.
        """
        if end < start:
            raise ValueError(f"segment for {node!r} ends before it starts: {end} < {start}")
        segments = self._segments.get(node)
        if segments is None:
            self.register_node(node, cluster)
            segments = self._segments[node]
        expected_start = segments[-1].end if segments else 0.0
        if start != expected_start:
            raise ValueError(
                f"segments for {node!r} must be contiguous: expected start "
                f"{expected_start}, got {start}"
            )

        # Sampling instants at ``k * period`` up to ``end``, less those
        # already accounted.
        counted = self._ticks_by_node[node]
        ticks = (0 if end < 0.0 else math.floor(end / self.sample_period) + 1) - counted
        if ticks == 0 and end == start:
            return  # zero-measure: no tick, no duration, nothing to record
        joules = watts * self.sample_period * ticks
        self._ticks_by_node[node] = counted + ticks
        self._energy_by_node[node] += joules
        self._energy_by_cluster[cluster] += joules

        if segments and segments[-1].watts == watts and segments[-1].end == start:
            last = segments[-1]
            last.end = end
            last.ticks += ticks
        else:
            segments.append(PowerSegment(node, cluster, start, end, watts, ticks))

    # -- energy queries ----------------------------------------------------------
    @property
    def total_energy(self) -> float:
        """Total integrated energy over all nodes (J)."""
        return sum(self._energy_by_node.values())

    def energy_by_node(self) -> Mapping[str, float]:
        """Integrated energy per node (J)."""
        return dict(self._energy_by_node)

    def energy_by_cluster(self) -> Mapping[str, float]:
        """Integrated energy per cluster (J)."""
        return dict(self._energy_by_cluster)

    # -- segment queries ---------------------------------------------------------
    def segments(self, node: str | None = None) -> Sequence[PowerSegment]:
        """Segments of one node (or of every node, grouped by node)."""
        if node is not None:
            return tuple(self._segments.get(node, ()))
        return tuple(
            segment for segments in self._segments.values() for segment in segments
        )

    @property
    def nodes(self) -> Sequence[str]:
        """Observed node names, in registration order."""
        return tuple(self._segments)


class EnergyAccountant:
    """Event-driven replacement for the polling wattmeter.

    Subscribes to every node's power-change notification and closes a
    :class:`PowerSegment` per transition, stamped with the simulation
    clock (``clock()``, a zero-argument callable returning the engine's
    ``now``).  Call
    :meth:`sync` to bring every node's accounting up to a given instant
    (the driver does this once, at the end of a run) and :meth:`close`
    to detach from the nodes.
    """

    def __init__(
        self,
        nodes: Iterable["Node"],
        *,
        clock: Callable[[], float],
        sample_period: float = 1.0,
        phase_timer=None,
    ) -> None:
        self.log = SegmentEnergyLog(sample_period)
        self._clock = clock
        #: Optional :class:`~repro.util.phases.PhaseTimer` booking segment
        #: bookkeeping to the "energy" phase on profiled runs.
        self._phase_timer = phase_timer
        self._nodes: list[Node] = list(nodes)
        #: Open interval per node: (segment start, watts in effect since then).
        self._open: dict[str, tuple[float, float]] = {}
        for node in self._nodes:
            self.log.register_node(node.name, node.cluster)
            self._open[node.name] = (0.0, node.current_power())
            node.add_power_listener(self._on_power_change)
        self._closed = False

    @property
    def sample_period(self) -> float:
        """Sampling period of the backing log (s)."""
        return self.log.sample_period

    # -- the transition hook -------------------------------------------------------
    def _on_power_change(self, node: "Node") -> None:
        timer = self._phase_timer
        if timer is not None:
            timer.push("energy")
        try:
            now = self._clock()
            spec = node.spec
            start, watts = self._open[spec.name]
            new_watts = node.current_power()
            if new_watts == watts:
                return  # same draw: the open segment simply extends
            self.log.add_segment(spec.name, spec.cluster, start, now, watts)
            self._open[spec.name] = (now, new_watts)
        finally:
            if timer is not None:
                timer.pop()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has detached this accountant."""
        return self._closed

    # -- explicit synchronisation ----------------------------------------------------
    def sync(self, now: float) -> None:
        """Account every node's open interval up to ``now`` (idempotent).

        After ``sync(t)`` the log's figures include everything up to
        ``t``; the open intervals restart at ``t`` with unchanged power.
        Raises once the accountant is closed: transitions are no longer
        observed then, so extending the open intervals would book time at
        stale power levels.
        """
        if self._closed:
            raise RuntimeError("cannot sync a closed EnergyAccountant")
        for node in self._nodes:
            start, watts = self._open[node.name]
            self.log.add_segment(node.name, node.cluster, start, now, watts)
            self._open[node.name] = (now, watts)

    def close(self, now: float | None = None) -> None:
        """Detach from the nodes, optionally accounting up to ``now`` first."""
        if self._closed:
            return
        if now is not None:
            self.sync(now)
        for node in self._nodes:
            node.remove_power_listener(self._on_power_change)
        self._closed = True
