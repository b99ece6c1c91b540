"""Event-driven energy accounting.

The seed reproduction mirrored the Grid'5000 measurement setup literally:
a wattmeter (:mod:`repro.infrastructure.wattmeter`) polled every node
once per simulated second, allocating one sample object per node per
second — O(nodes × simulated-seconds) time *and* memory.  Node power is
piecewise-constant between scheduling events, so the exact same energy
figures are computable in O(state-changes): this module does that.

Three cooperating pieces:

* :class:`PowerSegment` — one maximal ``(start, end, watts)`` interval of
  constant power on one node.
* :class:`SegmentEnergyLog` — the segment store.  It preserves the full
  query surface of the polling :class:`~repro.infrastructure.wattmeter.EnergyLog`
  (``total_energy``, ``energy_by_node/cluster``, ``power_trace``,
  ``mean_power``, ``samples``) but integrates energy per segment and only
  materialises sampled traces lazily, when a figure asks for them.
* :class:`EnergyAccountant` — subscribes to every node's power-change
  notification (:meth:`~repro.infrastructure.node.Node.add_power_listener`)
  and closes a segment on each transition, stamping it with the
  simulation clock.

Integration modes
-----------------
``mode="quantized"`` (the default) reproduces the seed wattmeter's
left-Riemann 1 Hz semantics *exactly*: a segment ``(t0, t1]`` contributes
``watts × sample_period`` for every sampling instant ``t`` with
``t0 < t <= t1`` (the instant at a transition time reads the power in
effect *before* the transition, exactly like a polling meter advanced
to the event's time before the event fires).  Tick counts come from
floor arithmetic — O(1) per segment — so the per-figure numbers match
the polling meter bit-for-bit whenever the sample period is exactly
representable in binary floating point (integers and dyadic rationals
such as 0.5; the experiments use 1 s, 5 s and 10 s).

``mode="exact"`` integrates analytically: a segment contributes
``watts × (t1 - t0)``.  This is the physically exact energy of the
piecewise-constant power model; trace queries (``power_trace``,
``samples``, ``mean_power``) still render on the sampling grid so figures
remain drawable.

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

import numpy as np

from repro.util.validation import ensure_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.infrastructure.node import Node
    from repro.infrastructure.wattmeter import PowerSample

#: Valid integration modes of :class:`SegmentEnergyLog` / :class:`EnergyAccountant`
#: (also the driver's :data:`repro.middleware.driver.ENERGY_MODES`).
SEGMENT_MODES = ("quantized", "exact")


class EnergyReadout(Protocol):
    """The energy-log query surface metrics and figures consume.

    Both the segment-based :class:`SegmentEnergyLog` and the polling
    :class:`~repro.infrastructure.wattmeter.EnergyLog` (the tests' oracle)
    satisfy this.
    """

    sample_period: float

    @property
    def total_energy(self) -> float: ...

    def energy_of_node(self, node: str) -> float: ...

    def energy_by_node(self) -> Mapping[str, float]: ...

    def energy_of_cluster(self, cluster: str) -> float: ...

    def energy_by_cluster(self) -> Mapping[str, float]: ...

    def power_trace(self, node: str | None = None) -> np.ndarray: ...

    def mean_power(self, node: str) -> float: ...

    @property
    def samples(self) -> Sequence["PowerSample"]: ...


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
    """Per-node power segments with the polling ``EnergyLog`` query surface.

    Segments are appended through :meth:`add_segment` in per-node
    chronological order (adjacent same-power segments are merged in
    place).  Energy figures are maintained incrementally — O(1) per
    segment — while sampled representations (``samples``,
    ``power_trace``) are materialised lazily on demand.

    Per-node queries (``power_trace(node)``, ``mean_power``,
    ``segments(node)``) read only that node's segment list: O(own
    segments/ticks), never a scan of every node's data.
    """

    def __init__(
        self,
        sample_period: float = 1.0,
        *,
        mode: str = "quantized",
        start_time: float = 0.0,
    ) -> None:
        ensure_positive(sample_period, "sample_period")
        if mode not in SEGMENT_MODES:
            raise ValueError(f"mode must be one of {SEGMENT_MODES}, got {mode!r}")
        self.sample_period = sample_period
        self.mode = mode
        self.start_time = start_time
        #: Per-node segment lists, in registration order (drives the
        #: node interleaving of :attr:`samples`).
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

    def _ticks_through(self, time: float) -> int:
        """Sampling instants at ``start_time + k*period`` with tick time <= ``time``."""
        if time < self.start_time:
            return 0
        return int(math.floor((time - self.start_time) / self.sample_period)) + 1

    def add_segment(
        self, node: str, cluster: str, start: float, end: float, watts: float
    ) -> None:
        """Close one constant-power interval ``(start, end]`` for ``node``.

        Segments of one node must be contiguous — each starting exactly
        where the previous one ended, the first at the log's
        ``start_time`` — because tick attribution charges every sampling
        instant since the last accounted one to the incoming segment; a
        gap would silently book its instants at the wrong power.  A
        segment whose power equals the previous one is merged into it.
        The node's energy is updated according to the log's mode.
        """
        if end < start:
            raise ValueError(f"segment for {node!r} ends before it starts: {end} < {start}")
        self.register_node(node, cluster)
        segments = self._segments[node]
        expected_start = segments[-1].end if segments else self.start_time
        if start != expected_start:
            raise ValueError(
                f"segments for {node!r} must be contiguous: expected start "
                f"{expected_start}, got {start}"
            )

        counted = self._ticks_by_node[node]
        ticks = self._ticks_through(end) - counted
        if self.mode == "quantized":
            joules = watts * self.sample_period * ticks
        else:
            joules = watts * (end - start)
        if ticks == 0 and end == start:
            return  # zero-measure: no tick, no duration, nothing to record
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

    def energy_of_node(self, node: str) -> float:
        """Integrated energy of one node (J); 0.0 if never observed."""
        return self._energy_by_node.get(node, 0.0)

    def energy_by_node(self) -> Mapping[str, float]:
        """Integrated energy per node (J)."""
        return dict(self._energy_by_node)

    def energy_of_cluster(self, cluster: str) -> float:
        """Integrated energy of one cluster (J); 0.0 if never observed."""
        return self._energy_by_cluster.get(cluster, 0.0)

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

    def tick_count(self, node: str) -> int:
        """Number of sampling instants accounted for ``node`` so far."""
        return self._ticks_by_node.get(node, 0)

    @property
    def segment_count(self) -> int:
        """Total stored segments across all nodes (the O(state-changes) footprint)."""
        return sum(len(segments) for segments in self._segments.values())

    @property
    def nodes(self) -> Sequence[str]:
        """Observed node names, in registration order."""
        return tuple(self._segments)

    # -- lazily materialised trace queries ----------------------------------------
    def _node_watts(self, node: str) -> np.ndarray:
        """Per-tick power of one node as a flat array (quantized rendering)."""
        segments = self._segments.get(node, [])
        if not segments:
            return np.empty(0, dtype=float)
        counts = np.array([segment.ticks for segment in segments], dtype=int)
        watts = np.array([segment.watts for segment in segments], dtype=float)
        return np.repeat(watts, counts)

    def power_trace(self, node: str | None = None) -> np.ndarray:
        """Return a ``(n, 2)`` array of ``(time, watts)`` sampling instants.

        With ``node=None`` the platform-wide power is returned: per-node
        traces summed instant by instant.  The array is materialised from
        the segments on each call — in exact mode it is a ``sample_period``
        rendering of the analytic piecewise-constant power.
        """
        if node is not None:
            values = self._node_watts(node)
            times = self.start_time + np.arange(values.size, dtype=float) * self.sample_period
            return np.column_stack([times, values]) if values.size else np.empty((0, 2))
        traces = [self._node_watts(name) for name in self._segments]
        length = max((trace.size for trace in traces), default=0)
        if length == 0:
            return np.empty((0, 2))
        totals = np.zeros(length, dtype=float)
        for trace in traces:
            totals[: trace.size] += trace
        times = self.start_time + np.arange(length, dtype=float) * self.sample_period
        return np.column_stack([times, totals])

    def mean_power(self, node: str) -> float:
        """Average of the (quantized) power instants for ``node`` (W)."""
        trace = self.power_trace(node)
        if trace.size == 0:
            return 0.0
        return float(trace[:, 1].mean())

    @property
    def samples(self) -> Sequence["PowerSample"]:
        """The equivalent 1-per-period sample sequence, materialised lazily.

        Ordering matches the polling wattmeter: chronological, nodes in
        registration order within one instant.  This allocates
        O(nodes × ticks) objects — use it for figures and tests, not in
        hot paths (that is the whole point of the segment store).
        """
        from repro.infrastructure.wattmeter import PowerSample

        per_node = [
            (name, self._node_clusters[name], self._node_watts(name))
            for name in self._segments
        ]
        length = max((watts.size for _, _, watts in per_node), default=0)
        out: list[PowerSample] = []
        for k in range(length):
            time = self.start_time + k * self.sample_period
            for name, cluster, watts in per_node:
                if k < watts.size:
                    out.append(PowerSample(time=time, node=name, cluster=cluster, watts=float(watts[k])))
        return tuple(out)


class EnergyAccountant:
    """Event-driven replacement for the polling wattmeter.

    Subscribes to every node's power-change notification and closes a
    :class:`PowerSegment` per transition, stamped with the simulation
    clock (``clock()`` — typically ``lambda: engine.now``).  Call
    :meth:`sync` to bring every node's accounting up to a given instant
    (the driver does this once, at the end of a run) and :meth:`close`
    to detach from the nodes.
    """

    def __init__(
        self,
        nodes: Iterable["Node"],
        *,
        clock: Callable[[], float],
        mode: str = "quantized",
        sample_period: float = 1.0,
        start_time: float = 0.0,
        phase_timer=None,
    ) -> None:
        self.log = SegmentEnergyLog(sample_period, mode=mode, start_time=start_time)
        self._clock = clock
        #: Optional :class:`~repro.util.phases.PhaseTimer` booking segment
        #: bookkeeping to the "energy" phase on profiled runs.
        self._phase_timer = phase_timer
        self._nodes: list[Node] = list(nodes)
        #: Open interval per node: (segment start, watts in effect since then).
        self._open: dict[str, tuple[float, float]] = {}
        for node in self._nodes:
            self.log.register_node(node.name, node.cluster)
            self._open[node.name] = (start_time, node.current_power())
            node.add_power_listener(self._on_power_change)
        self._closed = False

    @property
    def mode(self) -> str:
        """Integration mode of the backing log."""
        return self.log.mode

    @property
    def sample_period(self) -> float:
        """Sampling period of the quantized rendering (s)."""
        return self.log.sample_period

    @property
    def monitored_nodes(self) -> Sequence["Node"]:
        """Nodes this accountant listens to."""
        return tuple(self._nodes)

    # -- the transition hook -------------------------------------------------------
    def _on_power_change(self, node: "Node") -> None:
        timer = self._phase_timer
        if timer is not None:
            timer.push("energy")
        try:
            now = self._clock()
            start, watts = self._open[node.name]
            new_watts = node.current_power()
            if new_watts == watts:
                return  # same draw: the open segment simply extends
            self.log.add_segment(node.name, node.cluster, start, now, watts)
            self._open[node.name] = (now, new_watts)
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
