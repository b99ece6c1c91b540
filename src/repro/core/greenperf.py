"""The GreenPerf metric.

Section III-A: "Using the ratio Power Consumption / Performance of each
computing server, a ranking of available nodes is defined" — the *lower*
the ratio, the more energy-efficient the server, so GreenPerf rankings are
ascending.

Two ways of obtaining the power term are supported, mirroring the paper's
discussion:

* ``PowerEstimationMode.STATIC`` — use the node's nameplate full-load power
  (the result of a one-off benchmark);
* ``PowerEstimationMode.DYNAMIC`` — use the mean power observed over the
  execution of past requests (the paper's favoured approach, reported by
  the SeD through the ``MEAN_POWER`` estimation tag).

Performance is the server's aggregate FLOP/s.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.infrastructure.node import Node, NodeSpec
from repro.middleware.estimation import EstimationTags, EstimationVector
from repro.util.validation import ensure_positive


_INF = math.inf


class PowerEstimationMode(enum.Enum):
    """How the power term of GreenPerf is obtained."""

    STATIC = "static"
    DYNAMIC = "dynamic"


def greenperf_of_node(node: Node | NodeSpec) -> float:
    """Nameplate GreenPerf ratio of a node: peak power over total FLOP/s (lower is better)."""
    spec = node.spec if isinstance(node, Node) else node
    ensure_positive(spec.peak_power, "power")
    return spec.peak_power / spec.total_flops


def greenperf_of_vector(
    vector: EstimationVector,
    *,
    mode: PowerEstimationMode = PowerEstimationMode.DYNAMIC,
) -> float:
    """GreenPerf ratio computed from an estimation vector.

    In DYNAMIC mode the power term is the SeD-reported mean power over past
    requests; in STATIC mode it is the nameplate peak power.  A missing
    tag raises the vector's :class:`KeyError`; a value that is not
    positive, the validators' :class:`ValueError`.
    """
    values = vector.values
    if mode is PowerEstimationMode.DYNAMIC:
        power_tag = EstimationTags.MEAN_POWER
    else:
        power_tag = EstimationTags.PEAK_POWER
    power = values.get(power_tag)
    if not (type(power) is float and 0.0 < power < _INF):
        power = vector.get(power_tag)
        ensure_positive(power, "power")
    performance = values.get(EstimationTags.TOTAL_FLOPS)
    if not (type(performance) is float and 0.0 < performance < _INF):
        performance = vector.get(EstimationTags.TOTAL_FLOPS)
        ensure_positive(performance, "performance")
    return power / performance


@dataclass(frozen=True)
class RankedServer:
    """One entry of a GreenPerf ranking."""

    server: str
    greenperf: float
    power: float


class GreenPerfRanking:
    """An ascending GreenPerf ranking of a set of servers.

    The ranking is the data structure consumed by Algorithm 1 (candidate
    selection) and by the GreenPerf plug-in scheduler: position 0 is the
    most energy-efficient server.
    """

    def __init__(
        self,
        vectors: Sequence[EstimationVector],
        *,
        mode: PowerEstimationMode = PowerEstimationMode.DYNAMIC,
    ) -> None:
        self.mode = mode
        entries: list[RankedServer] = []
        for vector in vectors:
            ratio = greenperf_of_vector(vector, mode=mode)
            power = (
                vector.get(EstimationTags.MEAN_POWER)
                if mode is PowerEstimationMode.DYNAMIC
                else vector.get(EstimationTags.PEAK_POWER)
            )
            entries.append(RankedServer(server=vector.server, greenperf=ratio, power=power))
        # Stable sort: ties keep collection order, which keeps the ranking
        # deterministic for homogeneous clusters.
        entries.sort(key=lambda entry: entry.greenperf)
        self._entries = tuple(entries)

    # -- sequence protocol ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> RankedServer:
        return self._entries[index]

    def __iter__(self):
        return iter(self._entries)

    @property
    def entries(self) -> tuple[RankedServer, ...]:
        """Ranking entries, most energy-efficient first."""
        return self._entries


class IncrementalGreenPerfOrder:
    """A ``(greenperf, name)``-sorted node order maintained across checks.

    The provisioning planner (and anything else walking nodes in GreenPerf
    order, e.g. Algorithm 1's candidate selection over a whole platform)
    used to re-sort all nodes at every decision point.  The ratio of a
    node only moves when its SeD's *dynamic power estimate* moves, so this
    structure keeps the order resident: each SeD invalidation marks its
    node dirty (O(1)), and a refresh recomputes just the dirty ratios,
    repositioning a node only when its ratio actually changed (O(log n)
    locate per move).  Keys include the node name, so the order is total
    and equals ``sorted(nodes, key=lambda n: (ratio(n), n.name))``
    bit-for-bit.

    ``seds`` may cover any subset of the nodes (static nodes keep their
    nameplate ratio forever); it is duck-typed — anything exposing
    ``name``, ``observed_request_count``, ``dynamic_mean_power()`` and
    ``add_invalidation_listener`` works.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        *,
        seds: Mapping[str, object] | None = None,
    ) -> None:
        self._seds = dict(seds) if seds is not None else {}
        #: Each node's performance term and nameplate ratio.  The peak
        #: power is checked here, once per node (by ``greenperf_of_node``),
        #: and a SeD checks each power observation finite and non-negative
        #: where it records it, so recomputing a dirty ratio is a division
        #: behind one comparison.
        self._performance: dict[str, float] = {}
        self._static_ratio: dict[str, float] = {}
        for node in nodes:
            name, spec = node.name, node.spec
            self._performance[name] = spec.total_flops
            self._static_ratio[name] = greenperf_of_node(node)
        self._keys: list[tuple[float, str]] = []
        self._ratio_of: dict[str, float] = {}
        #: SeDs invalidated since the last refresh; its bound ``add`` is
        #: the invalidation listener.
        self._dirty: set = set()
        for name in self._static_ratio:
            key = (self._ratio(name), name)
            self._keys.append(key)
            self._ratio_of[name] = key[0]
        self._keys.sort()
        for name, sed in self._seds.items():
            if name in self._static_ratio and hasattr(sed, "add_invalidation_listener"):
                sed.add_invalidation_listener(self._dirty.add)

    def _ratio(self, name: str) -> float:
        """``greenperf_of_node`` with the SeD's dynamic power once it has history."""
        sed = self._seds.get(name)
        if sed is not None and sed.observed_request_count > 0:
            power = sed.dynamic_mean_power()
            if not power > 0.0:
                ensure_positive(power, "power")
            return power / self._performance[name]
        return self._static_ratio[name]

    def _refresh(self) -> None:
        dirty = self._dirty
        if not dirty:
            return
        keys = self._keys
        for sed in dirty:
            name = sed.name
            if name not in self._static_ratio:
                continue
            old_ratio = self._ratio_of[name]
            new_ratio = self._ratio(name)
            if new_ratio == old_ratio:
                continue
            index = bisect_left(keys, (old_ratio, name))
            del keys[index]
            new_key = (new_ratio, name)
            keys.insert(bisect_left(keys, new_key), new_key)
            self._ratio_of[name] = new_ratio
        dirty.clear()

    def order(self) -> list[str]:
        """All node names, ascending GreenPerf (most efficient first)."""
        self._refresh()
        return [name for _, name in self._keys]
