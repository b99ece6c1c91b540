"""Platform model and experiment presets.

A :class:`Platform` is the whole infrastructure visible to the middleware:
several clusters plus a node index.  The module also provides the concrete
platform configurations used by the paper's evaluation:

* :func:`grid5000_placement_platform` — the 12-SeD deployment of Table I
  (4 Orion, 4 Taurus, 4 Sagittaire nodes) used for the workload-placement
  experiment (Figures 2–5, Table II).
* :func:`simulated_cluster_specs` — the Sim1 and Sim2 server types of
  Table III, which extend the GreenPerf heterogeneity study (Figures 6
  and 7) beyond Orion and Taurus.

The absolute power and FLOPS figures below are derived from the public
Grid'5000 hardware descriptions of the Lyon site (Orion and Taurus are
Xeon E5-2630 nodes, Sagittaire are 2006-era dual Opteron 250 nodes) and
from the paper's Table III.  They are inputs to the simulation, not claims
about the original testbed; only their ordering and rough ratios matter
for reproducing the paper's conclusions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.infrastructure.cluster import Cluster
from repro.infrastructure.node import Node, NodeSpec

#: FLOP cost of the paper's unit task: "1e8 successive additions".
UNIT_TASK_FLOP = 1.0e8

#: Per-core sustained rates (FLOP/s).  Orion is the fastest per core
#: (recent Xeons with a slightly higher turbo bin), Taurus is nearly as
#: fast but draws noticeably less power (no GPU), Sagittaire is an old
#: dual-single-core Opteron machine: slow and power hungry while idle.
_ORION_FLOPS_PER_CORE = 2.50e9
_TAURUS_FLOPS_PER_CORE = 2.30e9
_SAGITTAIRE_FLOPS_PER_CORE = 1.20e9

#: Node power figures (W).  Orion nodes carry accelerators that idle hot and
#: draw heavily under load, which is what makes Taurus the energy-efficient
#: choice for CPU-bound tasks despite nearly identical CPUs; Sagittaire is a
#: 2006-era machine whose idle draw is close to its peak (the "nodes are not
#: energy proportional" observation of Section II-B).
_ORION_IDLE, _ORION_PEAK = 230.0, 480.0
_TAURUS_IDLE, _TAURUS_PEAK = 95.0, 190.0
_SAGITTAIRE_IDLE, _SAGITTAIRE_PEAK = 215.0, 340.0

#: Boot characteristics shared by all physical nodes.
_BOOT_TIME_S = 120.0
_BOOT_POWER_FRACTION = 0.75


def orion_spec(index: int = 0) -> NodeSpec:
    """Spec of one Orion node (2 × 6 cores @ 2.30 GHz, 32 GB, GPU-equipped)."""
    return NodeSpec(
        name=f"orion-{index}",
        cluster="orion",
        cores=12,
        flops_per_core=_ORION_FLOPS_PER_CORE,
        idle_power=_ORION_IDLE,
        peak_power=_ORION_PEAK,
        boot_power=_BOOT_POWER_FRACTION * _ORION_PEAK,
        boot_time=_BOOT_TIME_S,
        memory_gb=32.0,
    )


def taurus_spec(index: int = 0) -> NodeSpec:
    """Spec of one Taurus node (2 × 6 cores @ 2.30 GHz, 32 GB)."""
    return NodeSpec(
        name=f"taurus-{index}",
        cluster="taurus",
        cores=12,
        flops_per_core=_TAURUS_FLOPS_PER_CORE,
        idle_power=_TAURUS_IDLE,
        peak_power=_TAURUS_PEAK,
        boot_power=_BOOT_POWER_FRACTION * _TAURUS_PEAK,
        boot_time=_BOOT_TIME_S,
        memory_gb=32.0,
    )


def sagittaire_spec(index: int = 0) -> NodeSpec:
    """Spec of one Sagittaire node (2 × 1 core @ 2.40 GHz, 2 GB)."""
    return NodeSpec(
        name=f"sagittaire-{index}",
        cluster="sagittaire",
        cores=2,
        flops_per_core=_SAGITTAIRE_FLOPS_PER_CORE,
        idle_power=_SAGITTAIRE_IDLE,
        peak_power=_SAGITTAIRE_PEAK,
        boot_power=_BOOT_POWER_FRACTION * _SAGITTAIRE_PEAK,
        boot_time=_BOOT_TIME_S,
        memory_gb=2.0,
    )


def simulated_cluster_specs() -> Mapping[str, NodeSpec]:
    """Specs of the Sim1 and Sim2 clusters of Table III.

    Table III only fixes the idle and peak power (Sim1: 190/230 W,
    Sim2: 160/190 W); performance is ours to choose.  Sim1 is a mid-power,
    mid-speed machine and Sim2 a frugal but slow one, which is what
    genuinely widens the platform's heterogeneity (and makes the
    power-only and power/performance rankings diverge), as intended by the
    paper's second scenario.
    """
    return {
        "sim1": NodeSpec(
            name="sim1-0",
            cluster="sim1",
            cores=8,
            flops_per_core=1.80e9,
            idle_power=190.0,
            peak_power=230.0,
            boot_power=_BOOT_POWER_FRACTION * 230.0,
            boot_time=_BOOT_TIME_S,
            memory_gb=16.0,
        ),
        "sim2": NodeSpec(
            name="sim2-0",
            cluster="sim2",
            cores=4,
            flops_per_core=0.80e9,
            idle_power=160.0,
            peak_power=190.0,
            boot_power=_BOOT_POWER_FRACTION * 190.0,
            boot_time=_BOOT_TIME_S,
            memory_gb=8.0,
        ),
    }


class Platform:
    """The full infrastructure visible to the middleware."""

    def __init__(self, clusters: Iterable[Cluster]) -> None:
        self._clusters: list[Cluster] = list(clusters)
        names = [cluster.name for cluster in self._clusters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate cluster names in platform")
        self._node_index: dict[str, Node] = {}
        for cluster in self._clusters:
            for node in cluster:
                if node.name in self._node_index:
                    raise ValueError(f"duplicate node name {node.name!r} in platform")
                self._node_index[node.name] = node

    # -- containers --------------------------------------------------------
    @property
    def clusters(self) -> Sequence[Cluster]:
        """Clusters in declaration order."""
        return tuple(self._clusters)

    @property
    def nodes(self) -> Sequence[Node]:
        """All nodes of the platform, cluster by cluster."""
        return tuple(node for cluster in self._clusters for node in cluster)

    def __len__(self) -> int:
        return len(self._node_index)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def cluster(self, name: str) -> Cluster:
        """Look up a cluster by name."""
        for cluster in self._clusters:
            if cluster.name == name:
                return cluster
        raise KeyError(f"no cluster named {name!r}")

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self._node_index[name]
        except KeyError:
            raise KeyError(f"no node named {name!r}") from None

    # -- aggregates ---------------------------------------------------------
    @property
    def total_cores(self) -> int:
        """Total core count of the platform."""
        return sum(cluster.total_cores for cluster in self._clusters)


def grid5000_placement_platform(*, nodes_per_cluster: int = 4) -> Platform:
    """The 12-SeD platform of Table I (Orion ×4, Taurus ×4, Sagittaire ×4).

    The Master Agent and client nodes of Table I do not execute tasks and
    their consumption "was constant when executing the three algorithms"
    (Section IV-A), so they are omitted from the simulated platform.
    """
    return Platform(
        [
            Cluster.homogeneous("orion", nodes_per_cluster, orion_spec()),
            Cluster.homogeneous("taurus", nodes_per_cluster, taurus_spec()),
            Cluster.homogeneous("sagittaire", nodes_per_cluster, sagittaire_spec()),
        ]
    )
