"""Cluster model: a named group of nodes sharing a hardware specification.

The paper's platform (Table I) groups nodes into the Orion, Taurus and
Sagittaire clusters; the heterogeneity study (Table III) adds the Sim1 and
Sim2 simulated clusters.  Figures 5 report energy *per cluster*, so the
cluster is also the natural aggregation unit for metrics.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.infrastructure.node import Node, NodeSpec


class Cluster:
    """A named collection of :class:`~repro.infrastructure.node.Node` objects."""

    def __init__(self, name: str, nodes: Iterable[Node]) -> None:
        if not name:
            raise ValueError("cluster name must be a non-empty string")
        self.name = name
        self._nodes: list[Node] = list(nodes)
        for node in self._nodes:
            if node.cluster != name:
                raise ValueError(
                    f"node {node.name!r} declares cluster {node.cluster!r}, "
                    f"cannot add it to cluster {name!r}"
                )
        names = [node.name for node in self._nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in cluster {name!r}")

    @classmethod
    def homogeneous(
        cls,
        name: str,
        count: int,
        spec_template: NodeSpec,
    ) -> "Cluster":
        """Build a cluster of ``count`` identical nodes named ``<name>-<i>``.

        ``spec_template.name`` and ``spec_template.cluster`` are overridden
        with generated values; all other spec fields are copied.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        nodes = []
        for index in range(count):
            spec = NodeSpec(
                name=f"{name}-{index}",
                cluster=name,
                cores=spec_template.cores,
                flops_per_core=spec_template.flops_per_core,
                idle_power=spec_template.idle_power,
                peak_power=spec_template.peak_power,
                boot_power=spec_template.boot_power,
                boot_time=spec_template.boot_time,
                memory_gb=spec_template.memory_gb,
            )
            nodes.append(Node(spec))
        return cls(name, nodes)

    # -- container protocol ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __getitem__(self, index: int) -> Node:
        return self._nodes[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Cluster({self.name!r}, {len(self._nodes)} nodes)"

    @property
    def nodes(self) -> Sequence[Node]:
        """Nodes in this cluster, in declaration order."""
        return tuple(self._nodes)

    def node(self, name: str) -> Node:
        """Look up a node by name.  Raises :class:`KeyError` if absent."""
        for candidate in self._nodes:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no node named {name!r} in cluster {self.name!r}")

    # -- aggregates -------------------------------------------------------------
    @property
    def total_cores(self) -> int:
        """Total number of cores across the cluster."""
        return sum(node.spec.cores for node in self._nodes)
