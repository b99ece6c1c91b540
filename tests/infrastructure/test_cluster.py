"""Tests for the cluster model."""

import pytest

from repro.infrastructure.cluster import Cluster
from repro.infrastructure.node import Node, NodeState
from tests.conftest import make_spec


def make_cluster(name="alpha", count=3, **spec_overrides):
    return Cluster.homogeneous(name, count, make_spec(cluster=name, **spec_overrides))


class TestConstruction:
    def test_homogeneous_generates_named_nodes(self):
        cluster = make_cluster("alpha", 3)
        assert len(cluster) == 3
        assert [node.name for node in cluster] == ["alpha-0", "alpha-1", "alpha-2"]
        assert all(node.cluster == "alpha" for node in cluster)

    def test_homogeneous_rejects_zero_count(self):
        with pytest.raises(ValueError):
            make_cluster(count=0)

    def test_rejects_node_from_other_cluster(self):
        foreign = Node(make_spec(name="x-0", cluster="other"))
        with pytest.raises(ValueError):
            Cluster("alpha", [foreign])

    def test_rejects_duplicate_node_names(self):
        spec = make_spec(name="a-0", cluster="alpha")
        with pytest.raises(ValueError):
            Cluster("alpha", [Node(spec), Node(spec)])

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Cluster("", [])

    def test_homogeneous_nodes_start_on(self):
        cluster = Cluster.homogeneous("beta", 2, make_spec(cluster="beta"))
        assert all(node.state is NodeState.ON for node in cluster)


class TestLookupAndAggregates:
    def test_node_lookup_by_name(self):
        cluster = make_cluster("alpha", 2)
        assert cluster.node("alpha-1").name == "alpha-1"

    def test_node_lookup_missing_raises(self):
        cluster = make_cluster("alpha", 2)
        with pytest.raises(KeyError):
            cluster.node("nope")

    def test_indexing(self):
        cluster = make_cluster("alpha", 2)
        assert cluster[0].name == "alpha-0"

    def test_total_cores(self):
        cluster = make_cluster("alpha", 3, cores=4)
        assert cluster.total_cores == 12
