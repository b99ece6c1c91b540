"""Tests for the platform model and the Grid'5000 presets."""

import pytest

from repro.infrastructure.cluster import Cluster
from repro.infrastructure.platform import (
    Platform,
    grid5000_placement_platform,
    orion_spec,
    sagittaire_spec,
    simulated_cluster_specs,
    taurus_spec,
)
from tests.conftest import make_spec


class TestPlatformContainer:
    def test_duplicate_cluster_names_rejected(self):
        cluster_a = Cluster.homogeneous("same", 1, make_spec(cluster="same"))
        cluster_b = Cluster.homogeneous("same", 1, make_spec(cluster="same"))
        with pytest.raises(ValueError):
            Platform([cluster_a, cluster_b])

    def test_node_and_cluster_lookup(self):
        platform = grid5000_placement_platform(nodes_per_cluster=2)
        assert platform.cluster("taurus").name == "taurus"
        assert platform.node("orion-1").cluster == "orion"
        with pytest.raises(KeyError):
            platform.cluster("nope")
        with pytest.raises(KeyError):
            platform.node("nope")

    def test_len_and_iteration(self):
        platform = grid5000_placement_platform(nodes_per_cluster=2)
        assert len(platform) == 6
        assert len(list(platform)) == 6


class TestTable1Preset:
    def test_twelve_sed_nodes_by_default(self):
        platform = grid5000_placement_platform()
        assert len(platform) == 12
        assert {cluster.name for cluster in platform.clusters} == {
            "orion",
            "taurus",
            "sagittaire",
        }
        assert all(len(cluster) == 4 for cluster in platform.clusters)

    def test_core_counts_match_table1(self):
        # Orion and Taurus are 2x6-core nodes, Sagittaire 2x1-core.
        assert orion_spec().cores == 12
        assert taurus_spec().cores == 12
        assert sagittaire_spec().cores == 2

    def test_total_cores(self):
        platform = grid5000_placement_platform()
        assert platform.total_cores == 4 * 12 + 4 * 12 + 4 * 2

    def test_memory_matches_table1(self):
        assert orion_spec().memory_gb == 32.0
        assert taurus_spec().memory_gb == 32.0
        assert sagittaire_spec().memory_gb == 2.0

    def test_taurus_is_most_energy_efficient(self):
        """Taurus must have the best (lowest) power/performance ratio."""
        ratios = {
            spec.cluster: spec.peak_power / spec.total_flops
            for spec in (orion_spec(), taurus_spec(), sagittaire_spec())
        }
        assert ratios["taurus"] == min(ratios.values())
        assert ratios["sagittaire"] == max(ratios.values())

    def test_orion_is_fastest_per_core(self):
        assert orion_spec().flops_per_core > taurus_spec().flops_per_core
        assert taurus_spec().flops_per_core > sagittaire_spec().flops_per_core

    def test_specs_reject_bad_index(self):
        assert orion_spec(3).name == "orion-3"


class TestTable3Preset:
    def test_simulated_cluster_power_figures(self):
        specs = simulated_cluster_specs()
        assert specs["sim1"].idle_power == 190.0
        assert specs["sim1"].peak_power == 230.0
        assert specs["sim2"].idle_power == 160.0
        assert specs["sim2"].peak_power == 190.0
