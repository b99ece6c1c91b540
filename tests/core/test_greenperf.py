"""Tests for the GreenPerf metric and rankings."""

import pytest
from hypothesis import given, strategies as st

from repro.core.greenperf import (
    GreenPerfRanking,
    IncrementalGreenPerfOrder,
    PowerEstimationMode,
    greenperf_of_node,
    greenperf_of_vector,
)
from repro.infrastructure.node import Node
from repro.infrastructure.platform import orion_spec, sagittaire_spec, taurus_spec
from repro.middleware.sed import ServerDaemon
from tests.conftest import make_spec, make_vector


class TestGreenPerfOfNode:
    def test_ratio_is_power_over_performance(self):
        spec = make_spec(cores=2, flops_per_core=1.0e9, peak_power=200.0)
        assert greenperf_of_node(spec) == pytest.approx(200.0 / 2.0e9)

    def test_accepts_node_or_spec(self):
        spec = make_spec()
        assert greenperf_of_node(spec) == greenperf_of_node(Node(spec))

    def test_paper_cluster_ordering(self):
        """Taurus must rank best, Sagittaire worst (Section IV-A)."""
        ratios = {
            spec.cluster: greenperf_of_node(spec)
            for spec in (orion_spec(), taurus_spec(), sagittaire_spec())
        }
        assert ratios["taurus"] < ratios["orion"] < ratios["sagittaire"]


class TestGreenPerfOfVector:
    def test_dynamic_mode_uses_mean_power(self):
        vector = make_vector(mean_power=100.0, peak_power=400.0, flops_per_core=1e9, cores=1)
        assert greenperf_of_vector(vector, mode=PowerEstimationMode.DYNAMIC) == pytest.approx(1e-7)

    def test_static_mode_uses_peak_power(self):
        vector = make_vector(mean_power=100.0, peak_power=400.0, flops_per_core=1e9, cores=1)
        assert greenperf_of_vector(vector, mode=PowerEstimationMode.STATIC) == pytest.approx(4e-7)

    def test_zero_power_rejected(self):
        vector = make_vector(mean_power=0.0)
        with pytest.raises(ValueError):
            greenperf_of_vector(vector)

    @given(
        power=st.floats(min_value=1.0, max_value=1000.0),
        flops=st.floats(min_value=1e6, max_value=1e12),
    )
    def test_ratio_positive_and_scales_with_power(self, power, flops):
        vector = make_vector(mean_power=power, flops_per_core=flops, cores=1)
        ratio = greenperf_of_vector(vector)
        assert ratio > 0
        double = make_vector(mean_power=2 * power, flops_per_core=flops, cores=1)
        assert greenperf_of_vector(double) == pytest.approx(2 * ratio)


class TestGreenPerfRanking:
    def make_vectors(self):
        return [
            make_vector(server="hungry", mean_power=400.0, flops_per_core=2e9, cores=1),
            make_vector(server="frugal", mean_power=100.0, flops_per_core=2e9, cores=1),
            make_vector(server="slow", mean_power=150.0, flops_per_core=0.5e9, cores=1),
        ]

    def test_ascending_order(self):
        # Ratios: frugal 100/2e9, hungry 400/2e9, slow 150/0.5e9 (worst).
        ranking = GreenPerfRanking(self.make_vectors())
        assert [entry.server for entry in ranking.entries] == ["frugal", "hungry", "slow"]
        assert [entry.power for entry in ranking.entries] == [100.0, 400.0, 150.0]

    def test_len_and_indexing(self):
        ranking = GreenPerfRanking(self.make_vectors())
        assert len(ranking) == 3
        assert ranking[0].server == "frugal"
        assert list(ranking) == list(ranking.entries)

    def test_static_mode_ignores_dynamic_history(self):
        vectors = [
            make_vector(server="a", mean_power=50.0, peak_power=400.0, flops_per_core=2e9),
            make_vector(server="b", mean_power=300.0, peak_power=100.0, flops_per_core=2e9),
        ]
        dynamic = GreenPerfRanking(vectors, mode=PowerEstimationMode.DYNAMIC)
        static = GreenPerfRanking(vectors, mode=PowerEstimationMode.STATIC)
        assert dynamic[0].server == "a"
        assert static[0].server == "b"

    def test_empty_ranking(self):
        assert len(GreenPerfRanking([])) == 0

    def test_tie_keeps_collection_order(self):
        vectors = [
            make_vector(server="first", mean_power=100.0),
            make_vector(server="second", mean_power=100.0),
        ]
        ranking = GreenPerfRanking(vectors)
        assert [entry.server for entry in ranking] == ["first", "second"]

    @given(
        powers=st.lists(st.floats(min_value=10, max_value=1000), min_size=1, max_size=20)
    )
    def test_ranking_is_sorted_property(self, powers):
        vectors = [
            make_vector(server=f"n-{i}", mean_power=power)
            for i, power in enumerate(powers)
        ]
        ranking = GreenPerfRanking(vectors)
        ratios = [entry.greenperf for entry in ranking]
        assert ratios == sorted(ratios)
        assert len(ranking) == len(powers)


class TestIncrementalOrderPower:
    def test_a_zero_dynamic_mean_power_is_rejected_where_it_is_read(self):
        """A SeD records 0 W (a node may draw none); the ratio divides by it."""
        seds = [ServerDaemon(Node(make_spec(name=f"n-{i}"))) for i in range(2)]
        order = IncrementalGreenPerfOrder(
            [sed.node for sed in seds], seds={sed.name: sed for sed in seds}
        )
        assert order.order() == ["n-0", "n-1"]
        seds[1].record_request_power(0.0)
        with pytest.raises(ValueError, match="power must be > 0, got 0.0"):
            order.order()

    def test_a_dynamic_mean_power_moves_the_order(self):
        seds = [ServerDaemon(Node(make_spec(name=f"n-{i}"))) for i in range(2)]
        order = IncrementalGreenPerfOrder(
            [sed.node for sed in seds], seds={sed.name: sed for sed in seds}
        )
        seds[0].record_request_power(300.0)
        assert order.order() == ["n-1", "n-0"]
