"""Tests for the experiment presets (Tables I and III)."""

import pytest

from repro.experiments.placement import placement_session
from repro.experiments.presets import (
    CALIBRATED_TASK_FLOP,
    paper_infrastructure_table,
    placement_workload,
    simulated_clusters_table,
)
from repro.lab.compat import session_for_spec
from repro.runner.spec import ScenarioSpec


def paper_workload(**changes):
    """The paper preset's placement workload factory, with ``changes``."""
    params = dict(
        requests_per_core=10,
        task_flop=CALIBRATED_TASK_FLOP,
        continuous_rate=2.0,
        burst_size=None,
    )
    params.update(changes)
    return placement_workload(**params)


class TestPlacementParameters:
    def test_defaults_match_paper_parameters(self):
        session = placement_session(ScenarioSpec())
        assert session.platform.nodes_per_cluster == 4
        assert session.sample_period == 1.0
        workload = session.workload.generator(104)
        assert workload.total_tasks == 1040  # ten requests per core
        assert workload.burst_size == 104  # one request per core
        assert workload.continuous_rate == 2.0
        assert workload.flop_per_task == CALIBRATED_TASK_FLOP

    def test_platform_has_twelve_nodes_by_default(self):
        platform = placement_session(ScenarioSpec()).platform.build_platform()
        assert len(platform) == 12

    def test_explicit_burst_clipped_to_total(self):
        workload = paper_workload(requests_per_core=1, burst_size=500)(10)
        assert workload.burst_size == 10

    def test_workload_counts(self):
        tasks = paper_workload(requests_per_core=2)(26).generate()
        assert len(tasks) == 52
        assert tasks[0].flop == CALIBRATED_TASK_FLOP

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"nodes_per_cluster": 0}, "nodes_per_cluster must be >= 1, got 0"),
            ({"requests_per_core": 0}, "requests_per_core must be >= 1, got 0"),
            ({"task_flop": 0.0}, "task_flop must be > 0"),
            ({"continuous_rate": -1.0}, "continuous_rate must be > 0"),
            ({"sample_period": 0.0}, "sample_period must be > 0"),
            ({"burst_size": -1}, "burst_size must be >= 0, got -1"),
        ],
    )
    def test_validation_precedes_the_run(self, override, message):
        with pytest.raises(ValueError, match=message):
            session_for_spec(ScenarioSpec(overrides=override))


class TestPaperTables:
    def test_table1_rows(self):
        rows = paper_infrastructure_table()
        assert len(rows) == 5
        roles = [row["role"] for row in rows]
        assert roles.count("SED") == 3
        assert "MA" in roles and "Client" in roles
        sed_nodes = sum(row["nodes"] for row in rows if row["role"] == "SED")
        assert sed_nodes == 12

    def test_table3_rows(self):
        rows = simulated_clusters_table()
        by_name = {row["cluster"].lower(): row for row in rows}
        assert by_name["sim1"]["idle_consumption"] == 190.0
        assert by_name["sim1"]["peak_consumption"] == 230.0
        assert by_name["sim2"]["idle_consumption"] == 160.0
        assert by_name["sim2"]["peak_consumption"] == 190.0
