"""Tests for the workload-placement experiment (Table II, Figures 2-5).

The full-scale experiment runs in benchmarks; tests run the quick
``table2_grid`` (one node per cluster, four requests per core and a
1 req/s continuous phase keep the favoured cluster able to absorb the
flow — the same regime as the full-scale experiment) in about 0.1 s.
"""

import pytest

from repro.experiments.reporting import energy_saving
from repro.lab.compat import execute_spec, session_for_spec
from repro.runner.executor import run_scenarios
from repro.runner.grids import table2_grid
from repro.runner.spec import ScenarioSpec

QUICK = ScenarioSpec(experiment="placement", platform="quick", workload="quick")


@pytest.fixture(scope="module")
def results():
    return run_scenarios(table2_grid("quick")).by_policy()


def cluster_task_share(result):
    """Fraction of tasks executed by each cluster in one placement result."""
    per_cluster = result.detail["tasks_per_cluster"]
    total = sum(per_cluster.values())
    return {cluster: count / total for cluster, count in per_cluster.items()}


class TestSingleRun:
    def test_all_tasks_complete(self):
        result = session_for_spec(QUICK).run().simulation
        platform_cores = 12 + 12 + 2
        assert result.metrics.task_count == 4 * platform_cores
        assert result.rejected_tasks == 0

    def test_policy_name_recorded(self):
        result = session_for_spec(QUICK.replace(policy="GREENPERF")).run()
        assert result.simulation.metrics.policy == "GREENPERF"

    def test_random_seed_is_configurable(self):
        random = QUICK.replace(policy="RANDOM")
        first = execute_spec(random.replace(seed=1))
        second = execute_spec(random.replace(seed=1))
        third = execute_spec(random.replace(seed=2))
        assert first.detail["tasks_per_node"] == second.detail["tasks_per_node"]
        assert first.detail["tasks_per_node"] != third.detail["tasks_per_node"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            execute_spec(QUICK.replace(policy="NOPE"))


class TestComparison:
    def test_compares_all_three_paper_policies(self, results):
        assert list(results) == ["RANDOM", "POWER", "PERFORMANCE"]

    def test_every_policy_reports_makespan_and_energy(self, results):
        for result in results.values():
            assert result.metrics["makespan"] > 0
            assert result.metrics["total_energy"] > 0

    def test_power_policy_concentrates_on_taurus(self, results):
        """Figure 2: most tasks execute on the Taurus cluster under POWER."""
        share = cluster_task_share(results["POWER"])
        assert share["taurus"] == max(share.values())
        assert share["taurus"] > 0.5

    def test_performance_policy_concentrates_on_orion(self, results):
        """Figure 3: most tasks execute on the Orion cluster under PERFORMANCE."""
        share = cluster_task_share(results["PERFORMANCE"])
        assert share["orion"] == max(share.values())
        assert share["orion"] > 0.5

    def test_random_policy_uses_every_cluster(self, results):
        """Figure 4: RANDOM spreads work, Sagittaire executing the fewest tasks."""
        counts = results["RANDOM"].detail["tasks_per_cluster"]
        assert set(counts) == {"orion", "taurus", "sagittaire"}
        assert counts["sagittaire"] == min(counts.values())

    def test_power_is_most_energy_efficient(self, results):
        """Table II: POWER consumes the least energy of the three policies."""
        energies = {p: r.metrics["total_energy"] for p, r in results.items()}
        assert energies["POWER"] == min(energies.values())

    def test_energy_saving_is_positive_vs_both_baselines(self, results):
        assert energy_saving(results, "POWER", "RANDOM") > 0.0
        assert energy_saving(results, "POWER", "PERFORMANCE") > 0.0

    def test_performance_has_best_makespan(self, results):
        """Table II: PERFORMANCE achieves the smallest makespan."""
        makespans = {p: r.metrics["makespan"] for p, r in results.items()}
        assert makespans["PERFORMANCE"] == min(makespans.values())

    def test_power_makespan_loss_is_small(self, results):
        """The paper reports <= 6 % makespan loss for POWER vs PERFORMANCE."""
        power = results["POWER"].metrics["makespan"]
        assert power / results["PERFORMANCE"].metrics["makespan"] - 1.0 < 0.15

    def test_energy_per_cluster_covers_all_policies(self, results):
        for result in results.values():
            energies = result.detail["energy_per_cluster"]
            assert set(energies) == {"orion", "taurus", "sagittaire"}
            assert all(value > 0 for value in energies.values())

    def test_task_distribution_counts_sum_to_total(self, results):
        for result in results.values():
            distribution = result.detail["tasks_per_node"]
            assert sum(distribution.values()) == result.metrics["task_count"]
