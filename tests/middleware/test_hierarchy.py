"""Tests for hierarchy construction from platforms."""

from repro.core.policies import PowerPolicy
from repro.infrastructure.platform import grid5000_placement_platform
from repro.middleware.agents import LocalAgent
from repro.middleware.hierarchy import build_hierarchy


class TestBuildHierarchy:
    def test_one_sed_per_node(self):
        platform = grid5000_placement_platform(nodes_per_cluster=2)
        master, seds = build_hierarchy(platform)
        assert len(seds) == 6
        assert set(seds) == {node.name for node in platform.nodes}
        assert len(master.all_seds()) == 6

    def test_per_cluster_local_agents(self):
        platform = grid5000_placement_platform(nodes_per_cluster=1)
        master, _ = build_hierarchy(platform)
        assert len(master.child_agents) == 3
        assert all(isinstance(agent, LocalAgent) for agent in master.child_agents)
        assert {agent.name for agent in master.child_agents} == {
            "la-orion",
            "la-taurus",
            "la-sagittaire",
        }
        assert master.seds == ()

    def test_the_master_agent_holds_the_one_scheduler(self):
        platform = grid5000_placement_platform(nodes_per_cluster=1)
        policy = PowerPolicy()
        master, _ = build_hierarchy(platform, scheduler=policy)
        assert master.scheduler is policy
        assert not any(hasattr(agent, "scheduler") for agent in master.child_agents)

    def test_custom_services(self):
        platform = grid5000_placement_platform(nodes_per_cluster=1)
        _, seds = build_hierarchy(platform, services=("a", "b"))
        assert all(sed.can_solve("a") and sed.can_solve("b") for sed in seds.values())

    def test_seds_bound_to_platform_nodes(self):
        platform = grid5000_placement_platform(nodes_per_cluster=1)
        _, seds = build_hierarchy(platform)
        for name, sed in seds.items():
            assert sed.node is platform.node(name)
