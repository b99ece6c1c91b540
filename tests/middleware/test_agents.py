"""Tests for the agent hierarchy."""

import pytest

from repro.core.policies import PerformancePolicy, PowerPolicy, RandomPolicy
from repro.infrastructure.node import Node, NodeState
from repro.middleware.agents import HierarchyError, LocalAgent, MasterAgent
from repro.middleware.plugin_scheduler import FirstComeFirstServedScheduler, PluginScheduler
from repro.middleware.ranking import choose_election
from repro.middleware.requests import ServiceRequest
from repro.middleware.sed import ServerDaemon
from repro.simulation.task import Task
from tests.conftest import flat_hierarchy, make_spec, ranking


def make_sed(name, cluster="c", *, peak_power=200.0, flops=2.0e9, state=NodeState.ON):
    node = Node(
        make_spec(name=name, cluster=cluster, peak_power=peak_power, idle_power=90.0,
                  flops_per_core=flops),
    )
    if state is NodeState.OFF:
        node.power_off()
    return ServerDaemon(node)


def make_request(service="cpu-burn"):
    return ServiceRequest.from_task(Task(service=service))


class TestTopology:
    def test_add_agent_and_sed(self):
        master = MasterAgent()
        local = LocalAgent("la-0")
        master.add_agent(local)
        sed = make_sed("n-0")
        local.add_sed(sed)
        assert master.child_agents == (local,)
        assert local.seds == (sed,)
        assert master.all_seds() == (sed,)

    def test_agent_cannot_be_its_own_child(self):
        master = MasterAgent()
        with pytest.raises(ValueError):
            master.add_agent(master)

    def test_agent_cannot_be_its_own_ancestor(self):
        master = MasterAgent()
        local = LocalAgent("la-0")
        master.add_agent(local)
        with pytest.raises(ValueError, match="ancestor"):
            local.add_agent(master)
        assert local.child_agents == ()

    def test_an_attached_agent_cannot_be_attached_again(self):
        local = LocalAgent("la-0")
        MasterAgent().add_agent(local)
        other = MasterAgent()
        with pytest.raises(ValueError, match="already has a parent"):
            other.add_agent(local)
        assert other.child_agents == ()

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            LocalAgent("")

    def test_local_agents_take_no_scheduler(self):
        with pytest.raises(TypeError):
            LocalAgent("la-0", scheduler=PowerPolicy())

    def test_the_scheduler_is_read_only(self):
        master = MasterAgent(scheduler=PowerPolicy())
        with pytest.raises(AttributeError):
            master.scheduler = PerformancePolicy()


class TestFrozenTopology:
    """After the Master Agent's first election its hierarchy cannot change."""

    def _elected(self):
        master = MasterAgent(scheduler=PowerPolicy())
        local = LocalAgent("la-0")
        master.add_agent(local)
        master.add_sed(make_sed("n-0"))
        local.add_sed(make_sed("n-1"))
        assert master.submit(make_request()).elected is not None
        return master, local

    @pytest.mark.parametrize("where", ["master", "local"])
    def test_adding_a_sed_raises(self, where):
        master, local = self._elected()
        before = master.all_seds()
        agent = master if where == "master" else local
        with pytest.raises(RuntimeError, match="frozen"):
            agent.add_sed(make_sed("late"))
        assert master.all_seds() == before
        assert [entry.server for entry in ranking(master, make_request())] == ["n-0", "n-1"]

    @pytest.mark.parametrize("where", ["master", "local"])
    def test_adding_an_agent_raises(self, where):
        master, local = self._elected()
        before = master.all_seds()
        agent = master if where == "master" else local
        late = LocalAgent("la-late")
        late.add_sed(make_sed("late"))
        with pytest.raises(RuntimeError, match="frozen"):
            agent.add_agent(late)
        assert master.all_seds() == before
        assert late._parent is None

    def test_an_elected_master_cannot_become_a_child(self):
        master, _ = self._elected()
        with pytest.raises(RuntimeError, match="frozen"):
            MasterAgent().add_agent(master)

    def test_the_strategy_is_chosen_once_at_the_first_election(self):
        master = MasterAgent(scheduler=PowerPolicy())
        master.add_sed(make_sed("n-0"))
        chosen = []

        def choose(agent):
            chosen.append(agent)
            return choose_election(agent)

        master._choose_election = choose
        assert chosen == []
        for _ in range(3):
            assert master.submit(make_request()).elected == "n-0"
        assert chosen == [master]

    def test_the_topology_is_open_until_the_first_election(self):
        master = MasterAgent(scheduler=PowerPolicy())
        master.add_sed(make_sed("n-0"))
        master.set_candidate_filter({"n-0"})
        master.add_sed(make_sed("n-1"))
        assert len(master.all_seds()) == 2


class TestCandidateCollection:
    def test_two_children_are_concatenated_then_sorted(self):
        """An agent merges its children's rankings and re-sorts them with its plug-in."""

        class ReverseAlphabetical(PluginScheduler):
            name = "reverse"

            def sort(self, request, candidates):
                return sorted(candidates, key=lambda entry: entry.server, reverse=True)

        request = make_request()

        def collected(scheduler):
            master = MasterAgent(scheduler=scheduler)
            for name, seds in (("la-0", ("a", "c")), ("la-1", ("b",))):
                local = LocalAgent(name)
                master.add_agent(local)
                for sed in seds:
                    local.add_sed(make_sed(sed))
            return [entry.server for entry in master.collect_candidates(request)]

        assert collected(FirstComeFirstServedScheduler()) == ["a", "c", "b"]
        assert collected(ReverseAlphabetical()) == ["c", "b", "a"]
        assert sorted(collected(RandomPolicy(seed=0))) == ["a", "b", "c"]

    def test_every_level_sorts_with_the_master_agents_scheduler(self):
        """Local Agents hold no scheduler: every ``sort`` call is the Master Agent's."""

        class Recording(FirstComeFirstServedScheduler):
            def __init__(self):
                self.calls = []

            def sort(self, request, candidates):
                self.calls.append([entry.server for entry in candidates])
                return super().sort(request, candidates)

        scheduler = Recording()
        master = MasterAgent(scheduler=scheduler)
        upper = LocalAgent("la-0")
        lower = LocalAgent("la-0-sub")
        master.add_agent(upper)
        upper.add_agent(lower)
        upper.add_sed(make_sed("a"))
        lower.add_sed(make_sed("b"))
        master.add_sed(make_sed("c"))
        ranked = [entry.server for entry in master.collect_candidates(make_request())]
        assert ranked == ["c", "a", "b"]
        # Local sorts at each agent holding a SeD, then one merge re-sort at
        # every agent holding more than one partial ranking.
        assert scheduler.calls == [["c"], ["a"], ["b"], ["a", "b"], ["c", "a", "b"]]

    @pytest.mark.parametrize("depth", [1, 2])
    def test_a_walk_without_a_master_agent_at_the_root_is_refused(self, depth):
        top = LocalAgent("la-top")
        walker = top
        for level in range(1, depth):
            child = LocalAgent(f"la-{level}")
            walker.add_agent(child)
            walker = child
        walker.add_sed(make_sed("a"))
        with pytest.raises(HierarchyError, match=r"'la-top'.*needs one to hold the plug-in scheduler"):
            walker.collect_candidates(make_request())
        # Once attached under a Master Agent, the same walk sorts with its plug-in.
        MasterAgent().add_agent(top)
        assert [entry.server for entry in walker.collect_candidates(make_request())] == ["a"]

    def test_collects_only_matching_service(self):
        master = flat_hierarchy([make_sed("n-0"), make_sed("n-1")])
        outcome = master.submit(make_request(service="unknown-service"))
        assert not outcome.succeeded
        assert outcome.elected is None

    def test_collects_only_available_nodes(self):
        on_sed = make_sed("n-on")
        off_sed = make_sed("n-off", state=NodeState.OFF)
        master = flat_hierarchy([on_sed, off_sed])
        assert [entry.server for entry in ranking(master, make_request())] == ["n-on"]
        assert master.submit(make_request()).elected == "n-on"

    def test_election_returns_first_of_ranking(self):
        cheap = make_sed("cheap", peak_power=100.0)
        hungry = make_sed("hungry", peak_power=400.0)
        master = flat_hierarchy([hungry, cheap], scheduler=PowerPolicy())
        outcome = master.submit(make_request())
        assert outcome.elected == "cheap"
        assert outcome.succeeded

    def test_hierarchical_sorting_matches_flat(self):
        """A two-level hierarchy must elect the same SeD as a flat one."""
        seds = [
            make_sed("a-0", cluster="a", peak_power=300.0),
            make_sed("a-1", cluster="a", peak_power=150.0),
            make_sed("b-0", cluster="b", peak_power=100.0),
            make_sed("b-1", cluster="b", peak_power=250.0),
        ]
        flat = flat_hierarchy(seds, scheduler=PowerPolicy())

        hierarchical = MasterAgent(scheduler=PowerPolicy())
        cluster_a = LocalAgent("la-a")
        cluster_b = LocalAgent("la-b")
        hierarchical.add_agent(cluster_a)
        hierarchical.add_agent(cluster_b)
        cluster_a.add_sed(seds[0])
        cluster_a.add_sed(seds[1])
        cluster_b.add_sed(seds[2])
        cluster_b.add_sed(seds[3])

        flat_outcome = flat.submit(make_request())
        tree_outcome = hierarchical.submit(make_request())
        assert flat_outcome.elected == tree_outcome.elected == "b-0"
        assert ranking(flat, make_request()) == ranking(hierarchical, make_request())

    def test_performance_policy_elects_fastest(self):
        slow = make_sed("slow", flops=1.0e9)
        fast = make_sed("fast", flops=3.0e9)
        master = flat_hierarchy([slow, fast], scheduler=PerformancePolicy())
        assert master.submit(make_request()).elected == "fast"

    def test_default_scheduler_preserves_collection_order(self):
        master = flat_hierarchy(
            [make_sed("first"), make_sed("second")],
            scheduler=FirstComeFirstServedScheduler(),
        )
        assert master.submit(make_request()).elected == "first"
        assert [entry.server for entry in ranking(master, make_request())] == [
            "first", "second",
        ]

    def test_ranked_candidates_expose_estimations(self):
        master = flat_hierarchy([make_sed("n-0")])
        (entry,) = ranking(master, make_request())
        assert entry.server == entry.estimation.server == "n-0"
        assert entry.estimation.peak_power == 200.0


class TestCandidateFilter:
    def _master(self):
        cheap = make_sed("cheap", peak_power=100.0)
        hungry = make_sed("hungry", peak_power=400.0)
        return flat_hierarchy([cheap, hungry], scheduler=PowerPolicy())

    def test_filter_restricts_election(self):
        master = self._master()
        master.set_candidate_filter({"hungry"})
        assert master.submit(make_request()).elected == "hungry"

    @pytest.mark.parametrize("allowed", [set(), {"elsewhere"}])
    def test_a_set_allowing_no_candidate_elects_the_head(self, allowed):
        master = self._master()
        master.set_candidate_filter(allowed)
        # Provisioning never leaves a request unservable.
        assert master.submit(make_request()).elected == "cheap"

    def test_filter_can_be_cleared(self):
        master = self._master()
        master.set_candidate_filter({"hungry"})
        master.set_candidate_filter(None)
        assert master.candidate_filter is None
        assert master.submit(make_request()).elected == "cheap"

    def test_the_installed_set_is_frozen(self):
        master = self._master()
        allowed = {"hungry"}
        master.set_candidate_filter(allowed)
        allowed.discard("hungry")
        assert master.candidate_filter == frozenset({"hungry"})
        frozen = frozenset({"cheap"})
        master.set_candidate_filter(frozen)
        assert master.candidate_filter is frozen
