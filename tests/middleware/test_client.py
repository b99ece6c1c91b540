"""Tests for the driver's request route: a task reaches the Master Agent as a request.

An arrival and a requeued task both go through
``master.submit(ServiceRequest.from_task(task, submitted_at=now))``;
these tests drive that route through :class:`MiddlewareSimulation` and
read the requests its Master Agent receives.
"""

from repro.core.policies import PowerPolicy
from repro.infrastructure.cluster import Cluster
from repro.infrastructure.node import Node
from repro.infrastructure.platform import Platform
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.hierarchy import build_hierarchy
from repro.simulation.task import Task
from tests.conftest import make_spec, recorded_requests


def recorded_simulation(monkeypatch, *names):
    """A simulation over nodes ``names`` and the list of requests its Master Agent gets."""
    platform = Platform([Cluster("test", [Node(make_spec(name=name)) for name in names])])
    master, seds = build_hierarchy(platform, scheduler=PowerPolicy())
    simulation = MiddlewareSimulation(platform, master, seds)
    return simulation, recorded_requests(monkeypatch, master)


def inject_at(simulation, time, task):
    """Submit ``task`` from inside the engine once its clock reads ``time``."""
    outcomes = []
    simulation.engine.schedule(time, lambda: outcomes.append(simulation.inject_task(task)))
    simulation.engine.run(until=time)
    return outcomes[0]


class TestRequestConstruction:
    def test_request_inherits_task_preference(self, monkeypatch):
        simulation, requests = recorded_simulation(monkeypatch, "n-0")
        simulation.inject_task(Task(user_preference=0.7))
        assert requests[0].user_preference == 0.7

    def test_a_zero_task_preference_stays_zero(self, monkeypatch):
        simulation, requests = recorded_simulation(monkeypatch, "n-0")
        simulation.inject_task(Task(user_preference=0.0))
        assert requests[0].user_preference == 0.0

    def test_submission_time_defaults_to_arrival(self, monkeypatch):
        simulation, requests = recorded_simulation(monkeypatch, "n-0")
        simulation.submit_workload([Task(arrival_time=12.0)])
        simulation.run()
        assert requests[0].submitted_at == 12.0

    def test_explicit_submission_time_wins(self, monkeypatch):
        simulation, requests = recorded_simulation(monkeypatch, "n-0")
        inject_at(simulation, 3.0, Task(arrival_time=12.0, user_preference=0.4))
        request = requests[0]
        assert (request.user_preference, request.submitted_at) == (0.4, 3.0)

    def test_a_requeued_task_is_submitted_again_at_the_failure_time(self, monkeypatch):
        simulation, requests = recorded_simulation(monkeypatch, "n-0", "n-1")
        task = Task(flop=1.0e12, user_preference=0.4)
        elected = simulation.inject_task(task).elected
        simulation.engine.schedule(5.0, lambda: simulation.fail_node(elected))
        simulation.engine.run(until=5.0)
        assert [(r.task, r.user_preference, r.submitted_at) for r in requests] == [
            (task, 0.4, 0.0),
            (task, 0.4, 5.0),
        ]


class TestSubmission:
    def test_submit_elects_a_server(self, monkeypatch):
        simulation, _ = recorded_simulation(monkeypatch, "n-0")
        outcome = inject_at(simulation, 3.0, Task(user_preference=0.4))
        assert outcome.succeeded
        assert outcome.elected == "n-0"

    def test_an_unsolvable_request_is_rejected(self, monkeypatch):
        simulation, requests = recorded_simulation(monkeypatch, "n-0")
        outcome = simulation.inject_task(Task(service="unsupported"))
        assert not outcome.succeeded
        assert outcome.elected is None
        assert simulation.rejected_tasks == 1 and len(requests) == 1
