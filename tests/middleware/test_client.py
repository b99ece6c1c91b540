"""Tests for the client API."""

from repro.middleware.client import Client
from repro.middleware.sed import ServerDaemon
from repro.infrastructure.node import Node
from repro.simulation.task import Task
from tests.conftest import flat_hierarchy, make_spec


def make_master(*names):
    seds = [ServerDaemon(Node(make_spec(name=name))) for name in names]
    return flat_hierarchy(seds)


class _RecordingMaster:
    """Stands in for a Master Agent and keeps every request it is sent."""

    def __init__(self):
        self.requests = []

    def submit(self, request):
        self.requests.append(request)
        return None


class TestRequestConstruction:
    def test_request_inherits_task_preference(self):
        master = _RecordingMaster()
        Client(master).submit(Task(user_preference=0.7))
        assert master.requests[0].user_preference == 0.7

    def test_a_zero_task_preference_stays_zero(self):
        master = _RecordingMaster()
        Client(master).submit(Task(user_preference=0.0))
        assert master.requests[0].user_preference == 0.0

    def test_submission_time_defaults_to_arrival(self):
        master = _RecordingMaster()
        Client(master).submit(Task(arrival_time=12.0))
        assert master.requests[0].submitted_at == 12.0

    def test_explicit_submission_time_wins(self):
        master = _RecordingMaster()
        Client(master).submit(Task(arrival_time=12.0, user_preference=0.4), submitted_at=3.0)
        request = master.requests[0]
        assert (request.user_preference, request.submitted_at) == (0.4, 3.0)


class TestSubmission:
    def test_submit_elects_a_server(self):
        client = Client(make_master("n-0"))
        outcome = client.submit(Task(user_preference=0.4), submitted_at=3.0)
        assert outcome.succeeded
        assert outcome.elected == "n-0"

    def test_an_unsolvable_request_is_rejected(self):
        client = Client(make_master("n-0"))
        outcome = client.submit(Task(service="unsupported"))
        assert not outcome.succeeded
        assert outcome.elected is None
