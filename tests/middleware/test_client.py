"""Tests for the client API."""

import pytest

from repro.middleware.client import Client
from repro.middleware.sed import ServerDaemon
from repro.infrastructure.node import Node
from repro.simulation.task import Task
from tests.conftest import flat_hierarchy, make_spec


def make_master(*names):
    seds = [ServerDaemon(Node(make_spec(name=name))) for name in names]
    return flat_hierarchy(seds)


class TestRequestConstruction:
    def test_request_inherits_task_preference(self):
        client = Client(make_master("n-0"))
        request = client.make_request(Task(user_preference=0.7))
        assert request.user_preference == 0.7

    def test_zero_task_preference_falls_back_to_client_default(self):
        client = Client(make_master("n-0"), default_preference=-0.5)
        request = client.make_request(Task(user_preference=0.0))
        assert request.user_preference == -0.5

    def test_explicit_override_wins(self):
        client = Client(make_master("n-0"), default_preference=-0.5)
        request = client.make_request(Task(user_preference=0.3), user_preference=0.9)
        assert request.user_preference == 0.9

    def test_submission_time_defaults_to_arrival(self):
        client = Client(make_master("n-0"))
        request = client.make_request(Task(arrival_time=12.0))
        assert request.submitted_at == 12.0

    def test_out_of_range_override_rejected(self):
        client = Client(make_master("n-0"))
        with pytest.raises(ValueError):
            client.make_request(Task(), user_preference=2.0)

    def test_invalid_default_preference_rejected(self):
        with pytest.raises(ValueError):
            Client(make_master("n-0"), default_preference=1.5)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Client(make_master("n-0"), name="")


class TestSubmission:
    def test_submit_elects_a_server(self):
        client = Client(make_master("n-0"))
        outcome = client.submit(Task(user_preference=0.4), submitted_at=3.0)
        assert outcome.succeeded
        assert outcome.elected == "n-0"
        request = client.make_request(Task(user_preference=0.4), submitted_at=3.0)
        assert (request.user_preference, request.submitted_at) == (0.4, 3.0)

    def test_an_unsolvable_request_is_rejected(self):
        client = Client(make_master("n-0"))
        outcome = client.submit(Task(service="unsupported"))
        assert not outcome.succeeded
        assert outcome.elected is None
