"""Tests for the plug-in scheduler interface."""

from repro.middleware.plugin_scheduler import CandidateEntry, FirstComeFirstServedScheduler
from repro.middleware.requests import ServiceRequest
from repro.simulation.task import Task
from tests.conftest import make_vector


def make_request():
    return ServiceRequest.from_task(Task())


def entries(*names):
    return [CandidateEntry.from_vector(make_vector(server=name)) for name in names]


class TestCandidateEntry:
    def test_from_vector_copies_server_name(self):
        vector = make_vector(server="n-7")
        entry = CandidateEntry.from_vector(vector)
        assert entry.server == "n-7"
        assert entry.estimation is vector


class TestFirstComeFirstServed:
    def test_sort_preserves_order(self):
        scheduler = FirstComeFirstServedScheduler()
        candidates = entries("a", "b", "c")
        assert scheduler.sort(make_request(), candidates) == candidates

    def test_sort_returns_new_list(self):
        scheduler = FirstComeFirstServedScheduler()
        candidates = entries("a", "b")
        result = scheduler.sort(make_request(), candidates)
        assert result is not candidates
