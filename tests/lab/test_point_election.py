"""The point backend elects exactly what the policy's ``sort`` ranks first.

:meth:`~repro.lab.session.LabSession._run_point_study` never sorts fresh
estimation vectors: it elects through the policy's ``rank_key`` order, its
``rank`` rows, or ``sort`` over entries built once per server.  This
property test watches every election of hypothesis-generated point studies
and checks it against the definition — ``scheduler.sort`` over the free
servers' current estimation vectors, head of the list — for every built-in
policy and the four queue adapters.  Every server of a type shares one
spec and each type has at least 11 servers, so equal keys are common and
the name tie-break (``orion-10`` before ``orion-2``) decides elections.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

import repro.lab.session as session_module
from repro.lab.components import PlatformSource, PolicySource, WorkloadSource
from repro.lab.session import LabSession
from repro.middleware.plugin_scheduler import CandidateEntry
from repro.middleware.requests import ServiceRequest
from repro.scenario.events import EventTimeline, NodeFailure, NodeRecovery

POLICIES = (
    "POWER", "PERFORMANCE", "GREENPERF", "RANDOM", "GREEN_SCORE",
    "FCFS", "EASY", "CONSERVATIVE", "DRF",
)
CLUSTERS = ("orion", "taurus", "sim1", "sim2")


@st.composite
def outages(draw, kinds: int, servers_per_type: int):
    """Failure windows on a few servers (each repaired, so the run ends)."""
    events = []
    nodes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(CLUSTERS[:kinds]),
                st.integers(0, servers_per_type - 1),
            ),
            max_size=4,
            unique=True,
        )
    )
    for cluster, index in nodes:
        start = draw(st.floats(0.0, 60.0))
        length = draw(st.floats(1.0, 60.0))
        name = f"{cluster}-{index}"
        events.append(NodeFailure(time=start, node=name))
        events.append(NodeRecovery(time=start + length, node=name))
    return EventTimeline(events) if events else None


@st.composite
def point_studies(draw):
    kinds = draw(st.integers(2, 4))
    servers_per_type = draw(st.integers(11, 13))
    policy = draw(st.sampled_from(POLICIES))
    return LabSession(
        platform=PlatformSource.server_types(kinds, servers_per_type=servers_per_type),
        workload=WorkloadSource.point_load(
            clients=draw(st.integers(1, 3 * kinds * servers_per_type)),
            tasks_per_client=draw(st.integers(1, 3)),
            task_flop=draw(st.sampled_from([2.0e10, 5.0e10, 1.3e11])),
        ),
        policy=PolicySource(
            policy,
            seed=draw(st.integers(0, 2**16)) if policy == "RANDOM" else None,
            preference=(
                draw(st.sampled_from([-0.8, 0.0, 0.5])) if policy == "GREEN_SCORE" else None
            ),
            family="plugin",
        ),
        timeline=draw(outages(kinds, servers_per_type)),
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(session=point_studies())
def test_each_election_is_the_head_of_sort(monkeypatch, session):
    reference = session.policy.build()
    built = []
    build = PolicySource.build

    def build_and_keep(source):
        built.append(build(source))
        return built[-1]

    windows = session_module._availability_windows(session.timeline)
    fleet: list = []
    requests: list[ServiceRequest] = []
    elections = []

    class RecordingServer(session_module._SimServer):
        """Checks each election when the elected server is marked busy."""

        @property
        def busy_until(self) -> float:
            return self._busy_until

        @busy_until.setter
        def busy_until(self, value: float) -> None:
            if not hasattr(self, "_busy_until"):
                fleet.append(self)
            else:
                request = requests[-1]
                now = request.task.arrival_time
                free = [
                    server
                    for server in fleet
                    if server.busy_until <= now
                    and session_module._next_available(windows.get(server.name, ()), now)
                    == now
                ]
                ranked = reference.sort(
                    request,
                    [CandidateEntry.from_vector(server.estimation(now)) for server in free],
                )
                elections.append((ranked[0].server, self.name))
            self._busy_until = value

    class RecordingRequest(ServiceRequest):
        @classmethod
        def from_task(cls, task):
            requests.append(ServiceRequest.from_task(task))
            return requests[-1]

    with monkeypatch.context() as patch:
        patch.setattr(PolicySource, "build", build_and_keep)
        patch.setattr(session_module, "_SimServer", RecordingServer)
        patch.setattr(session_module, "ServiceRequest", RecordingRequest)
        result = session.run()

    expected, elected = zip(*elections)
    assert elected == expected
    assert len(elections) == result.completed_tasks
    if session.policy.name == "RANDOM":
        (scheduler,) = built
        assert scheduler._rng.bit_generator.state == reference._rng.bit_generator.state
