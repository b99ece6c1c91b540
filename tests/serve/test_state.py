"""ServeState: virtual-clock placement and closed-loop determinism."""

import pytest

from repro.lab import LabSession, PlatformSource, PolicySource, WorkloadSource
from repro.scenario.events import EventTimeline, NodeFailure, NodeRecovery
from repro.simulation.task import Task
from repro.simulation.trace import ExecutionTrace
from repro.workload.traces import TraceWorkload
from tests.conftest import of_kind, served_state

MINI_SWF = "tests/data/mini.swf"


def closed_loop_nodes(policy: str, *, timeline=None) -> list[str]:
    """Elected node per submission of the batch run, in submission order."""
    session = LabSession(
        platform=PlatformSource.table1(1),
        workload=WorkloadSource.from_trace(MINI_SWF),
        policy=PolicySource(policy),
        timeline=timeline,
    )
    result = session.run()
    return [
        event.details["node"]
        for event in of_kind(result.simulation.trace, ExecutionTrace.TASK_SCHEDULED)
    ]


def served_nodes(policy: str, *, batch: int, timeline=None) -> list[str]:
    """The same trace through ServeState, ``batch`` tasks per scoring pass."""
    state = served_state(policy=PolicySource(policy), timeline=timeline)
    tasks = list(TraceWorkload.from_file(MINI_SWF).generate())
    nodes: list[str] = []
    for start in range(0, len(tasks), batch):
        for decision in state.place_batch(tasks[start : start + batch]):
            assert decision.accepted
            nodes.append(decision.node)
    return nodes


class TestClosedLoopDeterminism:
    """The tentpole guarantee: serving a trace = simulating it."""

    @pytest.mark.parametrize(
        "policy", ["POWER", "PERFORMANCE", "GREEN_SCORE", "GREENPERF"]
    )
    def test_placements_match_batch_run(self, policy):
        expected = closed_loop_nodes(policy)
        assert len(expected) > 0
        assert served_nodes(policy, batch=1) == expected

    @pytest.mark.parametrize("batch", [2, 7, 1000])
    def test_batch_size_does_not_change_placements(self, batch):
        # Virtual timestamps drive the clock, so how submissions are
        # chopped into micro-batches cannot change any election.
        assert served_nodes("GREENPERF", batch=batch) == closed_loop_nodes("GREENPERF")

    def test_determinism_holds_under_fault_timeline(self):
        # A mid-trace crash displaces tasks back through the Master Agent,
        # so the full election history (requeues included) lives in the
        # execution trace; serve and batch traces must agree event for event.
        timeline = EventTimeline(
            (NodeFailure(time=500.0, node="taurus-0"),
             NodeRecovery(time=4000.0, node="taurus-0"))
        )
        expected = closed_loop_nodes("GREENPERF", timeline=timeline)
        state = served_state(policy=PolicySource("GREENPERF"), timeline=timeline)
        tasks = list(TraceWorkload.from_file(MINI_SWF).generate())
        for start in range(0, len(tasks), 5):
            state.place_batch(tasks[start : start + 5])
        state.drain()
        served = [
            event.details["node"]
            for event in of_kind(state.simulation.trace, ExecutionTrace.TASK_SCHEDULED)
        ]
        assert served == expected


class TestServeState:
    def test_clock_advances_to_last_arrival(self):
        state = served_state()
        state.place_batch([Task(flop=1e9, arrival_time=3.0, client="c")])
        assert state.now == 3.0

    def test_clock_never_goes_backwards(self):
        state = served_state()
        state.place_batch([Task(flop=1e9, arrival_time=10.0, client="c")])
        decisions = state.place_batch([Task(flop=1e9, arrival_time=4.0, client="c")])
        assert decisions[0].time == 10.0  # clamped to the clock
        assert state.now == 10.0

    def test_a_later_batch_fires_due_completions(self):
        state = served_state()
        state.place_batch([Task(flop=1e6, arrival_time=0.0, client="c")])
        assert state.snapshot()["completed"] == 0
        state.place_batch([Task(flop=1e6, arrival_time=1e6, client="c")])
        assert state.snapshot()["completed"] == 1

    def test_drain_completes_everything(self):
        state = served_state()
        tasks = [Task(flop=1e9, arrival_time=float(i), client="c") for i in range(5)]
        state.place_batch(tasks)
        result = state.drain()
        assert result.metrics.task_count == 5
        assert result.total_energy > 0

    def test_rejects_unsolvable_only_when_platform_down(self):
        timeline = EventTimeline(
            tuple(
                NodeFailure(time=0.0, node=node)
                for node in ("orion-0", "taurus-0", "sagittaire-0")
            )
        )
        state = served_state(timeline=timeline, requeue_on_failure=False)
        decisions = state.place_batch([Task(flop=1e9, arrival_time=1.0, client="c")])
        assert not decisions[0].accepted
        assert decisions[0].node is None

    def test_snapshot_counters(self):
        state = served_state()
        state.place_batch([Task(flop=1e9, arrival_time=0.0, client="c")])
        snapshot = state.snapshot()
        assert snapshot["submitted"] == 1
        assert snapshot["decisions"] == 1
        assert set(snapshot["nodes"]) == {"orion-0", "taurus-0", "sagittaire-0"}

    @pytest.mark.parametrize("trace_level, label", [("full", "serve-arrival-{}"), ("off", "")])
    def test_arrivals_are_labelled_only_when_tracing(self, monkeypatch, trace_level, label):
        state = served_state(trace_level=trace_level)
        engine = state.simulation.engine
        labels = []
        schedule = engine.schedule

        def record(time, callback, **options):
            labels.append(options.get("label", ""))
            return schedule(time, callback, **options)

        monkeypatch.setattr(engine, "schedule", record)
        task = Task(flop=1e9, arrival_time=0.0, client="c")
        state.place_batch([task])
        assert labels[0] == label.format(task.task_id)

    def test_server_types_platform_refused(self):
        with pytest.raises(ValueError, match="server-types"):
            served_state(PlatformSource.server_types(2))
