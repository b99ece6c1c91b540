"""Unit tests for the LabSession assembly layer."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.lab import (
    LabError,
    LabSession,
    PlatformSource,
    PolicySource,
    ProvisioningSource,
    WorkloadSource,
)
from repro.lab.session import _availability_windows, _next_available
from repro.scenario.events import (
    EventTimeline,
    NodeFailure,
    NodeRecovery,
    TariffChange,
)
from repro.scenario.generators import exponential_failures, periodic_tariffs
from repro.simulation.trace import ExecutionTrace
from repro.workload.generator import BurstThenContinuousWorkload
from tests.conftest import steady_workload

FAILURES = str(Path(__file__).parent.parent / "data" / "failures.toml")


def _tiny_generator() -> BurstThenContinuousWorkload:
    return steady_workload(5)


class TestValidation:
    def test_capacity_workload_requires_provisioning(self):
        session = LabSession(
            platform=PlatformSource.table1(1),
            workload=WorkloadSource.capacity(),
            horizon=1800.0,
        )
        with pytest.raises(LabError, match="ProvisioningSource"):
            session.validate()

    def test_provisioning_requires_horizon(self):
        session = LabSession(
            platform=PlatformSource.table1(1),
            workload=WorkloadSource.capacity(),
            provisioning=ProvisioningSource(),
        )
        with pytest.raises(LabError, match="horizon"):
            session.validate()

    def test_point_platform_rejects_provisioning(self):
        session = LabSession(
            platform=PlatformSource.server_types(2),
            workload=WorkloadSource.point_load(),
            provisioning=ProvisioningSource(),
        )
        with pytest.raises(LabError, match="provisioning"):
            session.validate()

    def test_point_load_rejected_on_table1(self):
        session = LabSession(
            platform=PlatformSource.table1(1),
            workload=WorkloadSource.point_load(),
        )
        with pytest.raises(LabError, match="point-load"):
            session.validate()

    def test_capacity_rejected_on_server_types(self):
        session = LabSession(
            platform=PlatformSource.server_types(2),
            workload=WorkloadSource.capacity(),
        )
        with pytest.raises(LabError, match="point-load"):
            session.validate()

    def test_point_study_rejects_horizon(self):
        session = LabSession(
            platform=PlatformSource.server_types(2),
            workload=WorkloadSource.point_load(),
            horizon=100.0,
        )
        with pytest.raises(LabError, match="horizon"):
            session.validate()

    def test_validate_returns_self_for_chaining(self):
        session = LabSession(
            platform=PlatformSource.table1(1),
            workload=WorkloadSource.from_generator(_tiny_generator()),
        )
        assert session.validate() is session


class TestMiddlewareBackend:
    def test_timeline_path_is_resolved(self):
        session = LabSession(
            platform=PlatformSource.table1(1),
            workload=WorkloadSource.from_generator(_tiny_generator()),
            timeline=FAILURES,
        )
        result = session.run()
        assert result.timeline is not None
        assert len(result.timeline) == 6
        assert "failed_tasks" in result.metrics

    def test_fault_metrics_only_reported_on_timeline_runs(self):
        plain = LabSession(
            platform=PlatformSource.table1(1),
            workload=WorkloadSource.from_generator(_tiny_generator()),
        ).run()
        assert "failed_tasks" not in plain.metrics
        assert plain.backend == "middleware"
        assert plain.simulation is not None

    def test_horizon_caps_open_loop_runs(self):
        capped = LabSession(
            platform=PlatformSource.table1(1),
            workload=WorkloadSource.from_generator(steady_workload(50)),
            horizon=10.0,
        ).run()
        assert capped.completed_tasks < 50

    def test_provisioned_open_loop_reports_candidate_series(self):
        result = LabSession(
            platform=PlatformSource.table1(1),
            workload=WorkloadSource.from_generator(_tiny_generator()),
            provisioning=ProvisioningSource(check_period=60.0),
            horizon=300.0,
        ).run()
        assert result.candidate_series
        assert result.metrics["final_candidates"] >= 1.0
        assert result.planning_entries


#: The trace kinds the provisioning planner records.
PLANNER_KINDS = (
    ExecutionTrace.STATUS_CHECK,
    ExecutionTrace.CANDIDATES_CHANGED,
    ExecutionTrace.NODE_POWERED_OFF,
    ExecutionTrace.NODE_BOOT_STARTED,
    ExecutionTrace.NODE_BOOT_COMPLETED,
)


def _storm(trace_level: str):
    """A provisioned two-hour run under a crash storm and alternating tariffs."""
    horizon = 7200.0
    platform = PlatformSource.table1(4)
    names = [node.name for node in platform.build_platform().nodes]
    timeline = exponential_failures(
        names[::3], mtbf=horizon / 4, mttr=horizon / 50, horizon=horizon, seed=3
    ).extended(periodic_tariffs(period=horizon / 4, costs=(1.0, 0.5), horizon=horizon).events)
    return LabSession(
        platform=platform,
        workload=WorkloadSource.from_generator(
            BurstThenContinuousWorkload(
                total_tasks=200, burst_size=20, continuous_rate=0.05, flop_per_task=5e11
            )
        ),
        policy=PolicySource("GREENPERF"),
        provisioning=ProvisioningSource(),
        timeline=timeline,
        horizon=horizon,
        trace_level=trace_level,
    ).run()


class TestTraceLevel:
    def test_off_leaves_the_trace_empty_under_provisioning(self):
        off, full = _storm("off"), _storm("full")
        assert len(off.simulation.trace) == 0
        assert off.metrics == full.metrics
        assert off.planning_entries == full.planning_entries

    def test_full_keeps_every_planner_record(self):
        """Status checks, candidate changes and power moves, pinned bit for bit."""
        records = [
            (event.time, event.kind, sorted(event.details.items()))
            for event in _storm("full").simulation.trace
            if event.kind in PLANNER_KINDS
        ]
        assert [sum(1 for record in records if record[1] == kind) for kind in PLANNER_KINDS] == [
            13, 12, 16, 15, 15,
        ]
        assert hashlib.sha256(repr(records).encode()).hexdigest() == (
            "af3e4ca69b21f39fa452de72da2aa73ace558c558fde905659154b99ae876565"
        )


class TestPointBackend:
    def test_failure_window_moves_work_off_the_failed_server(self):
        """POWER always prefers orion; with orion-0 failed for the whole
        run, every task lands on taurus instead."""
        crash = EventTimeline([NodeFailure(time=0.0, node="orion-0")])
        result = LabSession(
            platform=PlatformSource.server_types(2, servers_per_type=1),
            workload=WorkloadSource.point_load(
                clients=1, tasks_per_client=4, task_flop=2.0e10
            ),
            policy=PolicySource("POWER"),
            timeline=crash,
        ).run()
        assert result.point.tasks_per_type == {"taurus": 4}

    def test_all_servers_failed_forever_is_an_error(self):
        crash = EventTimeline(
            [
                NodeFailure(time=0.0, node="orion-0"),
                NodeFailure(time=0.0, node="taurus-0"),
            ]
        )
        session = LabSession(
            platform=PlatformSource.server_types(2, servers_per_type=1),
            workload=WorkloadSource.point_load(clients=1, tasks_per_client=1),
            timeline=crash,
        )
        with pytest.raises(LabError, match="no recovery"):
            session.run()

    def test_tariff_events_are_inert_for_the_point_study(self):
        tariffs = EventTimeline([TariffChange(time=10.0, cost=0.5)])
        plain = LabSession(
            platform=PlatformSource.server_types(2, servers_per_type=1),
            workload=WorkloadSource.point_load(clients=2, tasks_per_client=5),
        ).run()
        with_tariff = LabSession(
            platform=PlatformSource.server_types(2, servers_per_type=1),
            workload=WorkloadSource.point_load(clients=2, tasks_per_client=5),
            timeline=tariffs,
        ).run()
        assert plain.metrics == with_tariff.metrics


class TestAvailabilityWindows:
    def test_windows_from_timeline(self):
        timeline = EventTimeline(
            [
                NodeFailure(time=60.0, node="a"),
                NodeRecovery(time=120.0, node="a"),
                NodeFailure(time=200.0, node="a"),
                NodeFailure(time=10.0, node="b"),
            ]
        )
        windows = _availability_windows(timeline)
        assert windows["a"][0] == (60.0, 120.0)
        assert windows["a"][1][0] == 200.0
        assert windows["b"][0][0] == 10.0

    def test_next_available_chains_windows(self):
        windows = ((10.0, 20.0), (20.0, 30.0))
        assert _next_available(windows, 15.0) == 30.0
        assert _next_available(windows, 5.0) == 5.0

    def test_no_timeline_means_no_windows(self):
        assert _availability_windows(None) == {}
