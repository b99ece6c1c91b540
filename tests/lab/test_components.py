"""Unit tests for the typed lab components."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.provisioning import ProvisioningConfig
from repro.lab.components import (
    LabError,
    PlatformSource,
    PolicySource,
    ProvisioningSource,
    WorkloadSource,
    resolve_timeline,
    server_type_specs,
)
from repro.scenario.events import EventTimeline
from repro.workload.generator import BurstThenContinuousWorkload
from tests.conftest import steady_workload

DATA = Path(__file__).parent.parent / "data"


class TestPlatformSource:
    def test_table1_builds_the_grid5000_platform(self):
        platform = PlatformSource.table1(2).build_platform()
        assert len(platform) == 6  # 3 clusters x 2 nodes

    def test_server_types_lists_specs(self):
        specs = PlatformSource.server_types(4).server_specs()
        assert [spec.cluster for spec in specs] == ["orion", "taurus", "sim1", "sim2"]

    def test_kind_mismatch_is_an_error(self):
        with pytest.raises(LabError):
            PlatformSource.table1(1).server_specs()
        with pytest.raises(LabError):
            PlatformSource.server_types(2).build_platform()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(LabError):
            PlatformSource(kind="nope")
        with pytest.raises(LabError):
            PlatformSource.table1(0)
        with pytest.raises(LabError):
            server_type_specs(5)


class TestWorkloadSource:
    def test_generator_instance_resolves(self):
        source = WorkloadSource.from_generator(steady_workload(3))
        assert len(source.resolve_tasks()) == 3

    def test_generator_factory_receives_core_count(self):
        captured = {}

        def factory(total_cores: int) -> BurstThenContinuousWorkload:
            captured["cores"] = total_cores
            return steady_workload(2)

        source = WorkloadSource.from_generator(factory)
        assert len(source.resolve_tasks(24)) == 2
        assert captured["cores"] == 24

    def test_trace_source_loads_swf_directly(self):
        source = WorkloadSource.from_trace(DATA / "mini.swf")
        tasks = source.resolve_tasks()
        assert len(tasks) > 0
        assert all(task.flop > 0 for task in tasks)

    def test_capacity_has_no_task_stream(self):
        with pytest.raises(LabError):
            WorkloadSource.capacity().resolve_tasks()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(LabError):
            WorkloadSource(kind="nope")
        with pytest.raises(LabError):
            WorkloadSource(kind="generator")
        with pytest.raises(LabError):
            WorkloadSource(kind="trace")
        with pytest.raises(LabError):
            WorkloadSource.point_load(clients=0)


class TestPolicySource:
    def test_seed_reaches_random(self):
        a = PolicySource("RANDOM", seed=1).build()
        b = PolicySource("RANDOM", seed=1).build()
        assert a.name == "RANDOM"
        assert type(a) is type(b)

    def test_preference_reaches_green_score(self):
        policy = PolicySource("GREEN_SCORE", preference=-0.5).build()
        assert policy.name == "GREEN_SCORE"

    def test_name_is_normalised(self):
        assert PolicySource(" power ").name == "POWER"

    def test_empty_name_rejected(self):
        with pytest.raises(LabError):
            PolicySource("  ")


class TestProvisioningSource:
    def test_is_the_planner_config(self):
        source = ProvisioningSource(check_period=120.0, lookahead=240.0)
        assert isinstance(source, ProvisioningConfig)
        assert (source.check_period, source.lookahead) == (120.0, 240.0)
        assert source.manage_power

    def test_checks_its_cadence_on_construction(self):
        with pytest.raises(ValueError, match="check_period must be > 0"):
            ProvisioningSource(check_period=-1.0)


class TestResolveTimeline:
    def test_passthrough_and_none(self):
        timeline = EventTimeline()
        assert resolve_timeline(timeline) is timeline
        assert resolve_timeline(None) is None

    def test_path_is_loaded(self):
        timeline = resolve_timeline(DATA / "failures.toml")
        assert len(timeline) == 6
