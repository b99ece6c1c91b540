"""Spec resolution: each family's override names, and checks that precede any run."""

from __future__ import annotations

import math

import pytest

from repro.lab import LabSession, PlatformSource, ProvisioningSource, WorkloadSource
from repro.lab.compat import session_for_spec
from repro.runner.spec import ScenarioSpec
from repro.simulation.task import Task
from repro.workload.traces import save_trace

MINI_SWF = "tests/data/mini.swf"
FAILURES = "tests/data/failures.toml"

#: One runnable spec per family, at smoke-test scale.
BASES = {
    "placement": ScenarioSpec(platform="quick", workload="quick"),
    "queue": ScenarioSpec(experiment="queue", platform="quick", workload="quick", policy="FCFS"),
    "adaptive": ScenarioSpec(
        experiment="adaptive", platform="quick", workload="quick", policy="GREENPERF"
    ),
    "heterogeneity": ScenarioSpec(experiment="heterogeneity", platform="types2", workload="tiny"),
}

_PLACEMENT = {
    "burst_size": 2,
    "continuous_rate": 1.5,
    "nodes_per_cluster": 1,
    "requests_per_core": 2,
    "sample_period": 2.0,
    "task_flop": 1.0e10,
}

#: Every override name each family accepts, with a valid value.
ACCEPTED = {
    "placement": _PLACEMENT,
    "queue": {**_PLACEMENT, "queue_cores": 8},
    "adaptive": {
        "base_temperature": 20.0,
        "check_period": 300.0,
        "client_tick": 30.0,
        "duration": 1800.0,
        "lookahead": 600.0,
        "manage_power": False,
        "nodes_per_cluster": 1,
        "ramp_down_step": 3,
        "ramp_up_step": 1,
        "requeue_on_failure": False,
        "sample_period": 10.0,
        "task_flop": 2.0e11,
    },
    "heterogeneity": {
        "clients": 3,
        "servers_per_type": 1,
        "task_flop": 1.0e10,
        "tasks_per_client": 4,
    },
}


@pytest.mark.parametrize("family", sorted(BASES))
def test_the_error_lists_exactly_the_family_override_names(family):
    with pytest.raises(ValueError) as raised:
        session_for_spec(BASES[family].replace(overrides={"nope": 1}))
    assert str(raised.value) == (
        f"unknown {family} parameter(s) ['nope']; "
        f"valid overrides: {sorted(ACCEPTED[family])}"
    )


@pytest.mark.parametrize(
    "family, name", [(family, name) for family in sorted(ACCEPTED) for name in ACCEPTED[family]]
)
def test_every_override_name_resolves(family, name):
    overrides = {name: ACCEPTED[family][name]}
    session = session_for_spec(BASES[family].replace(overrides=overrides))
    assert session.backend in ("middleware", "queue", "point")


@pytest.mark.parametrize(
    "family, override",
    [
        ("placement", {"trace_path": MINI_SWF}),
        ("queue", {"trace_path": MINI_SWF}),
        ("adaptive", {"trace_path": MINI_SWF}),
        ("adaptive", {"timeline": FAILURES}),
    ],
)
def test_files_enter_only_through_the_hashed_spec_fields(family, override):
    """A file named by an override would never reach the content hash."""
    with pytest.raises(ValueError, match=f"unknown {family} parameter"):
        session_for_spec(BASES[family].replace(overrides=override))


def test_a_trace_is_read_when_the_session_runs(tmp_path):
    path = tmp_path / "trace.csv"
    save_trace(path, [Task(flop=1e9, arrival_time=float(i)) for i in range(3)])
    session = session_for_spec(BASES["placement"].replace(workload="trace", trace=str(path)))
    save_trace(path, [Task(flop=1e9, arrival_time=float(i)) for i in range(5)])
    assert session.run().completed_tasks == 5


def _explode(self):
    raise AssertionError("an event ran before validation failed")


def provisioned(**changes) -> LabSession:
    params = dict(
        platform=PlatformSource.table1(1),
        workload=WorkloadSource.capacity(),
        provisioning=ProvisioningSource(),
        horizon=600.0,
    )
    params.update(changes)
    return LabSession(**params)


class TestValidationPrecedesTheRun:
    @pytest.mark.parametrize(
        "cadence, message",
        [
            ({"check_period": 0.0}, "check_period must be > 0"),
            ({"check_period": -1.0}, "check_period must be > 0"),
            ({"lookahead": -1.0}, "lookahead must be >= 0"),
            ({"ramp_up_step": 0}, "ramp_up_step must be >= 1"),
            ({"ramp_down_step": 0}, "ramp_down_step must be >= 1"),
        ],
    )
    def test_a_bad_cadence(self, monkeypatch, cadence, message):
        monkeypatch.setattr(LabSession, "_run_middleware", _explode)
        with pytest.raises(ValueError, match=message):
            provisioned(provisioning=ProvisioningSource(**cadence)).validate()

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_a_non_finite_base_temperature(self, monkeypatch, temperature):
        monkeypatch.setattr(LabSession, "_run_middleware", _explode)
        session = provisioned(base_temperature=temperature)
        with pytest.raises(ValueError, match="base_temperature must be finite"):
            session.validate()
        with pytest.raises(ValueError, match="base_temperature must be finite"):
            session.run()

    def test_an_adaptive_ramp_step_override(self, monkeypatch):
        monkeypatch.setattr(LabSession, "_run_middleware", _explode)
        spec = BASES["adaptive"].replace(overrides={"ramp_up_step": 0})
        with pytest.raises(ValueError, match="ramp_up_step must be >= 1, got 0"):
            session_for_spec(spec)
