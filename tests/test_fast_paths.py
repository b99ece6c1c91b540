"""Error parity of the per-task fast paths with the validators they bypass.

Where a caller's value enters the per-task path, an exact-float range
check accepts the common case and sends anything else to the validator
that used to run on every call.  So every input must meet the same fate
as under the validator alone: the same exception type and message, or
acceptance of the same value.  The driver's request to the Master
Agent takes its preference from the task, so a preference must fail as
the range validator does and otherwise reach the request unchanged.  GREEN_SCORE's preference exponent checks
its input inline, and must fail exactly as the :class:`UserPreference`
value object does.  The rank keys of POWER, PERFORMANCE and
GREENPERF read the estimation values dict directly; a missing tag must
still raise :meth:`EstimationVector.get`'s ``KeyError``.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from repro.core.greenperf import PowerEstimationMode, greenperf_of_vector
from repro.core.preferences import PRACTICAL_USER_BOUND, UserPreference
from repro.core.scoring import preference_exponent
from repro.core.policies import GreenPerfPolicy, PerformancePolicy, PowerPolicy, policy_by_name
from repro.infrastructure.cluster import Cluster
from repro.infrastructure.node import Node
from repro.infrastructure.platform import Platform, orion_spec, sagittaire_spec, taurus_spec
from repro.middleware.driver import MiddlewareSimulation
from repro.middleware.estimation import EstimationTags, EstimationVector
from repro.middleware.hierarchy import build_hierarchy
from repro.middleware.plugin_scheduler import CandidateEntry
from repro.middleware.sed import ServerDaemon
from repro.simulation.task import Task
from repro.util import validation
from repro.util.validation import ensure_in_range, ensure_non_negative, ensure_positive
from tests.conftest import make_spec, recorded_requests

#: Well-formed and hostile inputs: every fast path must treat each one as
#: its validator does.
INPUTS = [
    0.5, 0.0, -0.0, 1.0, 1.5, -1.5, -5e-324, 3, 0, True, False,
    np.float64(0.25), np.float64(-2.0), math.nan, math.inf, -math.inf, "0.5",
]


def _fate(call):
    """``("ok",)`` or the exception's type and arguments."""
    try:
        call()
    except (TypeError, ValueError, KeyError) as exc:
        return type(exc), exc.args
    return ("ok",)


@pytest.mark.parametrize("value", INPUTS, ids=repr)
class TestSameFateAsTheValidator:
    def test_client_preference(self, value, monkeypatch):
        platform = Platform([Cluster("test", [Node(make_spec())])])
        simulation = MiddlewareSimulation(platform, *build_hierarchy(platform))
        requests = recorded_requests(monkeypatch, simulation.master)
        fate = _fate(lambda: simulation.inject_task(Task(user_preference=value)))
        assert fate == _fate(lambda: ensure_in_range(value, "user_preference", -1.0, 1.0))
        if fate == ("ok",):
            assert requests[0].user_preference is value
        else:  # rejected before a request was sent
            assert requests == []

    def test_release_core_busy_seconds(self, value):
        node = Node(make_spec(cores=2))
        node.acquire_core()
        fate = _fate(lambda: node.release_core(busy_seconds=value))
        assert fate == _fate(lambda: ensure_non_negative(value, "busy_seconds"))
        if fate == ("ok",):
            assert node.busy_cores == 0 and node.total_busy_core_seconds == value
        else:  # rejected before any state moved
            assert node.busy_cores == 1 and node.completed_tasks == 0

    def test_request_power_observation(self, value):
        sed = ServerDaemon(Node(make_spec()))
        fate = _fate(lambda: sed.record_request_power(value))
        assert fate == _fate(lambda: ensure_non_negative(value, "mean_power"))
        if fate == ("ok",):
            assert sed.observed_request_count == 1 and sed.dynamic_mean_power() == value
        else:  # rejected before the average moved
            assert sed.observed_request_count == 0

    def test_preference_exponent(self, value):
        fate = _fate(lambda: preference_exponent(value))
        assert fate == _fate(lambda: UserPreference(value))
        if fate == ("ok",):
            clamped = max(-PRACTICAL_USER_BOUND, min(PRACTICAL_USER_BOUND, float(value)))
            assert preference_exponent(value) == 2.0 / (clamped + 1.0) - 1.0

    def test_duration_on_flops_per_core(self, value):
        task = Task(flop=3.0e9)
        fate = _fate(lambda: task.duration_on(value))
        assert fate == _fate(lambda: ensure_positive(value, "flops_per_core"))
        if fate == ("ok",):
            assert task.duration_on(value) == 3.0e9 / value

    @pytest.mark.parametrize("tag", [EstimationTags.MEAN_POWER, EstimationTags.TOTAL_FLOPS])
    def test_greenperf_term(self, value, tag):
        """A value put into the dict behind the constructor's back still gets checked."""
        vector = EstimationVector(
            "n-0", "c", {EstimationTags.MEAN_POWER: 200.0, EstimationTags.TOTAL_FLOPS: 4.0e9}
        )
        vector.values[tag] = value
        name = "power" if tag == EstimationTags.MEAN_POWER else "performance"
        fate = _fate(lambda: greenperf_of_vector(vector))
        assert fate == _fate(lambda: ensure_positive(value, name))


def _entry(**values: float) -> CandidateEntry:
    return CandidateEntry.from_vector(EstimationVector("n-0", "c", values))


class TestMissingTags:
    """Each key raises the vector's own ``KeyError``, text included."""

    @pytest.mark.parametrize(
        "key, tag",
        [
            (PowerPolicy().rank_key, EstimationTags.MEAN_POWER),
            (PerformancePolicy().rank_key, EstimationTags.FLOPS_PER_CORE),
            (GreenPerfPolicy().rank_key, EstimationTags.MEAN_POWER),
            (
                GreenPerfPolicy(mode=PowerEstimationMode.STATIC).rank_key,
                EstimationTags.PEAK_POWER,
            ),
        ],
        ids=["power", "performance", "greenperf", "greenperf-static"],
    )
    def test_a_missing_tag(self, key, tag):
        entry = _entry(free_cores=1.0)
        with pytest.raises(KeyError) as expected:
            entry.estimation.get(tag)
        with pytest.raises(KeyError) as raised:
            key(entry)
        assert raised.value.args == expected.value.args

    def test_greenperf_reads_power_before_performance(self):
        entry = _entry(mean_power=-3.0)
        with pytest.raises(ValueError, match="power must be > 0, got -3.0"):
            GreenPerfPolicy().rank_key(entry)
        with pytest.raises(KeyError, match="total_flops"):
            GreenPerfPolicy().rank_key(_entry(mean_power=3.0))

    def test_keys_are_unchanged_for_well_formed_vectors(self):
        entry = _entry(
            free_cores=0.0, mean_power=150.0, peak_power=200.0, waiting_time=12.5,
            flops_per_core=2.0e9, total_flops=8.0e9,
        )
        assert PowerPolicy().rank_key(entry) == (1, 150.0, 12.5, "n-0")
        assert PerformancePolicy().rank_key(entry) == (1, -2.0e9, 12.5, "n-0")
        assert GreenPerfPolicy().rank_key(entry) == (1, 150.0 / 8.0e9, 12.5, "n-0")


class TestNoValidatorOnThePerTaskPath:
    """A guard against re-checking, per task, values checked where they entered."""

    def test_a_power_run_calls_no_validator(self):
        makers = (orion_spec, taurus_spec, sagittaire_spec)
        clusters: dict[str, list[Node]] = {}
        for index in range(30):
            spec = makers[index % 3](index // 3)
            clusters.setdefault(spec.cluster, []).append(Node(spec))
        platform = Platform([Cluster(name, nodes) for name, nodes in clusters.items()])
        master, seds = build_hierarchy(platform, scheduler=policy_by_name("POWER"))
        simulation = MiddlewareSimulation(platform, master, seds, trace_level="off")
        rng = np.random.default_rng(7)
        arrivals = np.cumsum(rng.exponential(60.0, 600))
        flops = 1.38e12 * rng.lognormal(0.0, 0.3, 600)
        simulation.submit_workload(
            [Task(flop=float(f), arrival_time=float(a)) for a, f in zip(arrivals, flops)]
        )
        validation_file = validation.__file__
        checked: list[str] = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == validation_file:
                checked.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            result = simulation.run()
        finally:
            sys.setprofile(None)
        assert result.metrics.task_count == 600
        assert checked == []
