"""Tests for estimation vectors."""

import math

import numpy as np
import pytest

from repro.infrastructure.node import Node
from repro.middleware.estimation import EstimationTags, EstimationVector
from repro.middleware.requests import ServiceRequest
from repro.middleware.sed import ServerDaemon, default_estimation_function
from repro.simulation.task import Task
from tests.conftest import make_spec, make_vector


class TestEstimationVector:
    def test_set_and_get(self):
        vector = EstimationVector(server="n-0", cluster="c")
        vector.set(EstimationTags.MEAN_POWER, 150.0)
        assert vector.get(EstimationTags.MEAN_POWER) == 150.0
        assert EstimationTags.MEAN_POWER in vector

    def test_get_missing_without_default_raises(self):
        vector = EstimationVector(server="n-0", cluster="c")
        with pytest.raises(KeyError):
            vector.get("missing")

    def test_get_missing_with_default(self):
        vector = EstimationVector(server="n-0", cluster="c")
        assert vector.get("missing", 7.0) == 7.0

    def test_rejects_empty_server(self):
        with pytest.raises(ValueError):
            EstimationVector(server="", cluster="c")

    def test_rejects_non_finite_values(self):
        vector = EstimationVector(server="n-0", cluster="c")
        with pytest.raises(ValueError):
            vector.set("x", math.nan)
        with pytest.raises(ValueError):
            vector.set("x", math.inf)

    def test_rejects_empty_tag(self):
        vector = EstimationVector(server="n-0", cluster="c")
        with pytest.raises(ValueError):
            vector.set("", 1.0)

    def test_constructor_validates_initial_values(self):
        with pytest.raises(ValueError):
            EstimationVector(server="n-0", cluster="c", values={"x": math.inf})

    def test_as_dict_returns_copy(self):
        vector = make_vector()
        snapshot = vector.as_dict()
        vector.set("extra", 1.0)
        assert "extra" not in snapshot

    def test_iteration_over_tags(self):
        vector = make_vector()
        assert EstimationTags.MEAN_POWER in set(vector)


class TestStoredValues:
    """A vector built from a dict stores exactly what ``set()`` stores."""

    RAW = {"x": 1, "y": np.float64(2.5), "z": True}

    def test_dict_built_vector_matches_tag_by_tag_vector(self):
        built = EstimationVector("a", "b", dict(self.RAW))
        tagged = EstimationVector("a", "b")
        for tag, value in self.RAW.items():
            tagged.set(tag, value)
        assert list(built.values.items()) == list(tagged.values.items())
        for vector in (built, tagged):
            assert [type(value) for value in vector.values.values()] == [float] * 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("inf")])
    def test_non_finite_value_raises_in_both(self, bad):
        with pytest.raises(ValueError, match="'y'"):
            EstimationVector("a", "b", {"x": 1.0, "y": bad})
        with pytest.raises(ValueError, match="'y'"):
            EstimationVector("a", "b").set("y", bad)

    def test_empty_tag_raises_in_both(self):
        with pytest.raises(ValueError, match="non-empty"):
            EstimationVector("a", "b", {"": 1.0})
        with pytest.raises(ValueError, match="non-empty"):
            EstimationVector("a", "b").set("", 1.0)

    def test_default_estimation_function_matches_tag_by_tag_build(self):
        """The one-dict default vector equals the same tags set one by one."""
        sed = ServerDaemon(Node(make_spec(cores=3)))
        sed.node.acquire_core()
        sed.queue.enqueue(Task(flop=4.0e9))
        sed.record_request_power(140.0)
        vector = default_estimation_function(sed, ServiceRequest.from_task(Task()))
        node, spec = sed.node, sed.node.spec
        expected = EstimationVector(server=sed.name, cluster=sed.cluster)
        for tag, value in (
            (EstimationTags.FLOPS_PER_CORE, spec.flops_per_core),
            (EstimationTags.TOTAL_FLOPS, spec.total_flops),
            (EstimationTags.FREE_CORES, node.free_cores),
            (EstimationTags.TOTAL_CORES, spec.cores),
            (EstimationTags.WAITING_TIME, sed.queue.waiting_time_estimate()),
            (EstimationTags.COMPLETED_TASKS, node.completed_tasks),
            (EstimationTags.MEAN_POWER, sed.dynamic_mean_power()),
            (EstimationTags.IDLE_POWER, spec.idle_power),
            (EstimationTags.PEAK_POWER, spec.peak_power),
            (EstimationTags.BOOT_POWER, spec.boot_power),
            (EstimationTags.BOOT_TIME, spec.boot_time),
            (EstimationTags.NODE_AVAILABLE, 1.0),
        ):
            expected.set(tag, value)
        assert (vector.server, vector.cluster) == (expected.server, expected.cluster)
        assert list(vector.values.items()) == list(expected.values.items())
        assert all(type(value) is float for value in vector.values.values())


class TestRequiredTags:
    def test_complete_vector_validates(self):
        make_vector().validate_required()

    def test_missing_tag_detected(self):
        vector = make_vector()
        del vector.values[EstimationTags.MEAN_POWER]
        with pytest.raises(ValueError, match="mean_power"):
            vector.validate_required()

    def test_required_list_contains_power_and_performance(self):
        assert EstimationTags.MEAN_POWER in EstimationTags.REQUIRED
        assert EstimationTags.FLOPS_PER_CORE in EstimationTags.REQUIRED


class TestConvenienceAccessors:
    def test_accessors_read_tags(self):
        vector = make_vector(
            flops_per_core=3.0e9, mean_power=120.0, peak_power=240.0,
            waiting_time=4.0, free_cores=2,
        )
        assert vector.flops_per_core == 3.0e9
        assert vector.peak_power == 240.0
        assert vector.free_cores == 2

    def test_available_flag(self):
        assert make_vector(available=True).available
        assert not make_vector(available=False).available

    def test_available_defaults_false_when_missing(self):
        vector = EstimationVector(server="n-0", cluster="c")
        assert not vector.available
