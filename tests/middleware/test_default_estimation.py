"""The default estimation function against the implementation it replaced.

``default_estimation_function`` checks the seven spec tags once per SeD
(its vector template) and only the five state tags per build.  These tests
keep the previous implementation — every tag through the checking
``EstimationVector`` constructor — as the oracle, and compare tags, tag
order and float values across every Table I / Table III node type and
every node state, and the error a non-finite state value raises.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.infrastructure.node import Node
from repro.infrastructure.platform import (
    orion_spec,
    sagittaire_spec,
    simulated_cluster_specs,
    taurus_spec,
)
from repro.middleware.estimation import EstimationTags, EstimationVector
from repro.middleware.requests import ServiceRequest
from repro.middleware.sed import ServerDaemon, default_estimation_function
from repro.simulation.task import Task

SPECS = {
    "orion": orion_spec,
    "taurus": taurus_spec,
    "sagittaire": sagittaire_spec,
    "sim1": lambda: simulated_cluster_specs()["sim1"],
    "sim2": lambda: simulated_cluster_specs()["sim2"],
}


def _oracle(sed: ServerDaemon) -> EstimationVector:
    """The previous default estimation function, verbatim."""
    node = sed.node
    spec = node.spec
    return EstimationVector(
        spec.name,
        spec.cluster,
        {
            EstimationTags.FLOPS_PER_CORE: spec.flops_per_core,
            EstimationTags.TOTAL_FLOPS: spec.total_flops,
            EstimationTags.FREE_CORES: node.free_cores,
            EstimationTags.TOTAL_CORES: spec.cores,
            EstimationTags.WAITING_TIME: sed.queue.waiting_time_estimate(),
            EstimationTags.COMPLETED_TASKS: node.completed_tasks,
            EstimationTags.MEAN_POWER: sed.dynamic_mean_power(),
            EstimationTags.IDLE_POWER: spec.idle_power,
            EstimationTags.PEAK_POWER: spec.peak_power,
            EstimationTags.BOOT_POWER: spec.boot_power,
            EstimationTags.BOOT_TIME: spec.boot_time,
            EstimationTags.NODE_AVAILABLE: 1.0 if node.is_available else 0.0,
        },
    )


def _busy(sed: ServerDaemon) -> None:
    """One running task, two queued, one completed (fits a two-core node)."""
    task = Task(flop=3.0e9)
    sed.node.acquire_core()
    sed.queue.mark_running(task)
    done = Task(flop=1.0e9)
    sed.node.acquire_core()
    sed.queue.mark_running(done)
    sed.queue.mark_completed(done)
    sed.node.release_core(busy_seconds=0.5)
    for flop in (7.0e9, 1.1e10):
        sed.queue.enqueue(Task(flop=flop))


def _full(sed: ServerDaemon) -> None:
    """Every core busy, work queued behind them."""
    for _ in range(sed.node.spec.cores):
        task = Task(flop=2.0e9)
        sed.node.acquire_core()
        sed.queue.mark_running(task)
    sed.queue.enqueue(Task(flop=4.0e9))


STATES = {
    "on": lambda sed: None,
    "off": lambda sed: sed.node.power_off(),
    "booting": lambda sed: (sed.node.power_off(), sed.node.begin_boot(0.0)),
    "failed": lambda sed: sed.node.fail(),
    "busy": _busy,
    "full": _full,
    "observed": lambda sed: (
        sed.record_request_power(123.25),
        sed.record_request_power(98.5),
    ),
    "busy_then_observed": lambda sed: (_busy(sed), sed.record_request_power(150.0)),
}


def _values(vector: EstimationVector) -> list[tuple[str, float, type]]:
    return [(tag, value, type(value)) for tag, value in vector.values.items()]


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("state", sorted(STATES))
def test_same_tags_order_and_values_as_the_oracle(kind, state):
    sed = ServerDaemon(Node(SPECS[kind]()))
    request = ServiceRequest.from_task(Task())
    first = default_estimation_function(sed, request)  # builds the template
    assert _values(first) == _values(_oracle(sed))
    STATES[state](sed)
    expected = _values(_oracle(sed))
    assert all(value_type is float for _, _, value_type in expected)
    for vector in (default_estimation_function(sed, request), sed.estimate(request)):
        assert _values(vector) == expected
        assert (vector.server, vector.cluster) == (sed.name, sed.cluster)
        vector.validate_required()
    assert list(first) == [tag for tag, _, _ in expected]


@pytest.mark.parametrize("template_built", (False, True))
@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
@pytest.mark.parametrize("source", ("waiting_time", "mean_power"))
def test_a_non_finite_state_value_raises_the_oracles_error(source, bad, template_built):
    sed = ServerDaemon(Node(taurus_spec()))
    request = ServiceRequest.from_task(Task())
    if template_built:
        default_estimation_function(sed, request)
    if source == "waiting_time":
        sed.queue.waiting_time_estimate = lambda: bad
    else:
        sed.dynamic_mean_power = lambda: bad
    with pytest.raises(ValueError) as expected:
        _oracle(sed)
    with pytest.raises(ValueError) as raised:
        default_estimation_function(sed, request)
    assert str(raised.value) == str(expected.value)
    assert source in str(raised.value)
    with pytest.raises(ValueError, match=source):
        sed.estimate(request)
    assert not sed.estimation_cached


def test_a_vector_owns_its_values():
    """Vectors built from one template never share their value dict."""
    sed = ServerDaemon(Node(orion_spec()))
    request = ServiceRequest.from_task(Task())
    first = default_estimation_function(sed, request)
    second = default_estimation_function(sed, request)
    second.set(EstimationTags.WAITING_TIME, 9.0)
    third = default_estimation_function(sed, request)
    assert len({id(first.values), id(second.values), id(third.values)}) == 3
    waiting = EstimationTags.WAITING_TIME
    assert first.get(waiting) == third.get(waiting) == 0.0


def test_seds_of_one_node_type_share_a_template():
    """One template per node type; its key tells ``0.0`` from ``-0.0``."""
    request = ServiceRequest.from_task(Task())
    taurus = [ServerDaemon(Node(taurus_spec(index))) for index in range(2)]
    orion = ServerDaemon(Node(orion_spec()))
    for sed in (*taurus, orion):
        default_estimation_function(sed, request)
    assert taurus[0]._vector_template is taurus[1]._vector_template
    assert taurus[0]._vector_template is not orion._vector_template
    zero, negative_zero = (
        ServerDaemon(Node(dataclasses.replace(taurus_spec(), boot_time=boot_time)))
        for boot_time in (0.0, -0.0)
    )
    for sed in (zero, negative_zero, zero, negative_zero):
        boot_time = default_estimation_function(sed, request).get(EstimationTags.BOOT_TIME)
        assert math.copysign(1.0, boot_time) == math.copysign(1.0, sed.node.spec.boot_time)
