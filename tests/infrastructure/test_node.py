"""Tests for the node model and its state machine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.infrastructure.node import Node, NodeState
from repro.infrastructure.platform import orion_spec, sagittaire_spec, taurus_spec
from repro.infrastructure.power_model import LinearPowerModel
from tests.conftest import make_spec, off_node


class TestNodeSpec:
    def test_total_flops(self):
        spec = make_spec(cores=4, flops_per_core=2.0e9)
        assert spec.total_flops == 8.0e9

    def test_default_power_model_uses_spec_figures(self):
        spec = make_spec(idle_power=80.0, peak_power=160.0)
        model = spec.default_power_model()
        assert (model.idle, model.peak) == (80.0, 160.0)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            make_spec(name="")

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            make_spec(cluster="")

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            make_spec(cores=0)

    def test_rejects_zero_flops(self):
        with pytest.raises(ValueError):
            make_spec(flops_per_core=0.0)

    def test_rejects_peak_below_idle(self):
        with pytest.raises(ValueError):
            make_spec(idle_power=300.0, peak_power=200.0)

    def test_rejects_negative_boot_time(self):
        with pytest.raises(ValueError):
            make_spec(boot_time=-5.0)


class TestNodeCoreAccounting:
    def test_initially_on_and_idle(self, node):
        assert node.state is NodeState.ON
        assert node.is_available
        assert node.busy_cores == 0
        assert node.free_cores == node.spec.cores

    def test_acquire_release_cycle(self, node):
        node.acquire_core()
        assert node.busy_cores == 1
        assert node.free_cores == node.spec.cores - 1
        node.release_core(busy_seconds=12.0)
        assert node.busy_cores == 0
        assert node.completed_tasks == 1
        assert node.total_busy_core_seconds == 12.0

    def test_cannot_exceed_core_count(self, node):
        for _ in range(node.spec.cores):
            node.acquire_core()
        with pytest.raises(RuntimeError):
            node.acquire_core()

    def test_release_idle_node_raises(self, node):
        with pytest.raises(RuntimeError):
            node.release_core()

    def test_release_rejects_negative_busy_seconds(self, node):
        node.acquire_core()
        with pytest.raises(ValueError):
            node.release_core(busy_seconds=-1.0)

    def test_cannot_acquire_on_off_node(self, spec):
        node = off_node(spec)
        with pytest.raises(RuntimeError):
            node.acquire_core()


class TestNodeStateMachine:
    def test_power_off_idle_node(self, node):
        node.power_off()
        assert node.state is NodeState.OFF
        assert not node.is_available
        assert node.free_cores == 0

    def test_power_off_busy_node_raises(self, node):
        node.acquire_core()
        with pytest.raises(RuntimeError):
            node.power_off()

    def test_boot_cycle(self, spec):
        node = off_node(spec)
        completion = node.begin_boot(now=100.0)
        assert node.state is NodeState.BOOTING
        assert completion == pytest.approx(100.0 + spec.boot_time)
        assert node.boot_ready_at == completion
        node.complete_boot()
        assert node.state is NodeState.ON
        assert node.boot_ready_at is None

    def test_begin_boot_on_running_node_is_noop(self, node):
        assert node.begin_boot(now=5.0) == 5.0
        assert node.state is NodeState.ON

    def test_begin_boot_twice_returns_same_completion(self, spec):
        node = off_node(spec)
        first = node.begin_boot(now=0.0)
        second = node.begin_boot(now=10.0)
        assert first == second

    def test_complete_boot_requires_booting_state(self, node):
        with pytest.raises(RuntimeError):
            node.complete_boot()


class TestNodePower:
    def test_off_node_draws_nothing(self, spec):
        node = off_node(spec)
        assert node.current_power() == 0.0

    def test_booting_node_draws_boot_power(self, spec):
        node = off_node(spec)
        node.begin_boot(now=0.0)
        assert node.current_power() == spec.boot_power

    def test_idle_node_draws_idle_power(self, node, spec):
        assert node.current_power() == spec.idle_power

    def test_fully_loaded_node_draws_peak_power(self, node, spec):
        for _ in range(spec.cores):
            node.acquire_core()
        assert node.current_power() == pytest.approx(spec.peak_power)

    def test_partial_load_interpolates(self, node, spec):
        node.acquire_core()
        expected = spec.idle_power + (spec.peak_power - spec.idle_power) / spec.cores
        assert node.current_power() == pytest.approx(expected)


def _linear(spec):
    return Node(spec), spec.default_power_model()


#: The Table I node types with their linear models: each factory returns
#: the node and the model it was built with.
_POWERED_NODES = {
    "orion": lambda: _linear(orion_spec()),
    "taurus": lambda: _linear(taurus_spec()),
    "sagittaire": lambda: _linear(sagittaire_spec()),
    "five-core": lambda: _linear(make_spec(cores=5, idle_power=97.3, peak_power=211.9)),
}


class TestPowerTable:
    """``current_power`` is the old per-state formula, read from a table."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(_POWERED_NODES)),
        ops=st.lists(st.sampled_from(
            ["acquire", "release", "off", "boot", "boot_done", "fail", "repair"]
        ), max_size=60),
    )
    def test_every_transition_matches_the_formula_bit_for_bit(self, kind, ops):
        node, model = _POWERED_NODES[kind]()
        spec = node.spec

        def formula() -> float:
            if node.state is NodeState.ON:
                return model.power_at(node.busy_cores / spec.cores)
            if node.state is NodeState.BOOTING:
                return spec.boot_power
            return 0.0

        for op in ops:
            state = node.state
            if op == "acquire" and state is NodeState.ON and node.free_cores:
                node.acquire_core()
            elif op == "release" and node.busy_cores:
                node.release_core(busy_seconds=12.5)
            elif op == "off" and state is NodeState.ON and not node.busy_cores:
                node.power_off()
            elif op == "boot" and state is not NodeState.FAILED:
                node.begin_boot(0.0)
            elif op == "boot_done" and state is NodeState.BOOTING:
                node.complete_boot()
            elif op == "fail" and state is not NodeState.FAILED:
                node.fail()
            elif op == "repair" and state is NodeState.FAILED:
                node.repair()
            power = node.current_power()
            assert type(power) is float and power.hex() == formula().hex()

    def test_equal_linear_models_share_one_table(self):
        first, second = Node(taurus_spec(0)), Node(taurus_spec(1))
        assert first._on_power is second._on_power
        assert Node(orion_spec())._on_power is not first._on_power
        three, four = Node(make_spec(cores=3)), Node(make_spec(cores=4))
        assert (len(three._on_power), len(four._on_power)) == (4, 5)

    def test_zero_and_negative_zero_models_stay_apart(self):
        plus = Node(make_spec(cores=2, idle_power=0.0, peak_power=0.0))
        minus = Node(make_spec(cores=2, idle_power=-0.0, peak_power=-0.0))
        assert plus._on_power is not minus._on_power
        assert [power.hex() for power in minus._on_power] == [
            LinearPowerModel(idle=-0.0, peak=-0.0).power_at(busy / 2).hex() for busy in range(3)
        ]


class TestFailedState:
    def test_fail_drops_running_work_and_power(self):
        node = Node(make_spec(cores=4))
        node.acquire_core()
        node.acquire_core()
        lost = node.fail(now=10.0)
        assert lost == 2
        assert node.state is NodeState.FAILED
        assert node.busy_cores == 0
        assert node.free_cores == 0
        assert node.current_power() == 0.0
        assert not node.is_available

    def test_fail_abandons_an_in_progress_boot(self):
        node = off_node(make_spec(boot_time=30.0))
        node.begin_boot(0.0)
        node.fail(now=10.0)
        assert node.state is NodeState.FAILED
        assert node.boot_ready_at is None

    def test_double_fail_rejected(self):
        node = Node(make_spec())
        node.fail()
        with pytest.raises(RuntimeError, match="already failed"):
            node.fail()

    def test_repair_returns_to_service(self):
        node = Node(make_spec(cores=2))
        node.fail()
        node.repair()
        assert node.state is NodeState.ON
        assert node.free_cores == 2
        node.acquire_core()  # usable again
        assert node.busy_cores == 1

    def test_repair_requires_failed_state(self):
        node = Node(make_spec())
        with pytest.raises(RuntimeError, match="repair"):
            node.repair()

    def test_failed_node_cannot_boot(self):
        node = Node(make_spec())
        node.fail()
        with pytest.raises(RuntimeError, match="repair"):
            node.begin_boot(0.0)

    def test_failed_node_cannot_run_tasks(self):
        node = Node(make_spec())
        node.fail()
        with pytest.raises(RuntimeError):
            node.acquire_core()

    def test_fail_and_repair_notify_power_listeners(self):
        node = Node(make_spec())
        observed = []
        node.add_power_listener(lambda n: observed.append(n.current_power()))
        node.fail()
        node.repair()
        assert observed[0] == 0.0          # crash: draw collapses to zero
        assert observed[1] == node.current_power()  # repair: idle draw again
        assert observed[1] > 0.0

    def test_repair_restores_pre_failure_off_state(self):
        # A node that was OFF when it "crashed" must come back OFF —
        # repair must not silently power nodes on and inflate energy.
        node = off_node(make_spec())
        node.fail()
        node.repair()
        assert node.state is NodeState.OFF
        assert node.current_power() == 0.0

    def test_repair_after_interrupted_boot_lands_off(self):
        node = off_node(make_spec(boot_time=30.0))
        node.begin_boot(0.0)
        node.fail(now=10.0)
        node.repair()
        assert node.state is NodeState.OFF
        # ...and the normal boot path works again afterwards.
        node.begin_boot(20.0)
        node.complete_boot()
        assert node.state is NodeState.ON
