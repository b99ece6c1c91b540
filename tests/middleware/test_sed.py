"""Tests for the Server Daemon."""

import pytest

from repro.infrastructure.node import Node
from repro.middleware.estimation import EstimationTags, EstimationVector
from repro.middleware.requests import ServiceRequest
from repro.middleware.sed import ServerDaemon, default_estimation_function
from repro.simulation.task import Task
from tests.conftest import make_spec, off_node


def make_sed(**spec_overrides):
    node = Node(make_spec(**spec_overrides))
    return ServerDaemon(node)


def make_request(service="cpu-burn", preference=0.0):
    task = Task(service=service, user_preference=preference)
    return ServiceRequest.from_task(task)


class TestConstruction:
    def test_name_and_cluster_come_from_node(self):
        sed = make_sed(name="taurus-3", cluster="taurus")
        assert sed.name == "taurus-3"
        assert sed.cluster == "taurus"

    def test_default_service(self):
        sed = make_sed()
        assert sed.can_solve("cpu-burn")
        assert not sed.can_solve("matmul")

    def test_custom_services(self):
        node = Node(make_spec())
        sed = ServerDaemon(node, services=("a", "b"))
        assert sed.can_solve("a") and sed.can_solve("b")

    def test_requires_at_least_one_service(self):
        node = Node(make_spec())
        with pytest.raises(ValueError):
            ServerDaemon(node, services=())

    def test_owns_a_queue_bound_to_its_node(self):
        node = Node(make_spec())
        sed = ServerDaemon(node)
        assert sed.queue.node is node
        with pytest.raises(TypeError):
            ServerDaemon(node, queue=sed.queue)


class TestDynamicPowerEstimate:
    def test_falls_back_to_peak_power_before_history(self):
        sed = make_sed(peak_power=321.0)
        assert sed.observed_request_count == 0
        assert sed.dynamic_mean_power() == 321.0

    def test_averages_past_request_power(self):
        sed = make_sed()
        sed.record_request_power(100.0)
        sed.record_request_power(200.0)
        assert sed.observed_request_count == 2
        assert sed.dynamic_mean_power() == pytest.approx(150.0)

    @pytest.mark.parametrize("power", [-1.0, float("nan"), float("inf"), "100"])
    def test_an_observation_is_checked_where_it_enters(self, power):
        sed = make_sed()
        with pytest.raises((ValueError, TypeError)):
            sed.record_request_power(power)
        assert sed.observed_request_count == 0

    def test_a_zero_observation_is_accepted(self):
        """A node may draw no power (``NodeSpec`` allows ``peak_power=0``)."""
        sed = make_sed(idle_power=0.0, peak_power=0.0)
        sed.record_request_power(0.0)
        assert sed.dynamic_mean_power() == 0.0

    def test_an_int_observation_is_accepted(self):
        sed = make_sed()
        sed.record_request_power(120)
        assert sed.dynamic_mean_power() == 120.0


class TestEstimation:
    def test_default_estimation_fills_required_tags(self):
        sed = make_sed()
        vector = sed.estimate(make_request())
        vector.validate_required()
        assert vector.server == sed.name
        assert vector.get(EstimationTags.TOTAL_CORES) == sed.node.spec.cores

    def test_estimation_reflects_node_state(self):
        node = off_node(make_spec())
        sed = ServerDaemon(node)
        vector = sed.estimate(make_request())
        assert not vector.available
        assert vector.get(EstimationTags.FREE_CORES) == 0.0

    def test_estimation_reflects_busy_cores(self):
        sed = make_sed(cores=2)
        sed.node.acquire_core()
        vector = sed.estimate(make_request())
        assert vector.get(EstimationTags.FREE_CORES) == 1.0

    def test_estimation_uses_dynamic_power(self):
        sed = make_sed(peak_power=400.0)
        sed.record_request_power(111.0)
        vector = sed.estimate(make_request())
        assert vector.get(EstimationTags.MEAN_POWER) == pytest.approx(111.0)

    def test_custom_estimation_function(self):
        def custom(sed_arg, request):
            vector = default_estimation_function(sed_arg, request)
            vector.set("custom_tag", 42.0)
            return vector

        sed = ServerDaemon(Node(make_spec()), estimation_function=custom)
        vector = sed.estimate(make_request())
        assert vector.get("custom_tag") == 42.0

    def test_custom_estimation_missing_required_tags_rejected(self):
        sed = ServerDaemon(
            Node(make_spec()),
            estimation_function=lambda s, r: EstimationVector(server=s.name, cluster=s.cluster),
        )
        with pytest.raises(ValueError):
            sed.estimate(make_request())

    def test_completed_tasks_tag_tracks_node(self):
        sed = make_sed()
        sed.node.acquire_core()
        sed.node.release_core(busy_seconds=1.0)
        vector = sed.estimate(make_request())
        assert vector.get(EstimationTags.COMPLETED_TASKS) == 1.0


class TestWildcardService:
    def test_wildcard_solves_everything(self):
        from repro.middleware.sed import WILDCARD_SERVICE

        node = Node(make_spec())
        sed = ServerDaemon(node, services=(WILDCARD_SERVICE,))
        assert sed.can_solve("cpu-burn")
        assert sed.can_solve("never-seen-before")

    def test_ordinary_sed_stays_closed_world(self):
        assert not make_sed().can_solve("*never-offered*")


class TestEstimationCache:
    """The incremental-estimation refactor: cache + invalidation points."""

    def test_default_function_caches_the_vector(self):
        sed = make_sed()
        first = sed.estimate(make_request())
        assert sed.estimation_cached
        assert sed.estimate(make_request()) is first

    def test_node_transition_invalidates(self):
        sed = make_sed(cores=2)
        before = sed.estimate(make_request())
        sed.node.acquire_core()
        assert not sed.estimation_cached
        after = sed.estimate(make_request())
        assert after is not before
        assert after.get(EstimationTags.FREE_CORES) == before.get(
            EstimationTags.FREE_CORES
        ) - 1.0

    def test_queue_mutation_invalidates(self):
        sed = make_sed()
        sed.estimate(make_request())
        sed.queue.enqueue(Task(flop=1e9))
        assert not sed.estimation_cached

    def test_power_history_invalidates(self):
        sed = make_sed()
        sed.estimate(make_request())
        sed.record_request_power(100.0)
        assert not sed.estimation_cached
        assert sed.estimate(make_request()).get(
            EstimationTags.MEAN_POWER
        ) == pytest.approx(100.0)

    def test_recomputed_vector_is_identical(self):
        # A dirty vector is recomputed by the same function at the same
        # state, so elections see identical numbers either way.
        sed = make_sed()
        cached = sed.estimate(make_request())
        sed.invalidate_estimation()
        fresh = sed.estimate(make_request())
        assert fresh is not cached
        assert fresh.as_dict() == cached.as_dict()

    def test_custom_function_disables_cache(self):
        sed = ServerDaemon(Node(make_spec()), estimation_function=default_estimation_function)
        first = sed.estimate(make_request())
        assert not sed.estimation_cached
        assert sed.estimate(make_request()) is not first
