"""Tests for the event-driven energy accounting (segments + accountant).

The log's contract is *tick-exact equivalence* with the seed
polling wattmeter: a segment ``(t0, t1]`` owns exactly the sampling
instants the wattmeter would have attributed to that power level.  The
tick-arithmetic tests below pin the boundary behaviour (instant at a
transition reads the *old* power, the ``t = 0`` instant belongs to the
first segment, sub-period segments accumulate) against hand-computed
values and against a reference :class:`~tests.wattmeter.Wattmeter` run.
"""

import pytest

from repro.infrastructure.energy import (
    EnergyAccountant,
    PowerSegment,
    SegmentEnergyLog,
)
from repro.infrastructure.node import Node, NodeState
from tests.conftest import make_spec
from tests.wattmeter import (
    Wattmeter,
    analytic_energy,
    energy_of_cluster,
    energy_of_node,
    power_trace,
    tick_count,
)


def make_node(name="a-0", cluster="a", idle=100.0, peak=200.0, **kwargs):
    return Node(make_spec(name=name, cluster=cluster, idle_power=idle, peak_power=peak, **kwargs))


class TestTickArithmetic:
    def test_single_segment_counts_inclusive_ticks(self):
        log = SegmentEnergyLog(sample_period=1.0)
        log.add_segment("n", "c", 0.0, 5.0, 100.0)
        # Instants t = 0..5 inclusive, like Wattmeter.advance_to(5.0).
        assert tick_count(log, "n") == 6
        assert log.total_energy == pytest.approx(600.0)

    def test_transition_instant_reads_old_power(self):
        log = SegmentEnergyLog(sample_period=1.0)
        log.add_segment("n", "c", 0.0, 2.0, 100.0)
        log.add_segment("n", "c", 2.0, 5.0, 200.0)
        # t=0,1,2 belong to the first segment (the seed samples at the top
        # of the handler, before the state mutation); t=3,4,5 to the second.
        assert [segment.ticks for segment in log.segments("n")] == [3, 3]
        assert energy_of_node(log, "n") == pytest.approx(3 * 100.0 + 3 * 200.0)

    def test_zero_length_segment_at_origin_owns_tick_zero(self):
        log = SegmentEnergyLog(sample_period=1.0)
        log.add_segment("n", "c", 0.0, 0.0, 100.0)
        log.add_segment("n", "c", 0.0, 2.0, 50.0)
        # A transition at exactly t=0 means the t=0 instant saw the power
        # in effect *before* the transition.
        assert [segment.ticks for segment in log.segments("n")] == [1, 2]
        assert energy_of_node(log, "n") == pytest.approx(100.0 + 2 * 50.0)

    def test_zero_measure_segment_is_a_no_op(self):
        log = SegmentEnergyLog(sample_period=1.0)
        log.add_segment("n", "c", 0.0, 2.5, 100.0)
        before = log.segments("n")
        log.add_segment("n", "c", 2.5, 2.5, 400.0)
        assert log.segments("n") == before
        assert log.total_energy == pytest.approx(3 * 100.0)

    def test_sub_period_segments_accumulate(self):
        # Mirrors the seed's test_sub_period_advance_accumulates.
        log = SegmentEnergyLog(sample_period=1.0)
        log.add_segment("n", "c", 0.0, 0.4, 100.0)
        assert tick_count(log, "n") == 1  # the t=0 instant
        log.add_segment("n", "c", 0.4, 0.9, 100.0)
        assert tick_count(log, "n") == 1
        log.add_segment("n", "c", 0.9, 1.0, 100.0)
        assert tick_count(log, "n") == 2

    def test_custom_period(self):
        log = SegmentEnergyLog(sample_period=5.0)
        log.add_segment("n", "c", 0.0, 20.0, 100.0)
        assert tick_count(log, "n") == 5  # t = 0, 5, 10, 15, 20
        assert log.total_energy == pytest.approx(5 * 100.0 * 5.0)

    def test_dyadic_period(self):
        log = SegmentEnergyLog(sample_period=0.5)
        log.add_segment("n", "c", 0.0, 1.25, 80.0)
        assert tick_count(log, "n") == 3  # t = 0, 0.5, 1.0
        log.add_segment("n", "c", 1.25, 1.5, 40.0)
        assert tick_count(log, "n") == 4  # + t = 1.5 at the new power
        assert energy_of_node(log, "n") == pytest.approx(3 * 80.0 * 0.5 + 40.0 * 0.5)

    def test_segments_keep_the_analytic_integral(self):
        log = SegmentEnergyLog(sample_period=1.0)
        log.add_segment("n", "c", 0.0, 2.5, 100.0)
        assert log.total_energy == pytest.approx(300.0)  # ticks 0, 1, 2
        assert analytic_energy(log) == pytest.approx(250.0)

    def test_adjacent_same_power_segments_merge(self):
        log = SegmentEnergyLog(sample_period=1.0)
        log.add_segment("n", "c", 0.0, 2.0, 100.0)
        log.add_segment("n", "c", 2.0, 5.0, 100.0)
        segments = log.segments("n")
        assert len(segments) == 1
        assert segments[0].start == 0.0
        assert segments[0].end == 5.0
        assert segments[0].ticks == 6

    def test_overlapping_segments_rejected(self):
        log = SegmentEnergyLog(sample_period=1.0)
        log.add_segment("n", "c", 0.0, 5.0, 100.0)
        with pytest.raises(ValueError, match="contiguous"):
            log.add_segment("n", "c", 4.0, 6.0, 100.0)

    def test_gapped_segments_rejected(self):
        # A gap would silently charge its sampling instants at the next
        # segment's power, diverging from the polling reference.
        log = SegmentEnergyLog(sample_period=1.0)
        log.add_segment("n", "c", 0.0, 1.0, 100.0)
        with pytest.raises(ValueError, match="contiguous"):
            log.add_segment("n", "c", 10.0, 11.0, 0.0)

    def test_first_segment_must_start_at_zero(self):
        log = SegmentEnergyLog(sample_period=1.0)
        with pytest.raises(ValueError, match="contiguous"):
            log.add_segment("n", "c", 5.0, 6.0, 100.0)

    def test_segment_cannot_end_before_it_starts(self):
        log = SegmentEnergyLog(sample_period=1.0)
        with pytest.raises(ValueError, match="ends before"):
            log.add_segment("n", "c", 5.0, 4.0, 100.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SegmentEnergyLog(sample_period=0.0)
        with pytest.raises(ValueError):
            SegmentEnergyLog(sample_period=-1.0)
        with pytest.raises(TypeError):  # one integration: there is no mode
            SegmentEnergyLog(mode="exact")


class TestSegmentLogQueries:
    def make_two_node_log(self):
        log = SegmentEnergyLog(sample_period=1.0)
        log.register_node("n1", "c1")
        log.register_node("n2", "c2")
        log.add_segment("n1", "c1", 0.0, 2.0, 10.0)
        log.add_segment("n1", "c1", 2.0, 4.0, 30.0)
        log.add_segment("n2", "c2", 0.0, 4.0, 5.0)
        return log

    def test_power_trace_for_single_node(self):
        log = self.make_two_node_log()
        trace = power_trace(log, "n1")
        assert trace.shape == (5, 2)
        assert list(trace[:, 0]) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert list(trace[:, 1]) == [10.0, 10.0, 10.0, 30.0, 30.0]

    def test_platform_power_trace_sums_instants(self):
        log = self.make_two_node_log()
        trace = power_trace(log)
        assert trace.shape == (5, 2)
        assert list(trace[:, 1]) == [15.0, 15.0, 15.0, 35.0, 35.0]

    def test_energy_by_cluster_and_node(self):
        log = self.make_two_node_log()
        assert energy_of_node(log, "n1") == pytest.approx(3 * 10.0 + 2 * 30.0)
        assert energy_of_cluster(log, "c2") == pytest.approx(5 * 5.0)
        assert log.total_energy == pytest.approx(
            sum(log.energy_by_node().values())
        )
        assert energy_of_node(log, "missing") == 0.0
        assert energy_of_cluster(log, "missing") == 0.0

    def test_registered_but_silent_node_reports_zero(self):
        log = SegmentEnergyLog(sample_period=1.0)
        log.register_node("quiet", "c")
        assert energy_of_node(log, "quiet") == 0.0
        assert tick_count(log, "quiet") == 0
        assert log.segments("quiet") == ()
        assert "quiet" in log.energy_by_node()

    def test_segments_accessor_groups_by_node(self):
        log = self.make_two_node_log()
        assert len(log.segments()) == 3
        assert all(isinstance(s, PowerSegment) for s in log.segments())
        assert log.segments("n2")[0].duration == pytest.approx(4.0)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestEnergyAccountant:
    def test_transitions_close_segments(self):
        node = make_node()
        clock = FakeClock()
        accountant = EnergyAccountant([node], clock=clock, sample_period=1.0)
        clock.now = 4.0
        for _ in range(node.spec.cores):
            node.acquire_core()
        clock.now = 9.0
        accountant.sync(9.0)
        # t = 0..4 at idle (the t=4 instant reads the pre-transition
        # power), t = 5..9 at peak — same split as Wattmeter.advance_to
        # called before the mutation.
        assert energy_of_node(accountant.log, "a-0") == pytest.approx(
            5 * 100.0 + 5 * 200.0
        )

    def test_matches_polling_wattmeter_on_a_scripted_run(self):
        script = [(3.0, 2), (5.5, 4), (8.0, 0), (11.0, 1)]  # (time, busy cores)
        polled_node = make_node(cores=4)
        meter = Wattmeter([polled_node], sample_period=1.0)
        for time, busy in script:
            meter.advance_to(time)
            while polled_node.busy_cores < busy:
                polled_node.acquire_core()
            while polled_node.busy_cores > busy:
                polled_node.release_core()
        meter.advance_to(12.0)

        event_node = make_node(cores=4)
        clock = FakeClock()
        accountant = EnergyAccountant([event_node], clock=clock, sample_period=1.0)
        for time, busy in script:
            clock.now = time
            while event_node.busy_cores < busy:
                event_node.acquire_core()
            while event_node.busy_cores > busy:
                event_node.release_core()
        accountant.sync(12.0)

        assert energy_of_node(accountant.log, "a-0") == energy_of_node(meter.log, "a-0")
        assert accountant.log.total_energy == meter.log.total_energy
        polled = meter.log.power_trace("a-0")
        segmented = power_trace(accountant.log, "a-0")
        assert polled.shape == segmented.shape
        assert (polled == segmented).all()

    def test_boot_and_power_off_transitions_are_observed(self):
        node = make_node(boot_power=150.0, boot_time=10.0)
        clock = FakeClock()
        accountant = EnergyAccountant([node], clock=clock, sample_period=1.0)
        clock.now = 5.0
        node.power_off()  # idle 100 W until t=5
        clock.now = 20.0
        node.begin_boot(20.0)  # off (0 W) until t=20, then 150 W
        clock.now = 30.0
        node.complete_boot()  # booting until t=30, then idle again
        accountant.sync(40.0)
        # Instants: t=0..5 idle, t=6..20 off, t=21..30 boot, t=31..40 idle.
        assert energy_of_node(accountant.log, "a-0") == pytest.approx(
            6 * 100.0 + 15 * 0.0 + 10 * 150.0 + 10 * 100.0
        )

    def test_unchanged_power_does_not_fragment_segments(self):
        node = make_node(cores=2)
        clock = FakeClock()
        accountant = EnergyAccountant([node], clock=clock, sample_period=1.0)
        clock.now = 3.0
        accountant.sync(3.0)
        clock.now = 6.0
        accountant.sync(6.0)
        accountant.sync(6.0)  # idempotent
        assert len(accountant.log.segments("a-0")) == 1
        assert tick_count(accountant.log, "a-0") == 7

    def test_close_detaches_listeners(self):
        node = make_node()
        clock = FakeClock()
        accountant = EnergyAccountant([node], clock=clock, sample_period=1.0)
        accountant.close(5.0)
        clock.now = 9.0
        node.acquire_core()  # no longer observed
        assert tick_count(accountant.log, "a-0") == 6
        assert energy_of_node(accountant.log, "a-0") == pytest.approx(6 * 100.0)
        accountant.close()  # idempotent
        assert accountant.closed
        # A closed accountant refuses to extend its intervals: it no
        # longer observes transitions, so syncing would book stale power.
        with pytest.raises(RuntimeError, match="closed"):
            accountant.sync(20.0)

    def test_logged_segments_integrate_analytically(self):
        node = make_node()
        clock = FakeClock()
        accountant = EnergyAccountant([node], clock=clock)
        clock.now = 2.5
        for _ in range(node.spec.cores):
            node.acquire_core()
        accountant.sync(4.0)
        assert analytic_energy(accountant.log) == pytest.approx(
            2.5 * 100.0 + 1.5 * 200.0
        )
        # The 1 Hz reading books t = 0, 1, 2 at idle and t = 3, 4 at peak.
        assert energy_of_node(accountant.log, "a-0") == pytest.approx(
            3 * 100.0 + 2 * 200.0
        )

    def test_period_exposed(self):
        accountant = EnergyAccountant([make_node()], clock=FakeClock(), sample_period=2.0)
        assert accountant.sample_period == 2.0


class TestNodePowerListeners:
    def test_listener_fires_on_core_transitions(self):
        node = make_node(cores=2)
        seen = []
        node.add_power_listener(lambda n: seen.append(n.current_power()))
        node.acquire_core()
        node.acquire_core()
        node.release_core()
        assert seen == [150.0, 200.0, 150.0]

    def test_listener_fires_on_state_transitions(self):
        node = make_node(boot_power=120.0, boot_time=5.0)
        states = []
        node.add_power_listener(lambda n: states.append(n.state))
        node.power_off()
        node.begin_boot(0.0)
        node.complete_boot()
        assert states == [NodeState.OFF, NodeState.BOOTING, NodeState.ON]

    def test_remove_listener(self):
        node = make_node()
        seen = []
        listener = lambda n: seen.append(1)  # noqa: E731
        node.add_power_listener(listener)
        node.acquire_core()
        node.remove_power_listener(listener)
        node.release_core()
        assert seen == [1]
        with pytest.raises(ValueError):
            node.remove_power_listener(listener)

    def test_noop_boot_does_not_notify(self):
        node = make_node()
        seen = []
        node.add_power_listener(lambda n: seen.append(1))
        node.begin_boot(0.0)  # already ON: no transition
        assert seen == []
