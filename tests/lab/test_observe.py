"""Tests for per-window platform power computed from energy segments.

:func:`repro.lab.observe.windowed_power` never renders a per-second
trace; :func:`tests.wattmeter.reference_windowed_power` does (render,
then mask once per window).  The two must agree bit for bit — ``==``,
not approx — on any segment log.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.infrastructure.energy import SegmentEnergyLog
from repro.lab.observe import windowed_power
from tests.wattmeter import power_trace, reference_windowed_power

duration_strategy = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=30).map(float),
    st.floats(min_value=0.01, max_value=30.0),
)

segments_strategy = st.lists(
    st.tuples(duration_strategy, st.floats(min_value=0.0, max_value=500.0)),
    max_size=8,
)

log_strategy = st.fixed_dictionaries(
    {
        "sample_period": st.sampled_from([0.5, 1.0, 5.0, 10.0]),
        # Zero nodes is the empty log; a node with no segments is silent.
        "nodes": st.lists(segments_strategy, max_size=4),
    }
)

window_strategy = st.one_of(
    st.sampled_from([1.0, 2.5, 7.0, 10.0, 300.0, 600.0]),
    st.floats(min_value=0.1, max_value=60.0),
)


def build_log(sample_period, nodes) -> SegmentEnergyLog:
    log = SegmentEnergyLog(sample_period)
    for index, segments in enumerate(nodes):
        name = f"n{index}"
        log.register_node(name, f"c{index % 2}")
        time = 0.0
        for length, watts in segments:
            log.add_segment(name, f"c{index % 2}", time, time + length, watts)
            time += length
    return log


class TestMatchesPerSecondRendering:
    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=log_strategy,
        window=window_strategy,
        # Up to well past the longest trace (4 nodes x 8 x 30 s).
        duration=st.floats(min_value=-5.0, max_value=400.0),
    )
    def test_series_equals_render_mask_mean(self, spec, window, duration):
        log = build_log(**spec)
        assert windowed_power(log, window=window, duration=duration) == (
            reference_windowed_power(log, window=window, duration=duration)
        )

    def test_ragged_nodes_with_a_silent_one(self):
        log = build_log(1.0, [[(2.0, 10.0), (5.0, 30.0)], [], [(3.5, 7.0)]])
        series = windowed_power(log, window=4.0, duration=20.0)
        assert series == reference_windowed_power(log, window=4.0, duration=20.0)
        # t = 0..2 at 17 W, t = 3 at 37 W; t = 4..7 node n0 alone at 30 W.
        assert series == ((4.0, (3 * 17.0 + 37.0) / 4), (8.0, 30.0))

    def test_empty_log_has_no_windows(self):
        assert windowed_power(SegmentEnergyLog(), window=600.0, duration=86_400.0) == ()


long_log_strategy = st.fixed_dictionaries(
    {
        "sample_period": st.sampled_from([0.5, 1.0, 3.0, 10.0]),
        "nodes": st.lists(
            st.lists(
                st.tuples(
                    st.one_of(
                        st.integers(min_value=1, max_value=900).map(float),
                        st.floats(min_value=0.01, max_value=900.0),
                    ),
                    st.floats(min_value=0.0, max_value=500.0),
                ),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=5,
        ),
    }
)


class TestRunsOfEqualWidthWindows:
    """Logs long enough that many adjacent windows share a width.

    Each run of equal-width windows is averaged in one reshaped block;
    windows that are not a multiple of ``sample_period`` alternate
    widths, windows narrower than ``sample_period`` may hold no instant,
    and the last window is cut short by the end of the log or by
    ``duration``.
    """

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=long_log_strategy,
        window=st.one_of(
            st.sampled_from([1.0, 7.0, 37.5, 128.0, 129.0, 600.0, 601.0]),
            st.floats(min_value=0.3, max_value=700.0),
        ),
        # From mid-log to far past its end (5 nodes x 6 x 900 s at most).
        duration=st.floats(min_value=0.0, max_value=8_000.0),
    )
    def test_series_equals_render_mask_mean(self, spec, window, duration):
        log = build_log(**spec)
        assert windowed_power(log, window=window, duration=duration) == (
            reference_windowed_power(log, window=window, duration=duration)
        )

    def ragged_log(self, sample_period=1.0):
        return build_log(
            sample_period,
            [[(400.0, 95.5), (733.3, 180.25), (200.0, 0.0)], [(1000.0, 121.7)]],
        )

    @staticmethod
    def check(log, window, duration):
        series = windowed_power(log, window=window, duration=duration)
        assert series == reference_windowed_power(log, window=window, duration=duration)
        return series

    @pytest.mark.parametrize("sample_period, window", [(1.0, 2.5), (3.0, 7.0), (0.5, 1.3)])
    def test_windows_that_are_not_a_multiple_of_the_sample_period(self, sample_period, window):
        log = self.ragged_log(sample_period=sample_period)
        times = power_trace(log)[:, 0]
        widths = {
            sum(1 for time in times if k * window <= time < (k + 1) * window)
            for k in range(int(times[-1] // window))
        }
        assert len(widths) > 1  # windows really differ in width
        assert self.check(log, window, duration=1_500.0)

    def test_windows_without_an_instant_are_skipped(self):
        series = self.check(self.ragged_log(sample_period=10.0), 4.0, duration=100.0)
        # Instants every 10 s: of the 4 s windows, only those holding a
        # multiple of 10 are reported.
        assert [end for end, _ in series] == [
            4.0, 12.0, 24.0, 32.0, 44.0, 52.0, 64.0, 72.0, 84.0, 92.0,
        ]

    def test_a_duration_that_ends_mid_window(self):
        series = self.check(self.ragged_log(), 128.0, duration=1_000.0)
        # The window open at 1000 s (896..1024 s) is still reported in full.
        assert series[-1][0] == 1_024.0

    def test_a_duration_past_the_last_instant(self):
        log = self.ragged_log()
        series = self.check(log, 600.0, duration=86_400.0)
        # The log ends at 1333.3 s: its last window is cut short, none follows.
        assert [end for end, _ in series] == [600.0, 1_200.0, 1_800.0]


class TestWindowBounds:
    def make_log(self, period=0.5, end=1.0):
        log = SegmentEnergyLog(sample_period=period)
        log.add_segment("n", "c", 0.0, end, 100.0)
        return log

    def test_bounds_do_not_drift_past_duration(self):
        # Accumulating ``start += 0.1`` ten times lands just below 1.0 and
        # emits an eleventh window, labelled 1.0999999999999999, holding the
        # instant at t = duration.  Index-computed bounds stop at k = 10.
        series = windowed_power(self.make_log(), window=0.1, duration=1.0)
        assert [end for end, _ in series] == [0.1, 6 * 0.1]
        assert all(end <= 1.0 for end, _ in series)

    def test_no_window_opens_at_a_duration_that_is_a_rounded_start(self):
        # 3 * 0.1 == 0.30000000000000004, and dividing it by 0.1 rounds up
        # past 3: the window that would start at the duration must not open.
        log = self.make_log(period=0.05)
        duration = 3 * 0.1
        series = windowed_power(log, window=0.1, duration=duration)
        assert series == reference_windowed_power(log, window=0.1, duration=duration)
        assert [end for end, _ in series] == [0.1, 2 * 0.1, 3 * 0.1]

    @pytest.mark.parametrize("window", [300.0, 600.0])
    def test_integer_windows_match_accumulated_bounds(self, window):
        # The experiments' check periods: index bounds equal the
        # accumulated ones exactly, so the Figure 9 goldens cannot move.
        start = 0.0
        for k in range(7 * 86_400 // int(window)):
            assert start == k * window
            start += window

    @pytest.mark.parametrize("window", [0.0, -600.0, math.nan, math.inf])
    def test_hostile_window_rejected(self, window):
        with pytest.raises(ValueError, match="window"):
            windowed_power(self.make_log(), window=window, duration=10.0)

    @pytest.mark.parametrize("duration", [math.inf, -math.inf, math.nan])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration"):
            windowed_power(self.make_log(), window=1.0, duration=duration)

    def test_non_positive_duration_has_no_windows(self):
        assert windowed_power(self.make_log(), window=1.0, duration=0.0) == ()
        assert windowed_power(self.make_log(), window=1.0, duration=-3.0) == ()
