"""Tests for the completion-time / energy / score models (Equations 4-6)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scoring import ScoreKernel, preference_exponent
from repro.middleware.estimation import EstimationTags
from repro.util.validation import ensure_non_negative
from tests.conftest import make_vector
from tests.equations import completion_time, energy_consumption, score


class TestCompletionTime:
    def test_active_server_pays_waiting_queue(self):
        # Eq. 4, active branch: w_s + n_i / f_s
        assert completion_time(1e9, 1e9, active=True, waiting_time=5.0) == pytest.approx(6.0)

    def test_inactive_server_pays_boot_time(self):
        # Eq. 4, inactive branch: bt_s + n_i / f_s
        assert completion_time(1e9, 1e9, active=False, boot_time=120.0) == pytest.approx(121.0)

    def test_waiting_ignored_when_inactive(self):
        assert completion_time(
            1e9, 1e9, active=False, waiting_time=50.0, boot_time=10.0
        ) == pytest.approx(11.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            completion_time(1e9, 0.0, active=True)
        with pytest.raises(ValueError):
            completion_time(-1.0, 1e9, active=True)


class TestEnergyConsumption:
    def test_active_server_energy(self):
        # Eq. 5, active branch: c_s * n_i / f_s
        assert energy_consumption(
            1e9, 1e9, active=True, full_load_power=200.0
        ) == pytest.approx(200.0)

    def test_inactive_server_adds_boot_energy(self):
        # Eq. 5, inactive branch: bt_s * bc_s + c_s * n_i / f_s
        assert energy_consumption(
            1e9, 1e9, active=False, full_load_power=200.0, boot_time=60.0, boot_power=150.0
        ) == pytest.approx(60.0 * 150.0 + 200.0)

    def test_boot_cost_ignored_when_active(self):
        assert energy_consumption(
            1e9, 1e9, active=True, full_load_power=200.0, boot_time=60.0, boot_power=150.0
        ) == pytest.approx(200.0)


class TestScore:
    def test_exponent_matches_equation6(self):
        assert preference_exponent(0.0) == pytest.approx(1.0)
        assert preference_exponent(0.9) == pytest.approx(2 / 1.9 - 1)
        assert preference_exponent(-0.9) == pytest.approx(2 / 0.1 - 1)

    def test_exponent_clamps_extreme_preferences(self):
        # P = -1 would make the exponent diverge; the clamp keeps it finite.
        assert preference_exponent(-1.0) == pytest.approx(19.0)
        assert preference_exponent(1.0) == pytest.approx(2 / 1.9 - 1)

    @pytest.mark.parametrize(
        "preference, clamped",
        [(-1, -0.9), (-0.9, -0.9), (0, 0), (0.9, 0.9), (1, 0.9)],
    )
    def test_exponent_is_pinned_at_the_range_ends(self, preference, clamped):
        assert preference_exponent(preference) == 2.0 / (clamped + 1.0) - 1.0

    @pytest.mark.parametrize(
        "preference, message",
        [
            (1.5, "user preference must be in [-1.0, 1.0], got 1.5"),
            (math.nan, "user preference must be finite, got nan"),
        ],
    )
    def test_exponent_rejects_out_of_range_preferences(self, preference, message):
        with pytest.raises(ValueError) as raised:
            preference_exponent(preference)
        assert str(raised.value) == message

    def test_neutral_preference_is_time_times_energy(self):
        assert score(10.0, 5.0, 0.0) == pytest.approx(50.0)

    def test_performance_preference_is_time_dominated(self):
        """Equation 7: P -> -0.9 makes the score follow computation time."""
        fast_hungry = score(time=10.0, energy=1000.0, user_preference=-0.9)
        slow_frugal = score(time=20.0, energy=10.0, user_preference=-0.9)
        assert fast_hungry < slow_frugal

    def test_energy_preference_is_energy_dominated(self):
        """Equation 7: P -> +0.9 makes the score follow energy consumption."""
        fast_hungry = score(time=10.0, energy=1000.0, user_preference=0.9)
        slow_frugal = score(time=20.0, energy=10.0, user_preference=0.9)
        assert slow_frugal < fast_hungry

    def test_lower_score_is_better_on_both_axes(self):
        better = score(5.0, 50.0, 0.0)
        worse = score(10.0, 100.0, 0.0)
        assert better < worse

    def test_invalid_time_rejected(self):
        with pytest.raises(ValueError):
            score(0.0, 10.0, 0.0)

    @given(
        time=st.floats(min_value=0.1, max_value=1e5),
        energy=st.floats(min_value=0.1, max_value=1e7),
        preference=st.floats(min_value=-1, max_value=1),
    )
    def test_score_is_positive(self, time, energy, preference):
        assert score(time, energy, preference) > 0

    @given(
        time=st.floats(min_value=0.1, max_value=1e4),
        energy_low=st.floats(min_value=0.1, max_value=1e6),
        extra=st.floats(min_value=0.1, max_value=1e6),
        preference=st.floats(min_value=-1, max_value=1),
    )
    def test_score_monotone_in_energy(self, time, energy_low, extra, preference):
        assert score(time, energy_low, preference) < score(time, energy_low + extra, preference)


class TestKernelFromVector:
    def test_active_server(self):
        vector = make_vector(
            flops_per_core=1e9, waiting_time=2.0, mean_power=100.0, available=True
        )
        time, energy, value = ScoreKernel(1e9, 0.0).evaluate(vector)
        assert time == pytest.approx(3.0)
        assert energy == pytest.approx(100.0)
        assert value == pytest.approx(300.0)

    def test_inactive_server_pays_boot(self):
        vector = make_vector(
            flops_per_core=1e9,
            boot_time=10.0,
            boot_power=50.0,
            mean_power=100.0,
            available=False,
        )
        time, energy, _ = ScoreKernel(1e9, 0.0).evaluate(vector)
        assert time == pytest.approx(11.0)
        assert energy == pytest.approx(10.0 * 50.0 + 100.0)

    def test_energy_reads_the_dynamic_power_not_the_nameplate(self):
        vector = make_vector(mean_power=100.0, peak_power=400.0, flops_per_core=1e9)
        _, energy, _ = ScoreKernel(1e9, 0.0).evaluate(vector)
        assert energy == pytest.approx(100.0)

    def test_preference_moves_only_the_score(self):
        vector = make_vector(
            flops_per_core=1e9, waiting_time=1.0, mean_power=100.0, available=True
        )
        neutral = ScoreKernel(4e9, 0.0).evaluate(vector)
        greener = ScoreKernel(4e9, 0.5).evaluate(vector)
        assert greener[:2] == neutral[:2] == pytest.approx((5.0, 400.0))
        assert greener[2] == pytest.approx(5.0 ** preference_exponent(0.5) * 400.0)


def _scalar_reference(vector, *, flop, user_preference):
    """Equations 4–6 through the scalar functions, request-level checks first."""
    ensure_non_negative(flop, "flop")
    preference_exponent(user_preference)
    active = vector.available
    flops = vector.get(EstimationTags.FLOPS_PER_CORE)
    waiting = vector.get(EstimationTags.WAITING_TIME, 0.0)
    boot_time = vector.get(EstimationTags.BOOT_TIME, 0.0)
    boot_power = vector.get(EstimationTags.BOOT_POWER, 0.0)
    full_load_power = vector.get(EstimationTags.MEAN_POWER)
    time = completion_time(
        flop, flops, active=active, waiting_time=waiting, boot_time=boot_time
    )
    energy = energy_consumption(
        flop, flops, active=active, full_load_power=full_load_power,
        boot_time=boot_time, boot_power=boot_power,
    )
    return time, energy, score(time, energy, user_preference)


def _outcome(fn):
    try:
        return fn()
    except (KeyError, TypeError, ValueError) as error:
        return type(error), str(error)


#: Tag values: valid floats, ints and numpy floats, zero, negatives, a bool.
_VALUES = st.sampled_from(
    [0.0, 1.0, 60.0, 150.0, 2.5e9, 3, 2_000_000_000, np.float64(1.5e9), -1.0, True]
)
_TAGS = (
    EstimationTags.FLOPS_PER_CORE,
    EstimationTags.WAITING_TIME,
    EstimationTags.BOOT_TIME,
    EstimationTags.BOOT_POWER,
    EstimationTags.MEAN_POWER,
    EstimationTags.PEAK_POWER,
)


class TestScoreKernel:
    """The kernel == the scalar functions."""

    @settings(max_examples=300)
    @given(
        overrides=st.dictionaries(st.sampled_from(_TAGS), _VALUES, max_size=4),
        missing=st.lists(st.sampled_from(_TAGS), max_size=2),
        available=st.booleans(),
        flop=st.sampled_from([0.0, -1.0, 1e9, 4e12, 7, np.float64(2.5e9)]),
        preference=st.sampled_from([0.0, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0, 1.5]),
    )
    def test_matches_scalar_functions_bit_for_bit(
        self, overrides, missing, available, flop, preference
    ):
        vector = make_vector(
            flops_per_core=1.7e9, waiting_time=12.5, mean_power=180.0,
            peak_power=240.0, boot_power=150.0, boot_time=60.0, available=available,
        )
        # Raw writes: ``set`` would coerce ints/bools to float.
        vector.values.update(overrides)
        for tag in missing:
            vector.values.pop(tag, None)
        expected = _outcome(lambda: _scalar_reference(
            vector, flop=flop, user_preference=preference
        ))
        kernel = _outcome(lambda: ScoreKernel(flop, preference).evaluate(vector))
        assert kernel == expected
        if not isinstance(expected[0], type):
            assert [type(value) for value in kernel] == [type(value) for value in expected]

    @pytest.mark.parametrize(
        ("flop", "tags", "error"),
        [
            (1e9, {EstimationTags.FLOPS_PER_CORE: 0.0}, "flops_per_second must be > 0, got 0.0"),
            (1e9, {EstimationTags.WAITING_TIME: -1.0}, "waiting_time must be >= 0, got -1.0"),
            (1e9, {EstimationTags.BOOT_TIME: -2.0}, "boot_time must be >= 0, got -2.0"),
            (1e9, {EstimationTags.MEAN_POWER: -5.0}, "full_load_power must be >= 0, got -5.0"),
            (1e9, {EstimationTags.BOOT_POWER: -1.0}, "boot_power must be >= 0, got -1.0"),
            (-1.0, {}, "flop must be >= 0, got -1.0"),
            (0.0, {}, "time must be > 0, got 0.0"),
        ],
    )
    @pytest.mark.parametrize("available", [True, False])
    def test_error_cases(self, flop, tags, error, available):
        vector = make_vector(available=available, boot_time=0.0)
        for tag, value in tags.items():
            vector.set(tag, value)
        with pytest.raises(ValueError, match=f"^{error}$"):
            ScoreKernel(flop, 0.0).evaluate(vector)
