"""Tests for provider/user preferences (Equations 1-3)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.preferences import ProviderPreference, UserPreference, combine_preferences


class TestProviderPreference:
    def test_equation1_value(self):
        preference = ProviderPreference(alpha=0.5, beta=0.5)
        # alpha*(1-c) + beta*u
        assert preference.value(utilization=0.4, electricity_cost=0.2) == pytest.approx(
            0.5 * 0.8 + 0.5 * 0.4
        )

    def test_result_bounded_in_unit_interval(self):
        preference = ProviderPreference(alpha=0.5, beta=0.5)
        assert 0.0 <= preference.value(0.0, 1.0) <= 1.0
        assert 0.0 <= preference.value(1.0, 0.0) <= 1.0

    def test_cheap_energy_raises_preference(self):
        preference = ProviderPreference(alpha=1.0, beta=0.0)
        assert preference.value(0.0, 0.2) > preference.value(0.0, 0.9)

    def test_high_utilisation_raises_preference(self):
        preference = ProviderPreference(alpha=0.0, beta=1.0)
        assert preference.value(0.9, 0.5) > preference.value(0.1, 0.5)

    def test_weights_must_not_exceed_one(self):
        with pytest.raises(ValueError):
            ProviderPreference(alpha=0.8, beta=0.5)

    def test_weights_must_not_be_all_zero(self):
        with pytest.raises(ValueError):
            ProviderPreference(alpha=0.0, beta=0.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            ProviderPreference(alpha=-0.1, beta=0.5)

    def test_inputs_validated(self):
        preference = ProviderPreference()
        with pytest.raises(ValueError):
            preference.value(1.5, 0.5)
        with pytest.raises(ValueError):
            preference.value(0.5, -0.1)

    @given(
        alpha=st.floats(min_value=0.01, max_value=0.99),
        utilization=st.floats(min_value=0, max_value=1),
        cost=st.floats(min_value=0, max_value=1),
    )
    def test_equation1_always_in_unit_interval(self, alpha, utilization, cost):
        preference = ProviderPreference(alpha=alpha, beta=1.0 - alpha)
        value = preference.value(utilization, cost)
        assert -1e-9 <= value <= 1.0 + 1e-9


class TestUserPreference:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            UserPreference(1.2)
        with pytest.raises(ValueError):
            UserPreference(-1.2)


class TestCombinePreferences:
    def test_equation3_formula(self):
        assert combine_preferences(0.5, 0.4) == pytest.approx(0.5 * (0.4 - 1.0))

    def test_zero_provider_neutralises_user(self):
        assert combine_preferences(0.0, -1.0) == 0.0
        assert combine_preferences(0.0, 1.0) == 0.0

    def test_range(self):
        assert combine_preferences(1.0, -1.0) == -2.0
        assert combine_preferences(1.0, 1.0) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            combine_preferences(1.5, 0.0)
        with pytest.raises(ValueError):
            combine_preferences(0.5, -1.5)

    @given(
        provider=st.floats(min_value=0, max_value=1),
        user=st.floats(min_value=-1, max_value=1),
    )
    def test_result_always_in_expected_interval(self, provider, user):
        combined = combine_preferences(provider, user)
        assert -2.0 - 1e-9 <= combined <= 0.0 + 1e-9
