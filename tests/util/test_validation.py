"""Tests for repro.util.validation."""

import math
from decimal import Decimal

import numpy as np
import pytest

from repro.util.validation import ensure_in_range, ensure_non_negative, ensure_positive


class TestEnsurePositive:
    def test_accepts_positive_float(self):
        assert ensure_positive(1.5, "x") == 1.5

    def test_accepts_positive_int_and_returns_float(self):
        result = ensure_positive(3, "x")
        assert result == 3.0
        assert isinstance(result, float)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="must be > 0"):
            ensure_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must be > 0"):
            ensure_positive(-2.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ensure_positive(math.nan, "x")

    def test_rejects_infinity(self):
        with pytest.raises(ValueError, match="finite"):
            ensure_positive(math.inf, "x")

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            ensure_positive("5", "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            ensure_positive(True, "x")

    def test_error_message_contains_name(self):
        with pytest.raises(ValueError, match="wattage"):
            ensure_positive(-1, "wattage")


class TestEnsureNonNegative:
    def test_accepts_zero(self):
        assert ensure_non_negative(0.0, "x") == 0.0

    def test_accepts_positive(self):
        assert ensure_non_negative(7.0, "x") == 7.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            ensure_non_negative(-0.001, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ensure_non_negative(math.nan, "x")


class TestEnsureInRange:
    def test_accepts_interior_value(self):
        assert ensure_in_range(0.5, "x", 0.0, 1.0) == 0.5

    def test_accepts_the_bounds(self):
        assert ensure_in_range(0.0, "x", 0.0, 1.0) == 0.0
        assert ensure_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ensure_in_range(1.5, "x", 0.0, 1.0)
        with pytest.raises(ValueError):
            ensure_in_range(-0.5, "x", 0.0, 1.0)

    def test_negative_range(self):
        assert ensure_in_range(-0.5, "x", -1.0, 0.0) == -0.5

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ensure_in_range(math.nan, "x", 0.0, 1.0)


class TestFiniteNumberCheck:
    """The exact-float fast path keeps every other input's outcome and message."""

    @pytest.mark.parametrize(
        ("value", "error", "message"),
        [
            (True, TypeError, "x must be a real number, got bool"),
            (1, None, None),
            (np.float64(1.0), None, None),
            (Decimal("1"), TypeError, "x must be a real number, got Decimal"),
            ("1", TypeError, "x must be a real number, got str"),
            (math.nan, ValueError, "x must be finite, got nan"),
            (math.inf, ValueError, "x must be finite, got inf"),
        ],
    )
    @pytest.mark.parametrize("check", [ensure_positive, ensure_non_negative])
    def test_same_outcome_for_every_input_kind(self, check, value, error, message):
        if error is None:
            assert check(value, "x") == 1.0
            return
        with pytest.raises(error) as caught:
            check(value, "x")
        assert str(caught.value) == message

    def test_range_check_takes_the_same_path(self):
        with pytest.raises(TypeError, match="^x must be a real number, got bool$"):
            ensure_in_range(False, "x", 0.0, 1.0)
        with pytest.raises(ValueError, match="^x must be finite, got inf$"):
            ensure_in_range(math.inf, "x", 0.0, 1.0)

    @pytest.mark.parametrize(
        "check",
        [
            ensure_positive,
            ensure_non_negative,
            lambda value, name: ensure_in_range(value, name, 0, 1),
        ],
        ids=["positive", "non-negative", "in-range"],
    )
    def test_an_int_beyond_the_float_range_is_not_finite(self, check):
        with pytest.raises(ValueError, match="^x must be finite, got 1000"):
            check(10**400, "x")
