"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.validation import (
    check_array_1d,
    check_array_2d,
    check_in_range,
    check_nonnegative,
    check_positive_int,
    check_probability,
)


class TestCheckPositiveInt:
    def test_accepts_plain_int(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int32(7), "x") == 7

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(-2, "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(2.0, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_error_message_contains_name(self):
        with pytest.raises(ValueError, match="my_param"):
            check_positive_int(0, "my_param")


class TestCheckNonnegative:
    def test_accepts_zero_and_positive(self):
        assert check_nonnegative(0, "x") == 0.0
        assert check_nonnegative(2.5, "x") == 2.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative(-1e-9, "x")

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            check_nonnegative(float("nan"), "x")
        with pytest.raises(ValueError):
            check_nonnegative(float("inf"), "x")


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_probability(value, "p")


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(1.0, "x", low=1.0, high=2.0) == 1.0
        assert check_in_range(2.0, "x", low=1.0, high=2.0) == 2.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_in_range(1.0, "x", low=1.0, inclusive=False)
        with pytest.raises(ValueError):
            check_in_range(2.0, "x", high=2.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_in_range(0.5, "x", low=1.0)
        with pytest.raises(ValueError):
            check_in_range(3.0, "x", high=2.0)

    @pytest.mark.parametrize(
        "bounds",
        [{}, {"low": 0.0}, {"high": 1.0}, {"low": 0.0, "inclusive": False}],
        ids=["unbounded", "low", "high", "exclusive"],
    )
    def test_rejects_nan(self, bounds):
        # NaN compares false against every bound, so no bound catches it.
        with pytest.raises(ConfigurationError, match="x must be a number, got nan"):
            check_in_range(float("nan"), "x", **bounds)


class TestArrayChecks:
    def test_check_array_1d_coerces_lists(self):
        result = check_array_1d([1, 2, 3], "v")
        assert result.dtype == float
        assert result.shape == (3,)

    def test_check_array_1d_length(self):
        with pytest.raises(ValueError):
            check_array_1d([1, 2], "v", length=3)

    def test_check_array_1d_rejects_2d(self):
        with pytest.raises(ValueError):
            check_array_1d(np.zeros((2, 2)), "v")

    def test_check_array_2d_shape_checks(self):
        matrix = check_array_2d([[1, 2], [3, 4]], "m", rows=2, cols=2)
        assert matrix.shape == (2, 2)
        with pytest.raises(ValueError):
            check_array_2d(matrix, "m", rows=3)
        with pytest.raises(ValueError):
            check_array_2d(matrix, "m", cols=3)

    def test_check_array_2d_rejects_1d(self):
        with pytest.raises(ValueError):
            check_array_2d([1, 2, 3], "m")
