"""Tests for the ignore-stragglers (approximate gradient) extension scheme."""

import numpy as np
import pytest

from repro.datasets.synthetic import make_linear_regression_data
from repro.exceptions import ConfigurationError, DecodingError
from repro.gradients.evaluation import full_gradient
from repro.gradients.least_squares import LeastSquaresLoss
from repro.schemes.approximate import IgnoreStragglersScheme, PartialSumAggregator
from repro.schemes.registry import scheme_from_config
from repro.simulation.execution import distributed_gradient


class TestPartialSumAggregator:
    def test_completes_after_required_count(self):
        aggregator = PartialSumAggregator(
            required_count=2, worker_example_counts=np.array([3, 3, 3]), total_examples=9
        )
        assert not aggregator.receive(0, np.array([1.0]))
        assert aggregator.receive(2, np.array([2.0]))

    def test_decode_rescales_partial_sum(self):
        aggregator = PartialSumAggregator(
            required_count=2, worker_example_counts=np.array([3, 3, 3]), total_examples=9
        )
        aggregator.receive(0, np.array([1.0]))
        aggregator.receive(1, np.array([2.0]))
        # Covered 6 of 9 examples -> scale 1.5.
        np.testing.assert_allclose(aggregator.decode(), [4.5])
        assert aggregator.covered_examples == 6

    def test_idle_workers_do_not_count(self):
        aggregator = PartialSumAggregator(
            required_count=1, worker_example_counts=np.array([0, 4]), total_examples=4
        )
        assert not aggregator.receive(0, np.array([7.0]))
        assert aggregator.receive(1, np.array([1.0]))
        np.testing.assert_allclose(aggregator.decode(), [1.0])

    def test_decode_before_completion_raises(self):
        aggregator = PartialSumAggregator(
            required_count=2, worker_example_counts=np.array([1, 1]), total_examples=2
        )
        aggregator.receive(0, np.array([1.0]))
        with pytest.raises(DecodingError):
            aggregator.decode()


class TestIgnoreStragglersScheme:
    def test_wait_fraction_validation(self):
        with pytest.raises((ValueError, ConfigurationError)):
            IgnoreStragglersScheme(wait_fraction=0.0)
        with pytest.raises(ValueError):
            IgnoreStragglersScheme(wait_fraction=1.2)

    def test_full_fraction_equals_uncoded_behaviour(self, rng):
        dataset, _ = make_linear_regression_data(20, 3, seed=0)
        model = LeastSquaresLoss()
        weights = rng.standard_normal(3)
        plan = IgnoreStragglersScheme(wait_fraction=1.0).build_plan(20, 5)
        gradient, heard = distributed_gradient(
            plan, model, dataset, weights, rng.permutation(5)
        )
        assert heard == 5
        np.testing.assert_allclose(
            gradient, full_gradient(model, dataset, weights), atol=1e-10
        )

    def test_partial_fraction_stops_early_and_approximates(self, rng):
        dataset, _ = make_linear_regression_data(40, 4, seed=1)
        model = LeastSquaresLoss()
        weights = rng.standard_normal(4)
        plan = IgnoreStragglersScheme(wait_fraction=0.5).build_plan(40, 8)
        gradient, heard = distributed_gradient(
            plan, model, dataset, weights, rng.permutation(8)
        )
        assert heard == 4
        exact = full_gradient(model, dataset, weights)
        # The estimate is not exact but must be in the right ballpark
        # (within ~the norm of the exact gradient for Gaussian data).
        assert np.linalg.norm(gradient - exact) < np.linalg.norm(exact)

    def test_expected_threshold_and_load(self):
        scheme = IgnoreStragglersScheme(wait_fraction=0.6)
        assert scheme.expected_recovery_threshold(100, 50) == 30.0
        assert scheme.expected_communication_load(100, 50) == 30.0

    def test_registry_entry(self):
        assert isinstance(
            scheme_from_config("ignore-stragglers"), IgnoreStragglersScheme
        )

    def test_timing_only_mode(self):
        plan = IgnoreStragglersScheme(wait_fraction=0.5).build_plan(10, 4)
        aggregator = plan.new_aggregator()
        assert not aggregator.receive(0, None)
        assert aggregator.receive(1, None)
        with pytest.raises(DecodingError):
            aggregator.decode()


class TestTimeBudgetAblation:
    def test_exactness_under_time_budget_shapes(self):
        from repro.experiments.ablations import exactness_under_time_budget

        rows = exactness_under_time_budget(
            time_budgets=(0.5, 4.0), max_iterations=60, rng=0
        )
        assert [row["time_budget"] for row in rows] == [0.5, 4.0]
        # Losses fall as the budget grows, for every scheme.
        for key in ("uncoded_loss", "ignore_stragglers_loss", "bcc_loss"):
            assert rows[1][key] <= rows[0][key] + 1e-9
        # Ignoring stragglers beats waiting for everyone under a tight budget,
        # and exact BCC is at least as good as the approximation at the
        # largest budget.
        assert rows[0]["ignore_stragglers_loss"] <= rows[0]["uncoded_loss"] + 1e-9
        assert rows[1]["bcc_loss"] <= rows[1]["ignore_stragglers_loss"] + 1e-6
