"""Unit tests of the closed-form runtime estimators in repro.analysis.analytic."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.analysis import analytic
from repro.analysis.analytic import (
    AnalyticIteration,
    _sum_in_order,
    coupon_threshold_pmf,
    expected_arrivals_until_group_complete,
    fractional_group_runtime,
    homogeneous_compute_parameters,
    maximum_runtime,
    normal_quantile,
    order_statistic_runtime,
    randomized_threshold_pmf,
    transfer_parameters,
    worker_compute_parameters,
)
from repro.analysis.coupon import (
    coverage_probability_after_draws,
    expected_coupon_draws,
    harmonic_number,
)
from repro.analysis.order_statistics import expected_kth_exponential_order_statistic
from repro.cluster.spec import ClusterSpec
from repro.exceptions import AnalyticIntractableError
from repro.stragglers.communication import (
    CommunicationModel,
    LinearCommunicationModel,
    ZeroCommunicationModel,
)
from repro.stragglers.models import (
    BimodalStragglerDelay,
    DeterministicDelay,
    ExponentialDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
)


class TestParameterExtraction:
    def test_shift_exponential_parameters(self):
        det, tail = worker_compute_parameters(
            ShiftedExponentialDelay(straggling=4.0, shift=0.5)
        )
        assert det == 0.5
        assert tail == 0.25

    def test_deterministic_parameters(self):
        det, tail = worker_compute_parameters(DeterministicDelay(0.125))
        assert det == 0.125
        assert tail == 0.0

    @pytest.mark.parametrize(
        "model", [ParetoDelay(), BimodalStragglerDelay()], ids=["pareto", "bimodal"]
    )
    def test_unsupported_delay_models_raise(self, model):
        with pytest.raises(AnalyticIntractableError, match="no closed-form"):
            worker_compute_parameters(model)

    def test_sample_override_raises(self):
        class Custom(ShiftedExponentialDelay):
            def sample(self, load, rng=None, size=None):  # pragma: no cover
                return 0.0

        with pytest.raises(AnalyticIntractableError, match="overrides sample"):
            worker_compute_parameters(Custom())

    def test_heterogeneous_cluster_rejected_for_homogeneous_forms(self):
        cluster = ClusterSpec.shifted_exponential([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(AnalyticIntractableError, match="homogeneous"):
            homogeneous_compute_parameters(cluster)

    def test_transfer_parameters(self):
        fixed, jitter = transfer_parameters(
            LinearCommunicationModel(latency=0.1, seconds_per_unit=0.5, jitter=0.2),
            3.0,
        )
        assert fixed == pytest.approx(0.1 + 1.5)
        assert jitter == 0.2
        assert transfer_parameters(ZeroCommunicationModel(), 5.0) == (0.0, 0.0)

    def test_unknown_communication_model_raises(self):
        class Weird(CommunicationModel):
            def sample(self, message_size, rng=None, size=None):  # pragma: no cover
                return 1.0

            def mean(self, message_size):  # pragma: no cover
                return 1.0

        with pytest.raises(AnalyticIntractableError, match="transfer model"):
            transfer_parameters(Weird(), 1.0)


class TestNormalQuantile:
    def test_reference_values(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-8)
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-4)
        assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-4)
        assert normal_quantile(0.9) == pytest.approx(1.281552, abs=1e-4)

    def test_rejects_degenerate_levels(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)


class TestCouponThresholdPmf:
    def test_matches_exact_inclusion_exclusion(self):
        num_types, num_workers = 8, 40
        pmf = coupon_threshold_pmf(num_types, num_workers)
        total = coverage_probability_after_draws(num_types, num_workers)
        previous = 0.0
        for draws in range(num_types, num_workers + 1):
            current = coverage_probability_after_draws(num_types, draws)
            assert pmf.get(draws, 0.0) == pytest.approx(
                (current - previous) / total, abs=1e-12
            )
            previous = current
        assert sum(pmf.values()) == pytest.approx(1.0)

    def test_mean_approaches_unconditional_expectation(self):
        # With a generous worker cap the conditioning is negligible.
        pmf = coupon_threshold_pmf(10, 400)
        mean = sum(k * p for k, p in pmf.items())
        assert mean == pytest.approx(expected_coupon_draws(10), rel=1e-6)

    def test_infeasible_raises(self):
        with pytest.raises(AnalyticIntractableError, match="impossible"):
            coupon_threshold_pmf(10, 5)

    def test_oversized_problem_falls_back_to_none(self):
        assert coupon_threshold_pmf(10_000, 10_000) is None


class TestGroupCompletionIndex:
    def test_single_group_needs_every_member(self):
        assert expected_arrivals_until_group_complete(1, 7) == pytest.approx(7.0)

    def test_singleton_groups_complete_on_first_draw(self):
        assert expected_arrivals_until_group_complete(9, 1) == pytest.approx(1.0)

    def test_monte_carlo_agreement(self, rng):
        groups, size = 4, 3
        workers = np.arange(groups * size)
        counts = []
        for _ in range(4000):
            order = rng.permutation(workers)
            seen = np.zeros(groups, dtype=int)
            for position, worker in enumerate(order, start=1):
                group = worker // size
                seen[group] += 1
                if seen[group] == size:
                    counts.append(position)
                    break
        expected = expected_arrivals_until_group_complete(groups, size)
        assert expected == pytest.approx(np.mean(counts), rel=0.02)


class TestOrderStatisticRuntime:
    def test_matches_exponential_order_statistic_exactly(self):
        # No jitter, no deterministic parts: the mean must equal the
        # classical harmonic-sum identity with no approximation error.
        n, k, rate = 20, 15, 2.0
        estimate = order_statistic_runtime(
            scheme="test",
            num_workers=n,
            threshold=float(k),
            compute_deterministic=0.0,
            compute_tail_mean=1.0 / rate,
            transfer_fixed=0.0,
            transfer_jitter_mean=0.0,
            message_size=1.0,
            serialize_master_link=False,
        )
        assert estimate.total_time == pytest.approx(
            expected_kth_exponential_order_statistic(n, k, rate=rate)
        )
        assert estimate.recovery_threshold == k
        assert estimate.mode == "parallel"

    def test_deterministic_models_have_zero_spread(self):
        estimate = order_statistic_runtime(
            scheme="test",
            num_workers=10,
            threshold=10.0,
            compute_deterministic=2.0,
            compute_tail_mean=0.0,
            transfer_fixed=0.5,
            transfer_jitter_mean=0.0,
            message_size=1.0,
            serialize_master_link=False,
        )
        assert estimate.total_time == pytest.approx(2.5)
        assert estimate.variance == 0.0
        assert all(v == pytest.approx(2.5) for v in estimate.quantiles.values())

    def test_quantiles_are_monotone_and_bracket_the_median(self):
        estimate = order_statistic_runtime(
            scheme="test",
            num_workers=30,
            threshold=25.0,
            compute_deterministic=1.0,
            compute_tail_mean=0.5,
            transfer_fixed=0.1,
            transfer_jitter_mean=0.05,
            message_size=1.0,
            serialize_master_link=False,
            quantiles=(0.1, 0.5, 0.9, 0.99),
        )
        values = [estimate.quantiles[q] for q in (0.1, 0.5, 0.9, 0.99)]
        assert values == sorted(values)
        assert values[0] < estimate.total_time < values[-1]

    def test_mixture_mean_is_pmf_weighted(self):
        kwargs = dict(
            scheme="test",
            num_workers=12,
            compute_deterministic=0.0,
            compute_tail_mean=1.0,
            transfer_fixed=0.0,
            transfer_jitter_mean=0.0,
            message_size=1.0,
            serialize_master_link=False,
        )
        mixed = order_statistic_runtime(threshold={4: 0.5, 8: 0.5}, **kwargs)
        low = order_statistic_runtime(threshold=4.0, **kwargs)
        high = order_statistic_runtime(threshold=8.0, **kwargs)
        assert mixed.total_time == pytest.approx(
            0.5 * low.total_time + 0.5 * high.total_time
        )
        assert mixed.recovery_threshold == pytest.approx(6.0)

    def test_serialized_link_charges_the_queue(self):
        # Deterministic compute + deterministic transfers: the serialised
        # master drains n messages back to back, so the exact total is
        # compute + n * transfer.
        estimate = order_statistic_runtime(
            scheme="test",
            num_workers=8,
            threshold=8.0,
            compute_deterministic=1.0,
            compute_tail_mean=0.0,
            transfer_fixed=0.25,
            transfer_jitter_mean=0.0,
            message_size=1.0,
            serialize_master_link=True,
        )
        assert estimate.mode == "serialized"
        assert estimate.total_time == pytest.approx(1.0 + 8 * 0.25)


class TestFractionalGroupRuntime:
    def test_reduces_to_maximum_for_one_group(self):
        n = 12
        estimate = fractional_group_runtime(
            scheme="test",
            num_groups=1,
            group_size=n,
            compute_deterministic=0.0,
            compute_tail_mean=1.0,
            transfer_fixed=0.0,
            transfer_jitter_mean=0.0,
            message_size=1.0,
            serialize_master_link=False,
        )
        assert estimate.total_time == pytest.approx(harmonic_number(n))

    def test_reduces_to_minimum_for_singleton_groups(self):
        n = 12
        estimate = fractional_group_runtime(
            scheme="test",
            num_groups=n,
            group_size=1,
            compute_deterministic=0.0,
            compute_tail_mean=1.0,
            transfer_fixed=0.0,
            transfer_jitter_mean=0.0,
            message_size=1.0,
            serialize_master_link=False,
        )
        # min of n unit-mean exponentials has mean 1/n.
        assert estimate.total_time == pytest.approx(1.0 / n)

    def test_monte_carlo_agreement(self, rng):
        groups, size, tail = 3, 4, 0.7
        samples = rng.exponential(scale=tail, size=(20000, groups, size))
        empirical = samples.max(axis=2).min(axis=1).mean()
        estimate = fractional_group_runtime(
            scheme="test",
            num_groups=groups,
            group_size=size,
            compute_deterministic=0.0,
            compute_tail_mean=tail,
            transfer_fixed=0.0,
            transfer_jitter_mean=0.0,
            message_size=1.0,
            serialize_master_link=False,
        )
        assert estimate.total_time == pytest.approx(empirical, rel=0.02)


class TestMaximumRuntime:
    def test_homogeneous_maximum_matches_harmonic_sum(self):
        n, tail = 15, 0.4
        estimate = maximum_runtime(
            scheme="test",
            arrival_parameters=[(0.0, tail)] * n,
            compute_parameters=[(0.0, tail)] * n,
            communication_load=float(n),
        )
        assert estimate.total_time == pytest.approx(
            tail * harmonic_number(n), rel=1e-3
        )
        assert estimate.recovery_threshold == n

    def test_two_group_maximum_monte_carlo(self, rng):
        fast = rng.exponential(scale=0.2, size=(20000, 5))
        slow = 1.0 + rng.exponential(scale=1.0, size=(20000, 3))
        empirical = np.maximum(fast.max(axis=1), slow.max(axis=1)).mean()
        estimate = maximum_runtime(
            scheme="test",
            arrival_parameters=[(0.0, 0.2)] * 5 + [(1.0, 1.0)] * 3,
            compute_parameters=[(0.0, 0.2)] * 5 + [(1.0, 1.0)] * 3,
            communication_load=8.0,
        )
        assert estimate.total_time == pytest.approx(empirical, rel=0.02)


class TestTotalRuntimeQuantiles:
    def test_single_iteration_passthrough_and_clt_scaling(self):
        estimate = AnalyticIteration(
            scheme="test",
            total_time=2.0,
            computation_time=1.0,
            communication_time=1.0,
            recovery_threshold=3.0,
            communication_load=3.0,
            workers_finished_compute=3.0,
            variance=0.25,
            quantiles={0.5: 2.0, 0.9: 2.5},
            mode="parallel",
        )
        assert estimate.total_runtime_quantiles(1) == {0.5: 2.0, 0.9: 2.5}
        totals = estimate.total_runtime_quantiles(100)
        assert totals[0.5] == pytest.approx(200.0, abs=1e-9)
        # sigma_total = sqrt(100 * 0.25) = 5; the 90th percentile sits
        # ~1.28 sigma above the mean.
        assert totals[0.9] == pytest.approx(200.0 + 5 * 1.281552, abs=1e-3)
        assert estimate.total_runtime_mean(100) == pytest.approx(200.0)


def _compensated_sum(values, start=0):
    """Python 3.12's float ``sum()``: Neumaier-compensated."""
    total, compensation = float(start), 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


def _pmf_estimates() -> list:
    """Every estimate the analytic module reduces a pmf for."""
    pmf = coupon_threshold_pmf(10, 60)
    results = [pmf, randomized_threshold_pmf(40, 6, 60)]
    for serialize in (True, False):
        estimate = order_statistic_runtime(
            scheme="test",
            num_workers=60,
            threshold=pmf,
            compute_deterministic=1.0,
            compute_tail_mean=0.5,
            transfer_fixed=0.1,
            transfer_jitter_mean=0.05,
            message_size=1.0,
            serialize_master_link=serialize,
        )
        results.append(dataclasses.astuple(estimate))
    return results


class TestInterpreterIndependentSums:
    def test_sum_in_order_adds_left_to_right(self):
        # A compensated sum (Python 3.12's sum()) recovers the 1.0.
        assert _compensated_sum([1e16, 1.0, -1e16]) == 1.0
        assert _sum_in_order([1e16, 1.0, -1e16]) == 0.0
        assert _sum_in_order([]) == 0.0

    def test_results_ignore_a_compensated_builtin_sum(self, monkeypatch):
        # Shadow the module's built-in sum() with 3.12's: no estimate moves.
        plain = _pmf_estimates()
        monkeypatch.setattr(analytic, "sum", _compensated_sum, raising=False)
        assert _pmf_estimates() == plain
