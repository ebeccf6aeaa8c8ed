"""Tests for the straggler delay models."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.stragglers.base import DelayModel
from repro.stragglers.models import (
    BimodalStragglerDelay,
    DeterministicDelay,
    ExponentialDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
    TraceDelay,
)


class TestShiftedExponential:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ShiftedExponentialDelay(straggling=0.0)
        with pytest.raises(ValueError):
            ShiftedExponentialDelay(straggling=1.0, shift=-1.0)

    def test_samples_respect_shift(self, rng):
        model = ShiftedExponentialDelay(straggling=1.0, shift=2.0)
        samples = model.sample(load=3, rng=rng, size=1000)
        assert samples.min() >= 6.0  # shift * load

    def test_mean_formula(self):
        model = ShiftedExponentialDelay(straggling=2.0, shift=1.0)
        # mean = a*r + r/mu = 10 + 5
        assert model.mean(10) == pytest.approx(15.0)

    def test_empirical_mean_close_to_formula(self, rng):
        model = ShiftedExponentialDelay(straggling=2.0, shift=0.5)
        samples = model.sample(load=4, rng=rng, size=20000)
        assert np.mean(samples) == pytest.approx(model.mean(4), rel=0.05)

    def test_cdf_matches_paper_formula(self):
        model = ShiftedExponentialDelay(straggling=2.0, shift=1.0)
        load = 5
        t = 10.0
        expected = 1.0 - np.exp(-(2.0 / 5) * (t - 1.0 * 5))
        assert model.cdf(load, t) == pytest.approx(expected)
        assert model.cdf(load, 4.9) == 0.0

    def test_cdf_empirical_agreement(self, rng):
        model = ShiftedExponentialDelay(straggling=1.0, shift=0.2)
        load = 3
        samples = model.sample(load, rng=rng, size=20000)
        for t in [1.0, 3.0, 6.0]:
            empirical = np.mean(samples <= t)
            assert empirical == pytest.approx(model.cdf(load, t), abs=0.02)

    def test_scalar_vs_array_sampling(self, rng):
        model = ShiftedExponentialDelay()
        assert isinstance(model.sample(1, rng=rng), float)
        assert model.sample(1, rng=rng, size=5).shape == (5,)

    def test_load_must_be_positive(self):
        with pytest.raises(ValueError):
            ShiftedExponentialDelay().sample(0)

    def test_exponential_subclass_has_zero_shift(self):
        model = ExponentialDelay(straggling=3.0)
        assert model.shift == 0.0
        assert model.mean(6) == pytest.approx(2.0)


class TestDeterministic:
    def test_no_randomness(self, rng):
        model = DeterministicDelay(seconds_per_example=0.5)
        samples = model.sample(4, rng=rng, size=10)
        np.testing.assert_allclose(samples, 2.0)
        assert model.sample(4, rng=rng) == 2.0

    def test_cdf_is_step(self):
        model = DeterministicDelay(seconds_per_example=1.0)
        assert model.cdf(3, 2.9) == 0.0
        assert model.cdf(3, 3.0) == 1.0

    def test_mean(self):
        assert DeterministicDelay(2.0).mean(3) == 6.0


class TestPareto:
    def test_minimum_value(self, rng):
        model = ParetoDelay(alpha=2.0, scale=1.0)
        samples = model.sample(2, rng=rng, size=5000)
        assert samples.min() >= 2.0

    def test_mean_formula_and_infinite_mean(self):
        assert ParetoDelay(alpha=2.0, scale=1.0).mean(1) == pytest.approx(2.0)
        # An infinite mean is a library-domain failure, not a bare ValueError,
        # so callers catching ReproError handle it uniformly.
        with pytest.raises(ConfigurationError):
            ParetoDelay(alpha=1.0).mean(1)
        with pytest.raises(ReproError):
            ParetoDelay(alpha=0.5).mean(3)

    def test_cdf(self):
        model = ParetoDelay(alpha=2.0, scale=1.0)
        assert model.cdf(1, 0.5) == 0.0
        assert model.cdf(1, 2.0) == pytest.approx(1 - 0.25)

    def test_heavy_tail_vs_exponential(self, rng):
        pareto = ParetoDelay(alpha=1.5, scale=1.0)
        samples = pareto.sample(1, rng=rng, size=50000)
        # A Pareto(1.5) has far more mass beyond 10x the minimum than an
        # exponential with the same scale would.
        assert np.mean(samples > 10.0) > 0.01


class TestBimodal:
    def test_straggler_fraction(self, rng):
        model = BimodalStragglerDelay(
            seconds_per_example=1.0, straggle_probability=0.2, slowdown=10.0, jitter=0.0
        )
        samples = model.sample(1, rng=rng, size=20000)
        slow_fraction = np.mean(samples > 5.0)
        assert slow_fraction == pytest.approx(0.2, abs=0.02)

    def test_mean_formula(self):
        model = BimodalStragglerDelay(
            seconds_per_example=1.0, straggle_probability=0.5, slowdown=3.0, jitter=0.0
        )
        assert model.mean(2) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BimodalStragglerDelay(straggle_probability=1.5)
        with pytest.raises(ValueError):
            BimodalStragglerDelay(slowdown=0.5)


class TestTrace:
    def test_replay_scales_with_load(self, rng):
        model = TraceDelay([0.5])
        assert model.sample(4, rng=rng) == pytest.approx(2.0)
        assert model.mean(4) == pytest.approx(2.0)

    def test_samples_come_from_trace(self, rng):
        model = TraceDelay([1.0, 2.0])
        samples = model.sample(1, rng=rng, size=1000)
        assert set(np.unique(samples)).issubset({1.0, 2.0})

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceDelay([])
        with pytest.raises(ValueError):
            TraceDelay([1.0, -2.0])
        with pytest.raises(ValueError):
            TraceDelay([np.inf])


class TestBatchedSampling:
    """The stream contract behind the vectorized engine's equivalence."""

    def _scalar_grid(self, models, loads, seed, num_draws):
        generator = np.random.default_rng(seed)
        return np.array(
            [
                [model.sample(load, rng=generator) for model, load in zip(models, loads)]
                for _ in range(num_draws)
            ]
        )

    @pytest.mark.parametrize(
        "models",
        [
            [ShiftedExponentialDelay(1.0, 0.1), ShiftedExponentialDelay(4.0, 0.0)],
            [ShiftedExponentialDelay(1.0), ExponentialDelay(3.0)],
            [DeterministicDelay(1.0), DeterministicDelay(0.25)],
            [ParetoDelay(2.0, 1.0), ParetoDelay(3.5, 0.2)],
            [TraceDelay([0.2, 0.8]), TraceDelay([0.2, 0.8])],
        ],
        ids=["shift-exp", "mixed-exp-subclass", "deterministic", "pareto", "trace"],
    )
    def test_sample_grid_matches_scalar_loop(self, models):
        loads = [3, 7]
        grid = type(models[0]).sample_grid(
            models, loads, rng=np.random.default_rng(11), num_draws=20
        )
        scalar = self._scalar_grid(models, loads, seed=11, num_draws=20)
        assert grid.shape == (20, 2)
        np.testing.assert_array_equal(grid, scalar)

    def test_sample_grid_mixed_classes_falls_back_identically(self):
        models = [ShiftedExponentialDelay(1.0), ParetoDelay(2.0), BimodalStragglerDelay()]
        loads = [2, 4, 6]
        grid = type(models[0]).sample_grid(
            models, loads, rng=np.random.default_rng(5), num_draws=10
        )
        scalar = self._scalar_grid(models, loads, seed=5, num_draws=10)
        np.testing.assert_array_equal(grid, scalar)

    def test_sample_grid_mixed_traces_fall_back_identically(self):
        models = [TraceDelay([0.1, 0.2]), TraceDelay([0.3, 0.4, 0.5])]
        loads = [1, 2]
        grid = TraceDelay.sample_grid(
            models, loads, rng=np.random.default_rng(9), num_draws=15
        )
        scalar = self._scalar_grid(models, loads, seed=9, num_draws=15)
        np.testing.assert_array_equal(grid, scalar)

    def test_sample_grid_validates_loads(self):
        models = [DeterministicDelay(1.0), DeterministicDelay(1.0)]
        with pytest.raises(ValueError):
            DeterministicDelay.sample_grid(models, [1, 0], num_draws=2)
        with pytest.raises(ValueError):
            DeterministicDelay.sample_grid(models, [1], num_draws=2)

    def test_generic_fallback_is_the_base_implementation(self):
        # The base-class grid must accept arbitrary model mixes — it is the
        # correctness anchor every override defers to.
        models = [BimodalStragglerDelay(), TraceDelay([1.0])]
        grid = DelayModel.sample_grid(models, [2, 3], rng=0, num_draws=4)
        scalar = self._scalar_grid(models, [2, 3], seed=0, num_draws=4)
        np.testing.assert_array_equal(grid, scalar)
