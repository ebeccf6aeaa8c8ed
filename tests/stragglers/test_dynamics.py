"""Tests for the time-varying straggler processes."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.stragglers.base import DelayModel
from repro.stragglers.dynamics import (
    UNAVAILABLE,
    DriftingDelay,
    MarkovModulatedDelay,
    PreemptionModel,
    ScaledDelay,
    UnavailableDelay,
    available_processes,
    process_from_config,
    scale_delay,
)
from repro.stragglers.models import (
    BimodalStragglerDelay,
    DeterministicDelay,
    ExponentialDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
    TraceDelay,
)


class TestUnavailableDelay:
    def test_samples_are_infinite(self):
        model = UnavailableDelay()
        assert model.sample(10) == float("inf")
        assert np.all(np.isinf(model.sample(10, size=4)))
        assert model.mean(3) == float("inf")
        assert model.cdf(3, 1e12) == 0.0

    def test_consumes_no_randomness(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        UnavailableDelay().sample(5, rng=rng)
        assert rng.bit_generator.state == state

    def test_generic_grid_with_unavailable_cells_skips_their_draws(self):
        # A mixed row must consume the stream exactly like drawing only the
        # available workers in index order.
        fast = ShiftedExponentialDelay(2.0, 0.1)
        row = [fast, UNAVAILABLE, fast]
        grid = DelayModel.sample_grid(row, [7, 7, 7], np.random.default_rng(3), 2)
        reference = np.random.default_rng(3)
        for i in range(2):
            assert grid[i, 0] == fast.sample(7, rng=reference)
            assert np.isinf(grid[i, 1])
            assert grid[i, 2] == fast.sample(7, rng=reference)


class TestScaleDelay:
    def test_identity_factor_returns_the_model(self):
        model = ShiftedExponentialDelay(1.0, 0.5)
        assert scale_delay(model, 1.0) is model

    def test_shift_exponential_reparameterisation(self):
        scaled = scale_delay(ShiftedExponentialDelay(2.0, 0.5), 4.0)
        assert isinstance(scaled, ShiftedExponentialDelay)
        assert scaled.straggling == pytest.approx(0.5)
        assert scaled.shift == pytest.approx(2.0)
        # Same stream, scaled draw: both consume one exponential.
        base_draw = ShiftedExponentialDelay(2.0, 0.5).sample(
            9, rng=np.random.default_rng(1)
        )
        scaled_draw = scaled.sample(9, rng=np.random.default_rng(1))
        assert scaled_draw == pytest.approx(4.0 * base_draw)

    def test_exponential_subclass_scales_through_the_native_path(self):
        scaled = scale_delay(ExponentialDelay(3.0), 2.0)
        assert isinstance(scaled, ShiftedExponentialDelay)
        assert scaled.straggling == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "model",
        [
            DeterministicDelay(0.25),
            ParetoDelay(alpha=2.5, scale=0.1),
            TraceDelay([0.1, 0.2, 0.4]),
        ],
    )
    def test_native_families_scale_in_closed_form(self, model):
        scaled = scale_delay(model, 3.0)
        assert type(scaled) is type(model)
        base_draw = model.sample(5, rng=np.random.default_rng(8))
        scaled_draw = scaled.sample(5, rng=np.random.default_rng(8))
        assert scaled_draw == pytest.approx(3.0 * base_draw)

    def test_unknown_model_gets_the_wrapper(self):
        model = BimodalStragglerDelay()
        scaled = scale_delay(model, 2.0)
        assert isinstance(scaled, ScaledDelay)
        base_draw = model.sample(5, rng=np.random.default_rng(4))
        assert scaled.sample(5, rng=np.random.default_rng(4)) == pytest.approx(
            2.0 * base_draw
        )
        assert scaled.mean(5) == pytest.approx(2.0 * model.mean(5))

    def test_overridden_sampler_gets_the_wrapper(self):
        class Tweaked(ShiftedExponentialDelay):
            def sample(self, load, rng=None, size=None):
                return super().sample(load, rng=rng, size=size) + 1.0

        scaled = scale_delay(Tweaked(1.0, 0.0), 2.0)
        assert isinstance(scaled, ScaledDelay)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            scale_delay(DeterministicDelay(1.0), 0.0)


class TestMarkovModulatedDelay:
    def test_timeline_alternates_between_two_models(self):
        base = ShiftedExponentialDelay(1.0, 0.1)
        process = MarkovModulatedDelay(slowdown=5.0, p_slow=0.5, p_recover=0.5)
        models = process.timeline(base, 200, np.random.default_rng(0))
        assert len(models) == 200
        distinct = {id(model) for model in models}
        assert len(distinct) == 2  # the base model and one slow model
        slow = next(m for m in models if m is not base)
        assert slow.straggling == pytest.approx(0.2)
        assert any(m is base for m in models)

    def test_start_slow_begins_in_the_slow_regime(self):
        base = DeterministicDelay(1.0)
        process = MarkovModulatedDelay(slowdown=2.0, p_slow=0.0, p_recover=0.0,
                                       start_slow=True)
        models = process.timeline(base, 5, np.random.default_rng(0))
        assert all(m.seconds_per_example == pytest.approx(2.0) for m in models)

    def test_consumption_is_fixed_per_call(self):
        # Two different bases, same generator seed: identical draw usage.
        process = MarkovModulatedDelay(slowdown=3.0, p_slow=0.3)
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        process.timeline(ShiftedExponentialDelay(1.0), 50, rng_a)
        process.timeline(DeterministicDelay(1.0), 50, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestDriftingDelay:
    def test_geometric_interpolation_endpoints(self):
        base = DeterministicDelay(1.0)
        models = DriftingDelay(final_factor=4.0).timeline(base, 3)
        rates = [m.seconds_per_example for m in models]
        assert rates == pytest.approx([1.0, 2.0, 4.0])

    def test_single_iteration_uses_the_initial_factor(self):
        base = DeterministicDelay(1.0)
        (model,) = DriftingDelay(final_factor=9.0, initial_factor=3.0).timeline(
            base, 1
        )
        assert model.seconds_per_example == pytest.approx(3.0)

    def test_draws_no_randomness(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        DriftingDelay().timeline(DeterministicDelay(1.0), 10, rng)
        assert rng.bit_generator.state == state


class TestPreemptionModel:
    def test_recovery_window_is_honoured(self):
        process = PreemptionModel(preempt_probability=1.0, recovery_iterations=3)
        models = process.timeline(DeterministicDelay(1.0), 7, np.random.default_rng(0))
        # Preempted immediately; down for 3, then immediately preempted again.
        assert all(isinstance(m, UnavailableDelay) for m in models[:3])

    def test_zero_probability_never_preempts(self):
        base = DeterministicDelay(1.0)
        models = PreemptionModel(preempt_probability=0.0).timeline(
            base, 20, np.random.default_rng(0)
        )
        assert all(m is base for m in models)

    def test_consumption_independent_of_realised_kills(self):
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        PreemptionModel(preempt_probability=1.0).timeline(
            DeterministicDelay(1.0), 30, rng_a
        )
        PreemptionModel(preempt_probability=0.0).timeline(
            DeterministicDelay(1.0), 30, rng_b
        )
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestProcessRegistry:
    def test_builtin_processes_are_registered(self):
        assert {"markov", "drift", "preempt"} <= set(available_processes())

    def test_from_config_round_trip(self):
        process = process_from_config({"name": "markov", "slowdown": 6.0})
        assert isinstance(process, MarkovModulatedDelay)
        assert process.slowdown == pytest.approx(6.0)
        assert isinstance(process_from_config("drift"), DriftingDelay)
        preempt = PreemptionModel()
        assert process_from_config(preempt) is preempt

    def test_unknown_name_and_bad_parameters_raise(self):
        with pytest.raises(ConfigurationError, match="unknown process"):
            process_from_config("no-such-process")
        with pytest.raises(ConfigurationError, match="rejected its parameters"):
            process_from_config({"name": "markov", "bogus": 1})
        with pytest.raises(ConfigurationError, match="'name' key"):
            process_from_config({"slowdown": 2.0})

