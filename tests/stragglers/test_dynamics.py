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


def _markov_reference(process, num_iterations, rng):
    """One worker's regime chain, stepped one iteration at a time."""
    draws = rng.random(num_iterations)
    factors, slow = [], process.start_slow
    for t in range(num_iterations):
        factors.append(process.slowdown if slow else 1.0)
        if draws[t] < (process.p_recover if slow else process.p_slow):
            slow = not slow
    return factors


def _preempt_reference(process, num_iterations, rng):
    """One worker's kill/recover schedule, one iteration at a time."""
    draws = rng.random(num_iterations)
    factors, remaining = [], 0
    for t in range(num_iterations):
        if remaining == 0 and draws[t] < process.preempt_probability:
            remaining = process.recovery_iterations
        factors.append(np.inf if remaining else 1.0)
        remaining -= bool(remaining)
    return factors


class TestMarkovModulatedDelay:
    def test_timeline_alternates_between_two_models(self):
        process = MarkovModulatedDelay(slowdown=5.0, p_slow=0.5, p_recover=0.5)
        factors = process.timeline(200, 1, np.random.default_rng(0))
        assert factors.shape == (200, 1)
        # The base model (factor 1) and one slow model (factor 5).
        assert set(factors.ravel().tolist()) == {1.0, 5.0}
        base = ShiftedExponentialDelay(1.0, 0.1)
        assert scale_delay(base, 5.0).straggling == pytest.approx(0.2)

    def test_start_slow_begins_in_the_slow_regime(self):
        process = MarkovModulatedDelay(slowdown=2.0, p_slow=0.0, p_recover=0.0,
                                       start_slow=True)
        factors = process.timeline(5, 3, np.random.default_rng(0))
        assert np.array_equal(factors, np.full((5, 3), 2.0))

    def test_consumption_is_fixed_per_call(self):
        # Different parameters, same generator seed: identical draw usage.
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        MarkovModulatedDelay(slowdown=3.0, p_slow=0.3).timeline(50, 2, rng_a)
        MarkovModulatedDelay(slowdown=9.0, p_slow=1.0).timeline(50, 2, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("start_slow", [False, True])
    def test_each_column_is_one_workers_chain(self, start_slow):
        process = MarkovModulatedDelay(
            slowdown=4.0, p_slow=0.3, p_recover=0.6, start_slow=start_slow
        )
        factors = process.timeline(40, 3, np.random.default_rng(2))
        reference = np.random.default_rng(2)
        for worker in range(3):
            assert factors[:, worker].tolist() == _markov_reference(
                process, 40, reference
            )


class TestDriftingDelay:
    def test_geometric_interpolation_endpoints(self):
        factors = DriftingDelay(final_factor=4.0).timeline(3, 2)
        assert factors.shape == (3, 2)
        assert factors[:, 0] == pytest.approx([1.0, 2.0, 4.0])
        assert np.array_equal(factors[:, 0], factors[:, 1])

    def test_single_iteration_uses_the_initial_factor(self):
        factors = DriftingDelay(final_factor=9.0, initial_factor=3.0).timeline(1, 1)
        assert factors.tolist() == [[3.0]]

    def test_draws_no_randomness(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        DriftingDelay().timeline(10, 4, rng)
        assert rng.bit_generator.state == state

    def test_factors_are_the_scalar_python_expression(self):
        process = DriftingDelay(final_factor=3.0, initial_factor=0.7)
        factors = process.timeline(100, 2)
        ratio = process.final_factor / process.initial_factor
        expected = [process.initial_factor * ratio ** (t / 99) for t in range(100)]
        assert factors[:, 1].tolist() == expected

    def test_an_overflowing_ramp_is_refused(self):
        process = DriftingDelay(final_factor=1e300, initial_factor=1e-300)
        with pytest.raises(ConfigurationError, match="overflows"):
            process.timeline(3, 1)


class TestPreemptionModel:
    def test_recovery_window_is_honoured(self):
        process = PreemptionModel(preempt_probability=1.0, recovery_iterations=3)
        factors = process.timeline(7, 1, np.random.default_rng(0))
        # Preempted immediately; down for 3, then immediately preempted again.
        assert np.all(np.isinf(factors))

    def test_zero_probability_never_preempts(self):
        factors = PreemptionModel(preempt_probability=0.0).timeline(
            20, 4, np.random.default_rng(0)
        )
        assert np.array_equal(factors, np.ones((20, 4)))

    def test_consumption_independent_of_realised_kills(self):
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        PreemptionModel(preempt_probability=1.0).timeline(30, 2, rng_a)
        PreemptionModel(preempt_probability=0.0).timeline(30, 2, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_each_column_is_one_workers_schedule(self):
        process = PreemptionModel(preempt_probability=0.3, recovery_iterations=2)
        factors = process.timeline(40, 3, np.random.default_rng(4))
        reference = np.random.default_rng(4)
        for worker in range(3):
            assert factors[:, worker].tolist() == _preempt_reference(
                process, 40, reference
            )


NAN = float("nan")


class TestNonNumericParameters:
    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: ShiftedExponentialDelay(straggling=NAN), "straggling"),
            (lambda: ParetoDelay(alpha=NAN), "alpha"),
            (lambda: MarkovModulatedDelay(slowdown=NAN), "slowdown"),
            (lambda: DriftingDelay(final_factor=NAN), "final_factor"),
            (lambda: scale_delay(ParetoDelay(2.0, 1.0), NAN), "factor"),
        ],
        ids=["shifted-exponential", "pareto", "markov", "drift", "scale_delay"],
    )
    def test_nan_is_rejected(self, build, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be a number"):
            build()

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: MarkovModulatedDelay(slowdown=np.inf), "slowdown"),
            (lambda: DriftingDelay(final_factor=np.inf), "final_factor"),
            (lambda: DriftingDelay(initial_factor=np.inf), "initial_factor"),
        ],
        ids=["slowdown", "final_factor", "initial_factor"],
    )
    def test_an_infinite_factor_is_rejected_by_name(self, build, name):
        # inf marks a vacant slot, so a delay factor must be finite.
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            build()


class TestGroupDrawContract:
    @pytest.mark.parametrize(
        "process",
        [
            MarkovModulatedDelay(slowdown=8.0, p_slow=0.2),
            DriftingDelay(final_factor=3.0),
            PreemptionModel(preempt_probability=0.1, recovery_iterations=3),
        ],
        ids=["markov", "drift", "preempt"],
    )
    def test_a_k_worker_call_is_k_one_worker_calls(self, process):
        group = np.random.default_rng(7)
        single = np.random.default_rng(7)
        factors = process.timeline(25, 4, group)
        columns = [process.timeline(25, 1, single) for _ in range(4)]
        assert np.array_equal(factors, np.hstack(columns))
        assert group.bit_generator.state == single.bit_generator.state


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

