"""Concrete delay models.

:class:`ShiftedExponentialDelay` is the paper's model (Eq. 15):

.. math::

    \\Pr[T_i \\le t] = 1 - \\exp\\left(-\\frac{\\mu_i}{r_i}(t - a_i r_i)\\right),
    \\qquad t \\ge a_i r_i,

i.e. a deterministic per-example cost ``a`` plus an exponential tail whose
scale grows linearly with the load. The other models support the
"universality" ablation: BCC needs no knowledge of the delay distribution, so
its advantage should persist under Pareto-tailed or bimodal stragglers.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.stragglers.base import DelayModel
from repro.utils.rng import RandomState
from repro.utils.validation import check_in_range, check_nonnegative, check_probability

__all__ = [
    "ShiftedExponentialDelay",
    "ExponentialDelay",
    "DeterministicDelay",
    "ParetoDelay",
    "BimodalStragglerDelay",
    "TraceDelay",
]

Number = Union[float, np.ndarray]


class ShiftedExponentialDelay(DelayModel):
    """The paper's shift-exponential completion-time model.

    Parameters
    ----------
    straggling:
        The straggling parameter ``mu > 0``; larger means less straggling
        (the exponential tail decays faster).
    shift:
        The shift parameter ``a >= 0``: deterministic seconds per example.
    """

    def __init__(self, straggling: float = 1.0, shift: float = 0.0) -> None:
        self.straggling = check_in_range(straggling, "straggling", low=0.0, inclusive=False)
        self.shift = check_nonnegative(shift, "shift")

    def sample(
        self, load: int, rng: RandomState = None, size: Optional[int] = None
    ) -> Number:
        load = self._check_load(load)
        generator = self._rng(rng)
        scale = load / self.straggling
        tail = generator.exponential(scale=scale, size=size)
        result = self.shift * load + tail
        return float(result) if size is None else result

    def mean(self, load: int) -> float:
        load = self._check_load(load)
        return self.shift * load + load / self.straggling

    @classmethod
    def exponential_form(
        cls,
        models: Sequence[DelayModel],
        loads: Sequence[int],
        factors: Optional[np.ndarray] = None,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        # sample() is ``shift * load + (load / mu) * E``: the one place the
        # vectorized paths read (mu, a).
        params = ShiftedExponentialDelay._grid_parameters(
            models, ("straggling", "shift")
        )
        if params is None:
            return None
        stragglings, shifts = params
        loads_row = cls._check_grid_loads(models, loads)
        if factors is not None:
            # scale_delay(model, c) is ShiftedExponentialDelay(mu / c, a * c):
            # the same operations, and the checks both make.
            if not np.all(factors > 0):
                raise ConfigurationError("delay factors must be positive numbers")
            stragglings, shifts = stragglings / factors, shifts * factors
            if not (np.all(stragglings > 0) and np.all(np.isfinite(shifts))):
                raise ConfigurationError("scaled straggling must be > 0, shift finite")
        return shifts * loads_row, loads_row / stragglings

    @classmethod
    def sample_grid(
        cls,
        models: Sequence[DelayModel],
        loads: Sequence[int],
        rng: RandomState = None,
        num_draws: int = 1,
    ) -> np.ndarray:
        form = cls.exponential_form(models, loads)
        if form is None:
            return super().sample_grid(models, loads, rng, num_draws)
        offset, scale = form
        # One broadcast draw fills the matrix in C order, element by element,
        # so the stream matches the scalar draw-major/worker-minor loop.
        shape = (int(num_draws), len(models))
        return offset + cls._rng(rng).exponential(scale=scale, size=shape)

    def cdf(self, load: int, t: Number) -> Number:
        load = self._check_load(load)
        t_arr = np.asarray(t, dtype=float)
        shifted = t_arr - self.shift * load
        rate = self.straggling / load
        values = np.where(shifted >= 0, 1.0 - np.exp(-rate * np.maximum(shifted, 0.0)), 0.0)
        return float(values) if np.isscalar(t) else values

    def __repr__(self) -> str:
        return (
            f"ShiftedExponentialDelay(straggling={self.straggling!r}, "
            f"shift={self.shift!r})"
        )


class ExponentialDelay(ShiftedExponentialDelay):
    """Pure exponential tail (shift ``a = 0``)."""

    def __init__(self, straggling: float = 1.0) -> None:
        super().__init__(straggling=straggling, shift=0.0)

    def __repr__(self) -> str:
        return f"ExponentialDelay(straggling={self.straggling!r})"


class DeterministicDelay(DelayModel):
    """No randomness: exactly ``seconds_per_example * load`` seconds.

    Useful as a control: with deterministic workers every scheme should wait
    for precisely its recovery threshold's worth of workers and the
    simulator's accounting can be checked exactly.
    """

    def __init__(self, seconds_per_example: float = 1.0) -> None:
        self.seconds_per_example = check_nonnegative(
            seconds_per_example, "seconds_per_example"
        )

    def sample(
        self, load: int, rng: RandomState = None, size: Optional[int] = None
    ) -> Number:
        load = self._check_load(load)
        value = self.seconds_per_example * load
        if size is None:
            return float(value)
        return np.full(size, value, dtype=float)

    def mean(self, load: int) -> float:
        return self.seconds_per_example * self._check_load(load)

    @classmethod
    def sample_grid(
        cls,
        models: Sequence[DelayModel],
        loads: Sequence[int],
        rng: RandomState = None,
        num_draws: int = 1,
    ) -> np.ndarray:
        params = DeterministicDelay._grid_parameters(models, ("seconds_per_example",))
        if params is None:
            return super().sample_grid(models, loads, rng, num_draws)
        (rates,) = params
        loads_row = cls._check_grid_loads(models, loads)
        # Deterministic: no randomness is consumed, matching the scalar path.
        return np.tile(rates * loads_row, (int(num_draws), 1))

    def cdf(self, load: int, t: Number) -> Number:
        load = self._check_load(load)
        t_arr = np.asarray(t, dtype=float)
        values = (t_arr >= self.seconds_per_example * load).astype(float)
        return float(values) if np.isscalar(t) else values

    def __repr__(self) -> str:
        return f"DeterministicDelay(seconds_per_example={self.seconds_per_example!r})"


class ParetoDelay(DelayModel):
    """Heavy-tailed Pareto completion times.

    ``T = scale * load * X`` where ``X`` is Pareto(alpha) with minimum 1, so
    the fastest possible completion is ``scale * load`` and the tail decays
    polynomially. ``alpha <= 1`` gives an infinite mean — permitted, since the
    simulator only needs samples, but :meth:`mean` raises in that case.
    """

    def __init__(self, alpha: float = 2.0, scale: float = 1.0) -> None:
        self.alpha = check_in_range(alpha, "alpha", low=0.0, inclusive=False)
        self.scale = check_in_range(scale, "scale", low=0.0, inclusive=False)

    def sample(
        self, load: int, rng: RandomState = None, size: Optional[int] = None
    ) -> Number:
        load = self._check_load(load)
        generator = self._rng(rng)
        # numpy's pareto returns X - 1 for a Pareto with minimum 1.
        draws = 1.0 + generator.pareto(self.alpha, size=size)
        result = self.scale * load * draws
        return float(result) if size is None else result

    def mean(self, load: int) -> float:
        load = self._check_load(load)
        if self.alpha <= 1.0:
            raise ConfigurationError(
                f"the Pareto mean is infinite for alpha <= 1 (alpha={self.alpha})"
            )
        return self.scale * load * self.alpha / (self.alpha - 1.0)

    @classmethod
    def sample_grid(
        cls,
        models: Sequence[DelayModel],
        loads: Sequence[int],
        rng: RandomState = None,
        num_draws: int = 1,
    ) -> np.ndarray:
        params = ParetoDelay._grid_parameters(models, ("alpha", "scale"))
        if params is None:
            return super().sample_grid(models, loads, rng, num_draws)
        alphas, scales = params
        loads_row = cls._check_grid_loads(models, loads)
        generator = cls._rng(rng)
        draws = 1.0 + generator.pareto(alphas, size=(int(num_draws), len(models)))
        return scales * loads_row * draws

    def cdf(self, load: int, t: Number) -> Number:
        load = self._check_load(load)
        t_arr = np.asarray(t, dtype=float)
        minimum = self.scale * load
        ratio = np.maximum(t_arr / minimum, 1.0)
        values = np.where(t_arr >= minimum, 1.0 - ratio ** (-self.alpha), 0.0)
        return float(values) if np.isscalar(t) else values

    def __repr__(self) -> str:
        return f"ParetoDelay(alpha={self.alpha!r}, scale={self.scale!r})"


# reprolint: allow[RNG002] reason=each value draws a jitter then a straggle flag, so no broadcast grid can match the scalar stream; the inherited generic sample_grid loops sample() and is the reference
class BimodalStragglerDelay(DelayModel):
    """"Occasionally very slow" workers.

    With probability ``straggle_probability`` the worker is a straggler for
    this task and its time is multiplied by ``slowdown``; otherwise it runs at
    the base speed. The base time is ``seconds_per_example * load`` plus a
    small exponential jitter. This mimics the production observation ([5] in
    the paper) that a minority of tasks run much slower than the rest.
    """

    def __init__(
        self,
        seconds_per_example: float = 1.0,
        straggle_probability: float = 0.1,
        slowdown: float = 10.0,
        jitter: float = 0.05,
    ) -> None:
        self.seconds_per_example = check_in_range(
            seconds_per_example, "seconds_per_example", low=0.0, inclusive=False
        )
        self.straggle_probability = check_probability(
            straggle_probability, "straggle_probability"
        )
        self.slowdown = check_in_range(slowdown, "slowdown", low=1.0)
        self.jitter = check_nonnegative(jitter, "jitter")

    def sample(
        self, load: int, rng: RandomState = None, size: Optional[int] = None
    ) -> Number:
        load = self._check_load(load)
        generator = self._rng(rng)
        n = 1 if size is None else size
        base = self.seconds_per_example * load
        jitter = generator.exponential(scale=self.jitter * base + 1e-12, size=n)
        slow = generator.random(n) < self.straggle_probability
        times = np.where(slow, self.slowdown * base, base) + jitter
        return float(times[0]) if size is None else times

    def mean(self, load: int) -> float:
        load = self._check_load(load)
        base = self.seconds_per_example * load
        expected_base = (
            self.straggle_probability * self.slowdown + (1 - self.straggle_probability)
        ) * base
        return expected_base + self.jitter * base

    def __repr__(self) -> str:
        return (
            f"BimodalStragglerDelay(seconds_per_example={self.seconds_per_example!r}, "
            f"straggle_probability={self.straggle_probability!r}, "
            f"slowdown={self.slowdown!r}, jitter={self.jitter!r})"
        )


class TraceDelay(DelayModel):
    """Replay completion times from a recorded trace.

    The trace holds *per-example* processing times; a task of ``load``
    examples takes ``trace[k] * load`` seconds where ``k`` is drawn uniformly
    from the trace. This lets measured straggling behaviour (e.g. collected
    from a real cluster) drive the simulator without fitting a distribution.
    """

    def __init__(self, per_example_times: Sequence[float]) -> None:
        trace = np.asarray(per_example_times, dtype=float)
        if trace.ndim != 1 or trace.size == 0:
            raise ConfigurationError("per_example_times must be a non-empty 1-D sequence")
        if np.any(trace < 0) or not np.all(np.isfinite(trace)):
            raise ConfigurationError("per_example_times must be finite and non-negative")
        self.trace = trace

    def sample(
        self, load: int, rng: RandomState = None, size: Optional[int] = None
    ) -> Number:
        load = self._check_load(load)
        generator = self._rng(rng)
        draws = generator.choice(self.trace, size=size, replace=True)
        result = draws * load
        return float(result) if size is None else result

    def mean(self, load: int) -> float:
        return float(self.trace.mean()) * self._check_load(load)

    @classmethod
    def sample_grid(
        cls,
        models: Sequence[DelayModel],
        loads: Sequence[int],
        rng: RandomState = None,
        num_draws: int = 1,
    ) -> np.ndarray:
        # One batched draw is only possible when every worker replays the
        # *same* trace (one `choice` call per element, same population) with
        # the unmodified scalar sampler; mixed traces and sample() overrides
        # fall back to the generic scalar grid.
        if not TraceDelay._all_native(models):
            return super().sample_grid(models, loads, rng, num_draws)
        trace = models[0].trace
        if not all(
            model.trace is trace or np.array_equal(model.trace, trace)
            for model in models
        ):
            return super().sample_grid(models, loads, rng, num_draws)
        loads_row = cls._check_grid_loads(models, loads)
        generator = cls._rng(rng)
        draws = generator.choice(trace, size=(int(num_draws), len(models)), replace=True)
        return draws * loads_row

    def __repr__(self) -> str:
        return f"TraceDelay(num_samples={self.trace.size})"
