"""Time-varying straggler processes.

The paper's evaluation freezes one delay model per worker for the whole job.
Real fleets do not hold still: EC2 instances flip between fast and slow
phases, performance drifts as co-tenants come and go, and spot instances are
preempted and replaced mid-job. This module models those regimes as *worker
processes*: a :class:`WorkerProcess` gives a group of workers one delay
*factor* **per iteration**: ``1.0`` keeps a worker's stationary base
:class:`~repro.stragglers.base.DelayModel`, ``c`` scales its completion
times by ``c`` (:func:`scale_delay`), and ``inf`` marks the slot vacant
(:data:`UNAVAILABLE`). The rest of the stack (both timing engines, the API
layer) keeps treating each single iteration exactly as before.

Three processes cover the production folklore:

* :class:`MarkovModulatedDelay` — a two-state (fast/slow) Markov chain per
  worker; in the slow regime the worker's completion times are multiplied by
  ``slowdown``.
* :class:`DriftingDelay` — a deterministic drift: the worker's delay scale
  ramps (or decays) geometrically from ``initial_factor`` to
  ``final_factor`` over the job.
* :class:`PreemptionModel` — spot-style kill/replace: each iteration an up
  worker is preempted with probability ``preempt_probability`` and its slot
  stays vacant (:class:`UnavailableDelay`) for ``recovery_iterations``
  iterations while the replacement boots and reloads its data.

Determinism contract
--------------------
A process draws from the *dynamics* generator handed to
:meth:`WorkerProcess.timeline` — never from the job's draw stream — and its
consumption depends only on ``num_iterations`` and ``num_workers``, never on
the realised states. A call for ``k`` workers consumes the generator exactly
like ``k`` consecutive one-worker calls, worker-major: worker ``j``'s draws
follow worker ``j - 1``'s. :meth:`repro.cluster.dynamic.DynamicClusterSpec.materialize`
calls each process once per run of consecutive workers that share it, and
relies on this rule to keep timelines reproducible and identical across the
loop and vectorized engines, however the workers are grouped.

The trial-batched engine
(:func:`~repro.simulation.vectorized.simulate_job_batch`) extends the same
contract along the trial axis: every Monte-Carlo trial materialises its own
timeline from its own per-trial generator (consuming at most the one
scenario-seed draw a solo run would), so each trial's dynamics realisation
is bit-identical to the corresponding solo run. A spec whose dynamics seed
is *pinned* draws nothing from any trial's stream and therefore replays the
same scripted scenario in every trial — by design: pinned scenarios are
scripts, not samples. :class:`UnavailableDelay` consumes no randomness on
any path (scalar or grid), and the engine's block draw skips vacant slots,
which is what lets vacant slots appear and disappear between trials without
shifting a single draw.

Scaling a delay model
---------------------
A factor ``c`` stands for :func:`scale_delay` ``(base, c)``: the base's
completion times times ``c``, *without changing how the model consumes the
random stream*. The built-in families are re-parameterised in closed form
(a shift-exponential scaled by ``c`` is again shift-exponential with shift
``a * c`` and straggling ``mu / c``); unknown models fall back to a
:class:`ScaledDelay` wrapper that delegates sampling to the wrapped model
(consuming its stream unchanged) and multiplies the result. A materialised
timeline keeps the factors and builds a scaled model only when something
reads one: the vectorized engine reads a shift-exponential timeline's block
form straight from the base parameters and the factors
(:meth:`~repro.stragglers.base.DelayModel.exponential_form`), with the same
float operations :func:`scale_delay` performs.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, List, Mapping, Optional, Type, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.stragglers.base import DelayModel
from repro.stragglers.models import (
    DeterministicDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
    TraceDelay,
)
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import (
    check_in_range,
    check_positive_int,
    check_probability,
)

__all__ = [
    "UnavailableDelay",
    "UNAVAILABLE",
    "ScaledDelay",
    "scale_delay",
    "WorkerProcess",
    "MarkovModulatedDelay",
    "DriftingDelay",
    "PreemptionModel",
    "register_process",
    "available_processes",
    "process_from_config",
    "registered_process_name",
]

Number = Union[float, np.ndarray]


# reprolint: allow[RNG002] reason=draw-free infinity sentinel; the inherited generic sample_grid consumes no randomness either, so every engine sees the identical (empty) stream
class UnavailableDelay(DelayModel):
    """A vacant worker slot: the worker never reports.

    :meth:`sample` returns infinity and — crucially for the engines'
    bit-identity guarantee — consumes **no** randomness, exactly like an idle
    worker. Both engines treat an infinite completion time as "never
    arrives": the serialized link skips the slot, the aggregator never hears
    from it, and an iteration that cannot complete without it raises
    :class:`~repro.exceptions.SimulationError` (lost coverage is an error,
    not a silent stall).
    """

    def sample(
        self, load: int, rng: RandomState = None, size: Optional[int] = None
    ) -> Number:
        self._check_load(load)
        if size is None:
            return float("inf")
        return np.full(int(size), np.inf, dtype=float)

    def mean(self, load: int) -> float:
        self._check_load(load)
        return float("inf")

    def cdf(self, load: int, t: Number) -> Number:
        self._check_load(load)
        values = np.zeros_like(np.asarray(t, dtype=float))
        return float(values) if np.isscalar(t) else values

    def __repr__(self) -> str:
        return "UnavailableDelay()"


#: Shared sentinel instance used by cluster timelines for vacant slots.
UNAVAILABLE = UnavailableDelay()


# reprolint: allow[RNG002] reason=wrapper delegating every draw to the inner model; the inherited generic sample_grid goes through self.sample and stays bit-exact for any wrapped class
class ScaledDelay(DelayModel):
    """``factor`` times an arbitrary wrapped delay model.

    Generic fallback of :func:`scale_delay` for model classes without a
    closed-form re-parameterisation. Sampling delegates to the wrapped model
    (consuming the random stream identically) and multiplies the result, so
    the engines' draw-order contract is preserved; the wrapper never takes a
    vectorized grid fast path, which is correct (the generic scalar grid is
    always available) just slower.
    """

    def __init__(self, inner: DelayModel, factor: float) -> None:
        if not isinstance(inner, DelayModel):
            raise ConfigurationError(
                f"inner must be a DelayModel, got {type(inner).__name__}"
            )
        self.inner = inner
        self.factor = check_in_range(factor, "factor", low=0.0, inclusive=False)

    def sample(
        self, load: int, rng: RandomState = None, size: Optional[int] = None
    ) -> Number:
        result = self.inner.sample(load, rng=rng, size=size)
        result = result * self.factor
        return float(result) if size is None else result

    def mean(self, load: int) -> float:
        return self.factor * self.inner.mean(load)

    def cdf(self, load: int, t: Number) -> Number:
        t_arr = np.asarray(t, dtype=float)
        values = self.inner.cdf(load, t_arr / self.factor)
        return float(values) if np.isscalar(t) else values

    def __repr__(self) -> str:
        return f"ScaledDelay({self.inner!r}, factor={self.factor!r})"


def scale_delay(model: DelayModel, factor: float) -> DelayModel:
    """A delay model whose completion times are ``factor`` times ``model``'s.

    The built-in families are re-parameterised in closed form so the scaled
    model samples through the *same* code path as the original: it keeps
    the per-draw stream consumption, its class's vectorized ``sample_grid``
    and, for the shift-exponential family, the exponential form the
    vectorized engine's block draw reads:

    * shift-exponential ``(mu, a)`` → ``(mu / factor, a * factor)``,
    * deterministic ``s`` → ``s * factor``,
    * Pareto ``(alpha, scale)`` → ``(alpha, scale * factor)``,
    * trace replay → the trace's per-example times times ``factor``.

    Subclasses that override ``sample`` (a changed distribution) and unknown
    model classes are wrapped in :class:`ScaledDelay` instead.
    """
    factor = check_in_range(factor, "factor", low=0.0, inclusive=False)
    if factor == 1.0:
        return model
    if isinstance(model, UnavailableDelay):
        return model
    if ShiftedExponentialDelay._all_native([model]):
        return ShiftedExponentialDelay(
            straggling=model.straggling / factor, shift=model.shift * factor
        )
    if DeterministicDelay._all_native([model]):
        return DeterministicDelay(
            seconds_per_example=model.seconds_per_example * factor
        )
    if ParetoDelay._all_native([model]):
        return ParetoDelay(alpha=model.alpha, scale=model.scale * factor)
    if TraceDelay._all_native([model]):
        return TraceDelay(per_example_times=model.trace * factor)
    return ScaledDelay(model, factor)


def _check_finite(value: float, name: str) -> None:
    # An infinite factor would read as a vacant slot.
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")


def _uniform_block(
    num_iterations: int, num_workers: int, rng: RandomState
) -> np.ndarray:
    """``(num_workers, num_iterations)`` uniforms: one C-order call draws
    like ``num_workers`` consecutive ``random(num_iterations)`` calls."""
    check_positive_int(num_iterations, "num_iterations")
    check_positive_int(num_workers, "num_workers")
    return as_generator(rng).random((num_workers, num_iterations))


# --------------------------------------------------------------------------- #
# Worker processes
# --------------------------------------------------------------------------- #
class WorkerProcess(abc.ABC):
    """A time-varying transformation of a group of workers' delay models.

    Subclasses implement :meth:`timeline`: given the job horizon and a
    number of workers, return every (iteration, worker) cell's delay
    factor. ``1.0`` keeps the worker's base model, ``c`` stands for
    :func:`scale_delay` ``(base, c)`` and ``inf`` marks the slot vacant. The
    determinism contract (module docstring) requires the number of values
    drawn from ``rng`` to depend only on the two sizes, and a ``k``-worker
    call to consume it like ``k`` one-worker calls, worker-major.
    """

    @abc.abstractmethod
    def timeline(
        self, num_iterations: int, num_workers: int, rng: RandomState = None
    ) -> np.ndarray:
        """The ``(num_iterations, num_workers)`` factor block of a worker group."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


_PROCESSES: Dict[str, Type[WorkerProcess]] = {}

#: A value resolvable into a worker process: an instance, a registered name,
#: or a config mapping with a ``name`` key plus constructor kwargs.
ProcessLike = Union[WorkerProcess, str, Mapping[str, object]]


def register_process(name: str):
    """Class decorator registering a :class:`WorkerProcess` under ``name``.

    Mirrors the scheme registry: registered processes become nameable in
    ``dynamics={...}`` configs everywhere a
    :class:`~repro.cluster.dynamic.DynamicClusterSpec` is built (the API
    layer, the sweep engine, the CLI's ``--dynamics`` flag).
    """

    def decorator(cls: Type[WorkerProcess]) -> Type[WorkerProcess]:
        existing = _PROCESSES.get(name)
        if existing is not None and existing is not cls:
            raise ConfigurationError(
                f"process name {name!r} is already registered to "
                f"{existing.__name__}"
            )
        _PROCESSES[name] = cls
        cls.name = name
        return cls

    return decorator


def available_processes() -> List[str]:
    """Sorted names of every registered worker process."""
    return sorted(_PROCESSES)


def registered_process_name(process: WorkerProcess) -> Optional[str]:
    """The registry name of ``process``'s exact class, or ``None``.

    A process counts as *registered* only when its concrete class was put in
    the registry via :func:`register_process` — an unregistered subclass of a
    registered class returns ``None``. The fault-injection layer
    (:mod:`repro.runtime.faults`) uses this to decide whether a dynamic
    scenario can be replayed on real worker processes with the same
    registry semantics that simulation's ``process_from_config`` resolves.
    """
    for name, cls in _PROCESSES.items():
        if type(process) is cls:
            return name
    return None


def process_from_config(process: ProcessLike) -> WorkerProcess:
    """Resolve a process instance, name, or config mapping into a process."""
    if isinstance(process, WorkerProcess):
        return process
    if isinstance(process, str):
        config: Dict[str, object] = {"name": process}
    elif isinstance(process, Mapping):
        config = dict(process)
    else:
        raise ConfigurationError(
            "expected a WorkerProcess, a registered process name, or a "
            f"config mapping, got {type(process).__name__}"
        )
    name = config.pop("name", None)
    if not isinstance(name, str):
        raise ConfigurationError(
            "a process config needs a 'name' key naming a registered "
            f"process; available: {available_processes()}"
        )
    try:
        cls = _PROCESSES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown process {name!r}; available: {available_processes()}"
        ) from None
    try:
        return cls(**config)
    except TypeError as error:
        raise ConfigurationError(
            f"process {name!r} rejected its parameters {sorted(config)}: {error}"
        ) from None


@register_process("markov")
class MarkovModulatedDelay(WorkerProcess):
    """Two-state (fast/slow) Markov regime switching per worker.

    Each iteration the worker is either in its *fast* regime (the base delay
    model) or its *slow* regime (completion times multiplied by
    ``slowdown``). The regime evolves as a Markov chain: a fast worker turns
    slow with probability ``p_slow`` per iteration, a slow worker recovers
    with probability ``p_recover``.

    Parameters
    ----------
    slowdown:
        Multiplicative slowdown in the slow regime (``>= 1``).
    p_slow:
        Per-iteration probability of entering the slow regime.
    p_recover:
        Per-iteration probability of leaving it.
    start_slow:
        Whether the worker begins the job in the slow regime.
    """

    def __init__(
        self,
        slowdown: float = 8.0,
        p_slow: float = 0.05,
        p_recover: float = 0.4,
        start_slow: bool = False,
    ) -> None:
        self.slowdown = check_in_range(slowdown, "slowdown", low=1.0)
        _check_finite(self.slowdown, "slowdown")
        self.p_slow = check_probability(p_slow, "p_slow")
        self.p_recover = check_probability(p_recover, "p_recover")
        self.start_slow = bool(start_slow)

    def timeline(
        self, num_iterations: int, num_workers: int, rng: RandomState = None
    ) -> np.ndarray:
        draws = _uniform_block(num_iterations, num_workers, rng)
        # One uniform per (worker, iteration), drawn as one block so
        # consumption is fixed regardless of the realised regime paths.
        recover, turn = draws < self.p_recover, draws < self.p_slow
        slow = np.empty((num_iterations, num_workers), dtype=bool)
        state = np.full(num_workers, self.start_slow)
        for t in range(num_iterations):
            slow[t] = state
            state = state != np.where(state, recover[:, t], turn[:, t])
        return np.where(slow, self.slowdown, 1.0)

    def __repr__(self) -> str:
        return (
            f"MarkovModulatedDelay(slowdown={self.slowdown!r}, "
            f"p_slow={self.p_slow!r}, p_recover={self.p_recover!r}, "
            f"start_slow={self.start_slow!r})"
        )


@register_process("drift")
class DriftingDelay(WorkerProcess):
    """Deterministic geometric drift of the worker's delay scale.

    The worker's completion-time scale interpolates geometrically from
    ``initial_factor`` (iteration 0) to ``final_factor`` (last iteration):
    ``final > initial`` models a worker that degrades over the job (thermal
    throttling, co-tenant pressure), ``final < initial`` one that warms up.
    The process draws no randomness.
    """

    def __init__(
        self, final_factor: float = 3.0, initial_factor: float = 1.0
    ) -> None:
        self.final_factor = check_in_range(
            final_factor, "final_factor", low=0.0, inclusive=False
        )
        _check_finite(self.final_factor, "final_factor")
        self.initial_factor = check_in_range(
            initial_factor, "initial_factor", low=0.0, inclusive=False
        )
        _check_finite(self.initial_factor, "initial_factor")

    def timeline(
        self, num_iterations: int, num_workers: int, rng: RandomState = None
    ) -> np.ndarray:
        check_positive_int(num_iterations, "num_iterations")
        check_positive_int(num_workers, "num_workers")
        factors = [self.initial_factor]
        if num_iterations > 1:
            # Python floats (libm's pow), one per iteration; NumPy's SIMD
            # power loops need not round like it.
            ratio = self.final_factor / self.initial_factor
            factors = [
                self.initial_factor * ratio ** (t / (num_iterations - 1))
                for t in range(num_iterations)
            ]
        column = np.array(factors)
        if not np.all(np.isfinite(column) & (column > 0)):
            raise ConfigurationError(
                f"{self!r} overflows or underflows a delay factor over "
                f"{num_iterations} iterations"
            )
        return np.broadcast_to(column[:, None], (num_iterations, num_workers))

    def __repr__(self) -> str:
        return (
            f"DriftingDelay(final_factor={self.final_factor!r}, "
            f"initial_factor={self.initial_factor!r})"
        )


@register_process("preempt")
class PreemptionModel(WorkerProcess):
    """Spot-style preemption: kill the worker, replace it after a lag.

    Each iteration an up worker is preempted with probability
    ``preempt_probability``; its slot is then vacant
    (:class:`UnavailableDelay`) for ``recovery_iterations`` iterations —
    the replacement instance boots and reloads the worker's data partition —
    after which it resumes with the base delay model. Preemption draws are
    taken as one block per call, worker-major, so consumption is independent
    of the realised kill pattern.
    """

    def __init__(
        self,
        preempt_probability: float = 0.02,
        recovery_iterations: int = 3,
    ) -> None:
        self.preempt_probability = check_probability(
            preempt_probability, "preempt_probability"
        )
        self.recovery_iterations = check_positive_int(
            recovery_iterations, "recovery_iterations"
        )

    def timeline(
        self, num_iterations: int, num_workers: int, rng: RandomState = None
    ) -> np.ndarray:
        preempted = _uniform_block(num_iterations, num_workers, rng) < (
            self.preempt_probability
        )
        down = np.empty((num_iterations, num_workers), dtype=bool)
        remaining = np.zeros(num_workers, dtype=int)
        for t in range(num_iterations):
            remaining[(remaining == 0) & preempted[:, t]] = self.recovery_iterations
            down[t] = remaining > 0
            remaining -= down[t]
        return np.where(down, np.inf, 1.0)

    def __repr__(self) -> str:
        return (
            f"PreemptionModel(preempt_probability={self.preempt_probability!r}, "
            f"recovery_iterations={self.recovery_iterations!r})"
        )
