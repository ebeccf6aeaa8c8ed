"""Execution backends: one ``run(spec) -> RunResult`` front door each.

Four implementations cover the repository's execution substrates:

* :class:`TimingSimBackend` — discrete-event simulation, timing only (the
  mode every figure/table benchmark uses; thousands of iterations/second).
* :class:`SemanticSimBackend` — the same simulated timing, plus real encoded
  gradients driving the optimizer, so the run also trains a model.
* :class:`MultiprocessBackend` — one OS process per worker; wall-clock
  measurements of a genuinely parallel run.
* :class:`AnalyticBackend` — no execution at all: closed-form expected
  runtimes via :meth:`~repro.schemes.base.Scheme.analytic_runtime`, O(1) in
  the iteration count, for sweeps at scales Monte Carlo cannot touch.

Anything with a ``run(spec)`` method (or a bare callable) satisfies the
:class:`Backend` protocol, which is what the sweep engine dispatches on —
custom Monte-Carlo runners slot in the same way.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Protocol,
    Sequence,
    Type,
    Union,
    runtime_checkable,
)

from repro.analysis.analytic import DEFAULT_QUANTILES
from repro.api.result import RunResult, validate_record
from repro.api.spec import JobSpec
from repro.cluster.dynamic import DynamicClusterSpec
from repro.exceptions import AnalyticIntractableError, ConfigurationError
from repro.runtime.faults import (
    build_fault_schedule,
    ensure_injectable,
    plan_example_loads,
    validate_fault_mode,
)
from repro.runtime.job import run_distributed_job
from repro.schemes.base import ExecutionPlan
from repro.simulation.iteration import IterationOutcome
from repro.simulation.job import RepeatedOutcomeLog, simulate_job, simulate_training_run
from repro.simulation.vectorized import (
    resolve_engine,
    simulate_job_batch,
    validate_engine,
)
from repro.utils.rng import RandomState

__all__ = [
    "Backend",
    "BackendLike",
    "TimingSimBackend",
    "SemanticSimBackend",
    "MultiprocessBackend",
    "AnalyticBackend",
    "available_backends",
    "get_backend",
    "run",
]


@runtime_checkable
class Backend(Protocol):
    """Anything that can execute a :class:`JobSpec`."""

    name: str

    def run(self, spec: JobSpec) -> RunResult:
        """Execute the spec and return the unified result."""
        ...


#: A backend instance, a registered backend name, or a bare runner callable.
BackendLike = Union[Backend, str, Callable[[JobSpec], RunResult]]


class TimingSimBackend:
    """Timing-only discrete-event simulation of the spec.

    Parameters
    ----------
    engine:
        ``"loop"``, ``"vectorized"``, or ``"auto"`` (default) — which timing
        engine executes the job. A spec-level ``backend_options["engine"]``
        overrides this per run, so one sweep can compare engines. The
        engines consume the random stream identically and therefore return
        bit-identical results; ``auto`` simply picks by job size.
    """

    name = "timing"

    _OPTIONS = frozenset({"engine"})

    def __init__(self, engine: str = "auto") -> None:
        self.engine = validate_engine(engine)

    def _checked_options(self, spec: JobSpec) -> dict:
        """The spec's backend options, rejecting unrecognised keys.

        The single validation both entry points (:meth:`run` and
        :meth:`run_batch`) share, so they cannot drift on which specs they
        accept.
        """
        options = dict(spec.backend_options)
        unknown = sorted(set(options) - self._OPTIONS)
        if unknown:
            raise ConfigurationError(
                f"timing backend does not understand option(s) {unknown}; "
                f"recognised: {sorted(self._OPTIONS)}"
            )
        return options

    def run(self, spec: JobSpec) -> RunResult:
        """Simulate ``spec`` and return its timing-only :class:`RunResult`."""
        options = self._checked_options(spec)
        engine = options.pop("engine", self.engine)
        job = simulate_job(
            spec.resolve_scheme(),
            spec.require_cluster(),
            num_units=spec.resolved_num_units,
            num_iterations=spec.num_iterations,
            rng=spec.seed,
            unit_size=spec.resolved_unit_size,
            serialize_master_link=spec.serialize_master_link,
            engine=engine,
        )
        return RunResult.from_job(job, backend=self.name)

    # -- trial batching ------------------------------------------------- #
    def _spec_engine(self, spec: JobSpec) -> str:
        """The engine a spec would run on (spec-level option wins)."""
        return spec.backend_options.get("engine", self.engine)

    def supports_trial_batching(self, spec: JobSpec, *, num_trials: int = 1) -> bool:
        """Whether :meth:`run_batch` can execute this spec.

        True when the spec's effective engine resolves to ``"vectorized"``
        for the spec's job size — the trial-batched entry point is a
        vectorized-engine feature; under ``"loop"`` (or an ``"auto"`` that
        picks the loop) the sweep engine keeps per-trial tasks.
        ``num_trials`` feeds the ``auto`` cutover: a batched cell amortises
        the vectorized setup over all its trials, so small-but-replicated
        cells batch too.
        """
        cluster = spec.cluster
        if cluster is None:
            return False
        return (
            resolve_engine(
                self._spec_engine(spec),
                num_iterations=spec.num_iterations,
                num_workers=cluster.num_workers,
                num_trials=num_trials,
            )
            == "vectorized"
        )

    def run_batch(
        self,
        spec: JobSpec,
        seeds: Sequence[RandomState],
        *,
        record: str = "full",
    ) -> List[RunResult]:
        """Execute ``len(seeds)`` Monte-Carlo trials of one spec in one call.

        The trial-batched fast path behind
        :func:`~repro.api.sweep.run_sweep`'s cell dispatch: one
        :func:`~repro.simulation.vectorized.simulate_job_batch` entry
        resolves the spec's scheme once, builds every trial's plan from that
        trial's seed, and simulates every trial over the stacked rows (see
        that function for the RNG contract making each trial bit-identical
        to a solo run of the spec at the same seed). A spec carrying an
        :class:`~repro.schemes.base.ExecutionPlan` shares that plan across
        trials instead. The spec's own ``seed`` is unused — the per-trial
        ``seeds`` replace it.

        ``record="summary"`` compacts each result before returning it, so a
        process pool ships aggregate statistics instead of pickling full
        per-iteration logs.
        """
        validate_record(record)
        self._checked_options(spec)
        if not self.supports_trial_batching(spec, num_trials=len(seeds)):
            raise ConfigurationError(
                "trial batching needs the vectorized engine; this spec "
                f"resolves to engine={self._spec_engine(spec)!r}"
            )
        jobs = simulate_job_batch(
            spec.resolve_scheme(),
            spec.require_cluster(),
            num_units=spec.resolved_num_units,
            num_iterations=spec.num_iterations,
            seeds=seeds,
            unit_size=spec.resolved_unit_size,
            serialize_master_link=spec.serialize_master_link,
        )
        results = [RunResult.from_job(job, backend=self.name) for job in jobs]
        if record == "summary":
            results = [result.compact() for result in results]
        return results


class SemanticSimBackend:
    """Simulated timing plus real gradient computation and optimizer updates.

    With the same spec and seed this backend consumes the random stream
    identically to :class:`TimingSimBackend` (the gradient math is
    deterministic), so the two agree exactly on every timing metric — the
    property the backend-equivalence test pins down.
    """

    name = "semantic"

    def run(self, spec: JobSpec) -> RunResult:
        """Run ``spec`` with real gradients under simulated timing."""
        workload = spec.require_workload()
        job = simulate_training_run(
            spec.resolve_scheme(),
            spec.require_cluster(),
            workload.model,
            workload.dataset,
            workload.optimizer,
            num_iterations=spec.num_iterations,
            rng=spec.seed,
            unit_spec=workload.unit_spec,
            serialize_master_link=spec.serialize_master_link,
            initial_weights=workload.initial_weights,
        )
        return RunResult.from_job(job, backend=self.name)


class MultiprocessBackend:
    """Real parallel execution: one OS process per worker.

    The worker count comes from the spec's cluster when one is given,
    otherwise from a ``num_workers`` backend option. Recognised
    ``backend_options``: ``num_workers``, ``straggle_delays``,
    ``receive_timeout``, ``iteration_timeout``, ``mp_context``,
    ``fault_mode``, ``include_communication``.

    A spec carrying an *injectable*
    :class:`~repro.cluster.dynamic.DynamicClusterSpec` (every worker process
    drawn from the registered process classes — see
    :func:`~repro.runtime.faults.ensure_injectable`) is replayed on the real
    workers through a :class:`~repro.runtime.faults.FaultSchedule`:
    seed-deterministic injected sleeps per task, with preempted/churned-out
    slots realised per ``fault_mode`` (``"mute"`` silent skips, the default,
    or ``"respawn"`` kill-and-respawn). Dynamic specs whose processes are
    *not* registered raise a typed
    :class:`~repro.exceptions.ConfigurationError` naming the unsupported
    process kind.
    """

    name = "multiprocess"

    _OPTIONS = frozenset(
        {
            "num_workers",
            "straggle_delays",
            "receive_timeout",
            "iteration_timeout",
            "mp_context",
            "fault_mode",
            "include_communication",
        }
    )

    def run(self, spec: JobSpec) -> RunResult:
        """Execute ``spec`` on real worker processes and report wall times."""
        workload = spec.require_workload()
        options = dict(spec.backend_options)
        unknown = sorted(set(options) - self._OPTIONS)
        if unknown:
            raise ConfigurationError(
                f"multiprocess backend does not understand option(s) {unknown}; "
                f"recognised: {sorted(self._OPTIONS)}"
            )
        num_workers = options.pop("num_workers", None)
        fault_mode = validate_fault_mode(options.pop("fault_mode", "mute"))
        include_communication = bool(options.pop("include_communication", True))
        injecting = isinstance(spec.cluster, DynamicClusterSpec)
        if injecting:
            ensure_injectable(spec.cluster)
            if options.get("straggle_delays") is not None:
                raise ConfigurationError(
                    "straggle_delays cannot be combined with a "
                    "DynamicClusterSpec: the cluster's fault schedule "
                    "already realises every injected sleep"
                )
        if spec.cluster is not None:
            if num_workers is not None and num_workers != spec.cluster.num_workers:
                raise ConfigurationError(
                    f"backend option num_workers={num_workers} conflicts with "
                    f"the cluster's {spec.cluster.num_workers} workers"
                )
            num_workers = spec.cluster.num_workers
        if num_workers is None:
            raise ConfigurationError(
                "the multiprocess backend needs a cluster or a num_workers "
                "backend option to size the worker pool"
            )
        rng = spec.rng()
        resolved = spec.resolve_scheme()
        if isinstance(resolved, ExecutionPlan):
            plan = resolved
        else:
            plan = resolved.build_feasible_plan(
                spec.resolved_num_units, int(num_workers), rng
            )
        fault_schedule = None
        if injecting:
            assert isinstance(spec.cluster, DynamicClusterSpec)
            fault_schedule = build_fault_schedule(
                spec.cluster,
                spec.num_iterations,
                loads=plan_example_loads(plan, workload.unit_spec),
                message_sizes=plan.message_sizes if include_communication else None,
                include_communication=include_communication,
                rng=rng,
            )
        worker_seed = int(rng.integers(0, 2**31 - 1))
        result = run_distributed_job(
            plan,
            workload.model,
            workload.dataset,
            workload.optimizer,
            num_iterations=spec.num_iterations,
            unit_spec=workload.unit_spec,
            straggle_delays=options.pop("straggle_delays", None),
            seed=worker_seed,
            initial_weights=workload.initial_weights,
            fault_schedule=fault_schedule,
            fault_mode=fault_mode,
            **options,
        )
        wrapped = RunResult.from_distributed(result, backend=self.name)
        if fault_schedule is not None:
            wrapped.extras["fault_fingerprint"] = fault_schedule.fingerprint()
            wrapped.extras["fault_mode"] = fault_mode
        return wrapped


class AnalyticBackend:
    """Closed-form expected runtimes — no iteration is ever simulated.

    The spec's scheme supplies its own closed form via
    :meth:`~repro.schemes.base.Scheme.analytic_runtime` (order statistics of
    shift-exponential arrivals, coupon-collector stopping indices, group-wise
    maxima; see :mod:`repro.analysis.analytic`); the backend replicates the
    per-iteration expectation across the spec's iteration budget so the
    result tabulates exactly like a simulated run. The cost of a run is
    independent of ``num_iterations``, which makes parameter sweeps
    effectively free next to Monte Carlo.

    The returned :class:`~repro.api.result.RunResult` carries the
    order-statistic quantiles in ``extras["analytic_quantiles"]``
    (per-iteration) and ``extras["analytic_total_quantiles"]``
    (normal-approximation quantiles of the total over all iterations), plus
    the per-iteration variance in ``extras["analytic_variance"]``.

    Schemes or cluster models outside the tractable regime — including any
    non-stationary :class:`~repro.cluster.dynamic.DynamicClusterSpec` —
    raise :class:`~repro.exceptions.AnalyticIntractableError`; the spec's
    seed is ignored (there is nothing random to draw).

    Parameters
    ----------
    quantiles:
        Quantile levels to evaluate; a spec-level
        ``backend_options["quantiles"]`` overrides this per run.
    """

    name = "analytic"

    _OPTIONS = frozenset({"quantiles"})

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        self.quantiles = tuple(float(q) for q in quantiles)

    def run(self, spec: JobSpec) -> RunResult:
        """Evaluate ``spec``'s closed-form expected runtime as a result."""
        options = dict(spec.backend_options)
        unknown = sorted(set(options) - self._OPTIONS)
        if unknown:
            raise ConfigurationError(
                f"analytic backend does not understand option(s) {unknown}; "
                f"recognised: {sorted(self._OPTIONS)}"
            )
        quantiles = tuple(
            float(q) for q in options.pop("quantiles", self.quantiles)
        )
        cluster = spec.require_cluster()
        if isinstance(cluster, DynamicClusterSpec):
            raise AnalyticIntractableError(
                "the cluster is non-stationary (DynamicClusterSpec): the "
                "closed-form runtime models assume one delay model per "
                "worker for the whole job; run the spec on the timing "
                "backend (both engines support dynamic clusters) instead"
            )
        scheme = spec.resolve_scheme()
        if isinstance(scheme, ExecutionPlan):
            raise AnalyticIntractableError(
                "the spec carries a pre-built execution plan; the analytic "
                "backend needs the scheme itself (its closed form averages "
                "over placements, it cannot price one frozen plan)"
            )
        estimate = scheme.analytic_runtime(
            cluster,
            spec.resolved_num_units,
            unit_size=spec.resolved_unit_size,
            serialize_master_link=spec.serialize_master_link,
            quantiles=quantiles,
        )
        # One expected outcome standing in for the whole iteration budget:
        # every aggregate (totals, averages) matches the closed form exactly,
        # and both memory and aggregation stay O(1) in num_iterations.
        outcome = IterationOutcome(
            total_time=estimate.total_time,
            computation_time=estimate.computation_time,
            communication_time=estimate.communication_time,
            workers_heard=estimate.recovery_threshold,
            communication_load=estimate.communication_load,
            workers_finished_compute=estimate.workers_finished_compute,
            heard_workers=(),
        )
        result = RunResult(
            scheme_name=scheme.name,
            iterations=RepeatedOutcomeLog(outcome, spec.num_iterations),
            backend=self.name,
        )
        result.extras["analytic_quantiles"] = dict(estimate.quantiles)
        result.extras["analytic_total_quantiles"] = estimate.total_runtime_quantiles(
            spec.num_iterations
        )
        result.extras["analytic_variance"] = estimate.variance
        result.extras["analytic_mode"] = estimate.mode
        if estimate.details:
            result.extras["analytic_details"] = dict(estimate.details)
        return result


_BACKENDS: Dict[str, Type] = {
    TimingSimBackend.name: TimingSimBackend,
    SemanticSimBackend.name: SemanticSimBackend,
    MultiprocessBackend.name: MultiprocessBackend,
    AnalyticBackend.name: AnalyticBackend,
}


def available_backends() -> list:
    """Sorted names of the built-in backends."""
    return sorted(_BACKENDS)


def get_backend(backend: BackendLike) -> Backend:
    """Resolve a backend name/instance/callable into a ``Backend``."""
    if isinstance(backend, str):
        try:
            return _BACKENDS[backend]()
        except KeyError:
            raise ConfigurationError(
                f"unknown backend {backend!r}; available: {available_backends()}"
            ) from None
    if isinstance(backend, type):
        backend = backend()
    if callable(backend) and not hasattr(backend, "run"):
        return _CallableBackend(backend)
    if isinstance(backend, Backend):
        return backend
    raise ConfigurationError(
        f"cannot use {backend!r} as a backend; expected a name, a Backend, "
        "or a callable taking a JobSpec"
    )


class _CallableBackend:
    """Adapter giving a bare ``spec -> RunResult`` callable the protocol shape."""

    def __init__(self, runner: Callable[[JobSpec], RunResult]) -> None:
        self._runner = runner
        self.name = getattr(runner, "__name__", "custom")

    def run(self, spec: JobSpec) -> RunResult:
        return self._runner(spec)


def run(spec: JobSpec, backend: BackendLike = "timing") -> RunResult:
    """Execute one job spec on the chosen backend — the library's front door."""
    return get_backend(backend).run(spec)
