"""Multi-iteration job simulation.

:func:`simulate_job` runs a timing-only job — the mode used by every
figure/table benchmark — while :func:`simulate_training_run` executes the
same job *semantically*: each simulated iteration's responding workers supply
real encoded gradients that drive an optimizer, so the run produces both
timing metrics and an actual trained model under simulated time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.cluster.dynamic import ClusterTimeline, DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.datasets.base import Dataset
from repro.datasets.batching import BatchSpec
from repro.exceptions import SimulationError
from repro.gradients.base import GradientModel
from repro.optim.base import Optimizer
from repro.optim.trainer import IterationRecord, TrainingResult
from repro.schemes.base import ExecutionPlan, Scheme
from repro.simulation.execution import worker_message
from repro.simulation.iteration import IterationOutcome, simulate_iteration
from repro.utils.counting import CountingList
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

__all__ = ["JobResult", "RepeatedOutcomeLog", "simulate_job", "simulate_training_run"]


@dataclass(frozen=True)
class _JobAggregates:
    """Single-traversal aggregate metrics over a job's iterations."""

    total_time: float
    total_computation_time: float
    total_communication_time: float
    average_recovery_threshold: Optional[float]
    average_communication_load: Optional[float]


class _IterationLog(CountingList):
    """A list of outcomes that counts its mutations.

    :class:`JobResult` keys its aggregate cache on
    :attr:`~repro.utils.counting.CountingList.version`, so *any* mutation —
    including replacing an outcome at an unchanged length, which a pure
    ``len()`` key would miss — invalidates the cached totals.
    """


class RepeatedOutcomeLog(_IterationLog):
    """One expected outcome standing in for ``repetitions`` identical iterations.

    The analytic backend's per-iteration estimate is the same for every
    iteration, so materialising one list entry per iteration would make an
    O(1) estimate O(num_iterations) in memory. This log reports
    ``repetitions`` iterations while storing the outcome once (the read-side
    sequence protocol — iteration, indexing, membership, equality — is
    overridden accordingly, since the inherited list storage stays empty),
    and :meth:`JobResult._aggregates` recognises it and computes the totals
    in O(1) as well. The log is immutable — an analytic result is a
    closed-form value, not a trace to append to.
    """

    def __init__(self, outcome: "IterationOutcome", repetitions: int) -> None:
        super().__init__()
        self.outcome = outcome
        self.repetitions = int(repetitions)

    # -- read-side sequence protocol (the underlying list stays empty) --- #
    def __len__(self) -> int:
        return self.repetitions

    def __bool__(self) -> bool:
        return self.repetitions > 0

    def __iter__(self):
        return itertools.repeat(self.outcome, self.repetitions)

    def __reversed__(self):
        return itertools.repeat(self.outcome, self.repetitions)

    def __contains__(self, item) -> bool:
        return self.repetitions > 0 and (item is self.outcome or item == self.outcome)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.outcome] * len(range(*index.indices(self.repetitions)))
        index = int(index)
        if index < 0:
            index += self.repetitions
        if not 0 <= index < self.repetitions:
            raise IndexError("iteration index out of range")
        return self.outcome

    def count(self, value: object) -> int:
        return self.repetitions if value in self else 0

    def index(self, value: object, *args: int) -> int:
        if value in self:
            return 0
        # reprolint: allow[EXC001] reason=mirrors list.index, which raises bare ValueError; the sequence protocol contract wins here
        raise ValueError(f"{value!r} is not in the log")

    def __eq__(self, other) -> bool:
        try:
            if len(other) != self.repetitions:
                return False
            return all(entry == self.outcome for entry in other)
        except TypeError:
            return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # mirrors list: logs are unhashable

    def __add__(self, other):
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def __mul__(self, times):
        return list(self) * times

    __rmul__ = __mul__

    def __reduce__(self):
        return (type(self), (self.outcome, self.repetitions))

    def _immutable(self, *args, **kwargs):
        # reprolint: allow[EXC001] reason=mutating an immutable sequence is a programming error; TypeError matches tuple/str semantics
        raise TypeError(
            "a repeated-outcome log is immutable; analytic results cannot be "
            "appended to"
        )


for _name in (
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "clear",
    "sort",
    "reverse",
    "__setitem__",
    "__delitem__",
    "__iadd__",
    "__imul__",
):
    setattr(RepeatedOutcomeLog, _name, RepeatedOutcomeLog._immutable)
del _name


@dataclass
class JobResult:
    """Aggregate timing metrics of a simulated multi-iteration job.

    The attributes mirror the rows of the paper's Tables I and II. The
    aggregate properties are computed in one pass over the iterations and
    cached, keyed on the iteration list's mutation counter — any change to
    the list (appends, but also in-place replacements) invalidates the
    cache, which ``summary()`` and the sweep tables read repeatedly.
    """

    scheme_name: str
    iterations: List[IterationOutcome] = field(default_factory=list)
    training: Optional[TrainingResult] = None
    _aggregate_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.iterations, _IterationLog):
            self.iterations = _IterationLog(self.iterations)

    def __getstate__(self) -> dict:
        # The cache key pairs the log's mutation counter with its length;
        # unpickling rebuilds the log with a fresh counter, so a carried
        # cache could collide with a different mutation history. Drop it —
        # it is a cache, recomputing is always safe.
        state = self.__dict__.copy()
        state["_aggregate_cache"] = None
        return state

    def _aggregates(self) -> _JobAggregates:
        # A plain list (someone reassigned the attribute) has no version
        # counter; disable caching rather than risk serving stale totals.
        version = getattr(self.iterations, "version", None)
        cached = self._aggregate_cache
        if (
            version is not None
            and cached is not None
            and cached[0] == version
        ):
            return cached[1]
        if isinstance(self.iterations, RepeatedOutcomeLog):
            # Every entry is the same expected outcome: the totals are plain
            # multiples and the averages are the values themselves, in O(1).
            outcome = self.iterations.outcome
            count = self.iterations.repetitions
            aggregates = _JobAggregates(
                total_time=outcome.total_time * count,
                total_computation_time=outcome.computation_time * count,
                total_communication_time=outcome.communication_time * count,
                average_recovery_threshold=(
                    float(outcome.workers_heard) if count else None
                ),
                average_communication_load=(
                    float(outcome.communication_load) if count else None
                ),
            )
            if version is not None:
                self._aggregate_cache = (version, aggregates)
            return aggregates
        total = []
        computation = []
        communication = []
        workers_heard = []
        communication_load = []
        for outcome in self.iterations:
            total.append(outcome.total_time)
            computation.append(outcome.computation_time)
            communication.append(outcome.communication_time)
            workers_heard.append(outcome.workers_heard)
            communication_load.append(outcome.communication_load)
        aggregates = _JobAggregates(
            total_time=float(sum(total)),
            total_computation_time=float(sum(computation)),
            total_communication_time=float(sum(communication)),
            average_recovery_threshold=(
                float(np.mean(workers_heard)) if workers_heard else None
            ),
            average_communication_load=(
                float(np.mean(communication_load)) if communication_load else None
            ),
        )
        if version is not None:
            self._aggregate_cache = (version, aggregates)
        return aggregates

    @property
    def num_iterations(self) -> int:
        """Number of simulated iterations."""
        return len(self.iterations)

    @property
    def total_time(self) -> float:
        """Total running time (sum over iterations)."""
        return self._aggregates().total_time

    @property
    def total_computation_time(self) -> float:
        """Sum of per-iteration computation times (paper's accounting)."""
        return self._aggregates().total_computation_time

    @property
    def total_communication_time(self) -> float:
        """Total running time minus total computation time."""
        return self._aggregates().total_communication_time

    @property
    def average_recovery_threshold(self) -> float:
        """Average number of workers the master waited for per iteration."""
        value = self._aggregates().average_recovery_threshold
        if value is None:
            raise SimulationError("the job has no iterations")
        return value

    @property
    def average_communication_load(self) -> float:
        """Average per-iteration communication load in gradient units."""
        value = self._aggregates().average_communication_load
        if value is None:
            raise SimulationError("the job has no iterations")
        return value

    def summary(self) -> dict:
        """Dictionary of the headline metrics (used by the report tables)."""
        return {
            "scheme": self.scheme_name,
            "iterations": self.num_iterations,
            "recovery_threshold": self.average_recovery_threshold,
            "communication_load": self.average_communication_load,
            "communication_time": self.total_communication_time,
            "computation_time": self.total_computation_time,
            "total_time": self.total_time,
        }


def _resolve_plan(
    scheme_or_plan: Scheme | ExecutionPlan,
    num_units: int,
    num_workers: int,
    rng: np.random.Generator,
) -> ExecutionPlan:
    if isinstance(scheme_or_plan, ExecutionPlan):
        return scheme_or_plan
    if isinstance(scheme_or_plan, Scheme):
        return scheme_or_plan.build_feasible_plan(num_units, num_workers, rng)
    raise SimulationError(
        "expected a Scheme or an ExecutionPlan, got "
        f"{type(scheme_or_plan).__name__}"
    )


def _materialize_timeline(
    cluster: ClusterSpec | DynamicClusterSpec,
    num_iterations: int,
    generator: np.random.Generator,
) -> Optional[ClusterTimeline]:
    """Realise a dynamic cluster's timeline; ``None`` for stationary clusters.

    Called *after* plan resolution in every engine, so the timeline's
    (at most one) seed draw sits at the same point of the job stream
    everywhere — part of the loop==vectorized bit-identity contract.
    """
    if isinstance(cluster, DynamicClusterSpec):
        return cluster.materialize(num_iterations, generator)
    return None


def simulate_job(
    scheme_or_plan: Scheme | ExecutionPlan,
    cluster: ClusterSpec | DynamicClusterSpec,
    num_units: int,
    num_iterations: int,
    rng: RandomState = None,
    *,
    unit_size: int = 1,
    serialize_master_link: bool = True,
    engine: str = "loop",
) -> JobResult:
    """Timing-only simulation of ``num_iterations`` distributed GD iterations.

    The placement is frozen once (as in the paper, data is loaded onto the
    workers before the iterations start). On a stationary
    :class:`~repro.cluster.spec.ClusterSpec` only the per-iteration
    completion times vary across iterations; a
    :class:`~repro.cluster.dynamic.DynamicClusterSpec` additionally varies
    the per-worker delay models themselves (regime switching, drift,
    preemption, churn) while the placement — planned against its base
    cluster — stays frozen.

    Parameters
    ----------
    engine:
        ``"loop"`` (default) iterates :func:`simulate_iteration` in Python;
        ``"vectorized"`` batches every iteration's timing in NumPy
        (:mod:`repro.simulation.vectorized`); ``"auto"`` picks by job size.
        The engines consume the random stream identically — on dynamic
        clusters too — so the result is the same bit for bit; only the
        speed differs.
    """
    check_positive_int(num_iterations, "num_iterations")
    from repro.simulation.vectorized import resolve_engine, simulate_job_vectorized

    if (
        resolve_engine(
            engine, num_iterations=num_iterations, num_workers=cluster.num_workers
        )
        == "vectorized"
    ):
        return simulate_job_vectorized(
            scheme_or_plan,
            cluster,
            num_units,
            num_iterations,
            rng,
            unit_size=unit_size,
            serialize_master_link=serialize_master_link,
        )
    generator = as_generator(rng)
    plan = _resolve_plan(scheme_or_plan, num_units, cluster.num_workers, generator)
    timeline = _materialize_timeline(cluster, num_iterations, generator)
    result = JobResult(scheme_name=plan.scheme_name)
    for iteration in range(num_iterations):
        outcome = simulate_iteration(
            plan,
            cluster if timeline is None else timeline.cluster_at(iteration),
            rng=generator,
            unit_size=unit_size,
            serialize_master_link=serialize_master_link,
        )
        result.iterations.append(outcome)
    return result


def simulate_training_run(
    scheme_or_plan: Scheme | ExecutionPlan,
    cluster: ClusterSpec | DynamicClusterSpec,
    model: GradientModel,
    dataset: Dataset,
    optimizer: Optimizer,
    num_iterations: int,
    rng: RandomState = None,
    *,
    unit_spec: Optional[BatchSpec] = None,
    serialize_master_link: bool = True,
    initial_weights: Optional[np.ndarray] = None,
) -> JobResult:
    """Semantic simulation: simulated timing *and* real gradient computation.

    Each iteration first runs the timing simulation to determine which
    workers the master hears from (and how long the iteration takes), then
    computes those workers' actual messages, decodes the gradient at the
    master, and applies the optimizer update. The returned
    :class:`JobResult` therefore carries both the timing metrics and a
    :class:`~repro.optim.trainer.TrainingResult` with the loss trajectory.

    Parameters
    ----------
    unit_spec:
        Mapping from data units to example indices. ``None`` means the units
        *are* the examples; otherwise the plan's units index the batches of
        ``unit_spec`` (whose sizes also drive the computation-time draws).
    """
    check_positive_int(num_iterations, "num_iterations")
    generator = as_generator(rng)
    num_units = unit_spec.num_batches if unit_spec is not None else dataset.num_examples
    unit_size = unit_spec.max_batch_size if unit_spec is not None else 1
    plan = _resolve_plan(scheme_or_plan, num_units, cluster.num_workers, generator)
    timeline = _materialize_timeline(cluster, num_iterations, generator)

    if initial_weights is None:
        initial_weights = model.initial_weights(dataset.num_features)
    state = optimizer.initialize(initial_weights)

    result = JobResult(scheme_name=plan.scheme_name)
    history: List[IterationRecord] = []
    for iteration in range(num_iterations):
        outcome = simulate_iteration(
            plan,
            cluster if timeline is None else timeline.cluster_at(iteration),
            rng=generator,
            unit_size=unit_size,
            serialize_master_link=serialize_master_link,
        )
        result.iterations.append(outcome)

        # Re-run the aggregation with real messages from exactly the workers
        # the timing simulation heard from, in the same arrival order.
        query = optimizer.query_point(state)
        aggregator = plan.new_aggregator()
        complete = False
        for worker in outcome.heard_workers:
            message = worker_message(plan, int(worker), model, dataset, query, unit_spec)
            complete = aggregator.receive(int(worker), message)
            if complete:
                break
        if not complete:
            raise SimulationError(
                "internal inconsistency: the timing simulation completed but "
                "the semantic aggregation did not"
            )
        gradient = aggregator.decode() / float(dataset.num_examples)

        loss = model.loss(state.weights, dataset.features, dataset.labels)
        history.append(
            IterationRecord(
                iteration=iteration,
                loss=loss,
                gradient_norm=float(np.linalg.norm(gradient)),
                learning_rate=optimizer.schedule(iteration),
            )
        )
        state = optimizer.step(state, gradient)

    result.training = TrainingResult(
        weights=state.weights, history=history, converged=False
    )
    return result
