"""Multi-iteration job simulation.

:func:`simulate_job` runs a timing-only job — the mode used by every
figure/table benchmark — while :func:`simulate_training_run` executes the
same job *semantically*: each simulated iteration's responding workers supply
real encoded gradients that drive an optimizer, so the run produces both
timing metrics and an actual trained model under simulated time.
"""

from __future__ import annotations

import itertools
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator, List, Optional, SupportsIndex, Tuple

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
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "ColumnarOutcomeLog",
    "JobResult",
    "RepeatedOutcomeLog",
    "simulate_job",
    "simulate_training_run",
]


@dataclass(frozen=True)
class _JobAggregates:
    """Single-traversal aggregate metrics over a job's iterations."""

    total_time: float
    total_computation_time: float
    total_communication_time: float
    average_recovery_threshold: Optional[float]
    average_communication_load: Optional[float]


def _sequential_sum(values: np.ndarray | Sequence[float]) -> float:
    """``((0.0 + v[0]) + v[1]) + ...``, rounded after every addition.

    This order defines a job's totals; it is what the built-in ``sum()``
    computed before Python 3.12. Python 3.12's ``sum()`` compensates and
    ``np.sum`` adds pairwise, so either would make the totals (and every
    digest built on them) depend on the interpreter.
    """
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


class _OutcomeLog(Sequence[IterationOutcome]):
    """The read side of a log that builds its outcomes only on access.

    A subclass reports its length through ``__len__`` and builds the
    outcome at a non-negative, in-range index in :meth:`_outcome`; indexing
    and equality go through those two hooks, and the
    :class:`~collections.abc.Sequence` mixins supply iteration, membership,
    ``index`` and ``count``, so the log reads like the tuple of outcomes it
    stands for. The log has no mutating method.
    """

    def __len__(self) -> int:
        raise NotImplementedError

    def _outcome(self, index: int) -> IterationOutcome:
        raise NotImplementedError

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self._outcome(i) for i in range(*index.indices(len(self)))]
        index = operator.index(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("iteration index out of range")
        return self._outcome(index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(other) == len(self) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} iterations>"


class RepeatedOutcomeLog(_OutcomeLog):
    """One expected outcome standing in for ``repetitions`` identical iterations.

    The analytic backend's per-iteration estimate is the same for every
    iteration, so materialising one entry per iteration would make an
    O(1) estimate O(num_iterations) in memory. This log reports
    ``repetitions`` iterations while storing the outcome once, and
    :class:`JobResult` recognises it and computes the totals in O(1) as
    well.
    """

    def __init__(self, outcome: IterationOutcome, repetitions: int) -> None:
        self.outcome = outcome
        self.repetitions = int(repetitions)

    def __len__(self) -> int:
        return self.repetitions

    def _outcome(self, index: int) -> IterationOutcome:
        return self.outcome

    # O(1) answers where the Sequence mixins would visit every repetition.
    def __iter__(self) -> Iterator[IterationOutcome]:
        return itertools.repeat(self.outcome, self.repetitions)

    __reversed__ = __iter__

    def __contains__(self, item: object) -> bool:
        return self.repetitions > 0 and (item is self.outcome or item == self.outcome)

    def count(self, value: Any) -> int:
        return self.repetitions if value in self else 0

    def index(
        self, value: Any, start: SupportsIndex = 0, stop: SupportsIndex = sys.maxsize
    ) -> int:
        positions = range(*slice(start, stop).indices(self.repetitions))
        if positions and value in self:
            return positions[0]
        # reprolint: allow[EXC001] reason=mirrors list.index, which raises bare ValueError; the sequence protocol contract wins here
        raise ValueError(f"{value!r} is not in the log")


class ColumnarOutcomeLog(_OutcomeLog):
    """A job's iteration log held as one array per :class:`IterationOutcome` field.

    Entry ``i`` of ``total_time``, ``computation_time``,
    ``communication_time``, ``workers_heard``, ``communication_load`` and
    ``workers_finished_compute`` belongs to iteration ``i``.
    ``heard_workers`` is a CSR index: the heard worker ids of every
    iteration, concatenated in iteration and arrival order, so iteration
    ``i`` owns the next ``workers_heard[i]`` of them. The vectorized engine
    returns its results in this form. Outcomes are built only when read,
    :class:`JobResult` reduces the columns directly, and the log pickles as
    its arrays. The log takes its arrays over and marks them read-only.
    """

    def __init__(
        self,
        total_time: np.ndarray,
        computation_time: np.ndarray,
        communication_time: np.ndarray,
        workers_heard: np.ndarray,
        communication_load: np.ndarray,
        workers_finished_compute: np.ndarray,
        heard_workers: np.ndarray,
    ) -> None:
        self.total_time = _read_only(total_time)
        self.computation_time = _read_only(computation_time)
        self.communication_time = _read_only(communication_time)
        self.workers_heard = _read_only(workers_heard)
        self.communication_load = _read_only(communication_load)
        self.workers_finished_compute = _read_only(workers_finished_compute)
        self.heard_workers = _read_only(heard_workers)

    def _columns(self) -> Tuple[np.ndarray, ...]:
        """The arrays in constructor order."""
        return (
            self.total_time,
            self.computation_time,
            self.communication_time,
            self.workers_heard,
            self.communication_load,
            self.workers_finished_compute,
            self.heard_workers,
        )

    def __len__(self) -> int:
        return len(self.total_time)

    def _outcome(self, index: int) -> IterationOutcome:
        start = int(self.workers_heard[:index].sum())
        stop = start + int(self.workers_heard[index])
        return IterationOutcome(
            total_time=float(self.total_time[index]),
            computation_time=float(self.computation_time[index]),
            communication_time=float(self.communication_time[index]),
            workers_heard=stop - start,
            communication_load=float(self.communication_load[index]),
            workers_finished_compute=int(self.workers_finished_compute[index]),
            heard_workers=tuple(self.heard_workers[start:stop].tolist()),
        )

    def __iter__(self) -> Iterator[IterationOutcome]:
        heard = iter(self.heard_workers.tolist())
        for total, computation, communication, count, load, finished in zip(
            *(column.tolist() for column in self._columns()[:-1])
        ):
            yield IterationOutcome(
                total, computation, communication, count, load, finished,
                tuple(itertools.islice(heard, count)),
            )

    def __reduce__(self) -> Tuple[Any, ...]:
        return (type(self), self._columns())


def _aggregated_columns(log: Sequence[IterationOutcome]) -> Tuple[Any, ...]:
    """A log's total, computation and communication times, heard counts and
    communication loads, one sequence each."""
    if isinstance(log, ColumnarOutcomeLog):
        return (
            log.total_time,
            log.computation_time,
            log.communication_time,
            log.workers_heard,
            log.communication_load,
        )
    rows = [
        (
            outcome.total_time,
            outcome.computation_time,
            outcome.communication_time,
            outcome.workers_heard,
            outcome.communication_load,
        )
        for outcome in log
    ]
    return tuple(zip(*rows)) if rows else ((),) * 5


def _read_only(column: np.ndarray) -> np.ndarray:
    array = np.asarray(column)
    array.flags.writeable = False
    return array


#: The logs a :class:`JobResult` keeps as given; it stores any other
#: sequence of outcomes as a tuple.
_LOG_TYPES = (tuple, ColumnarOutcomeLog, RepeatedOutcomeLog)


@dataclass(frozen=True)
class JobResult:
    """Aggregate timing metrics of a simulated multi-iteration job.

    The attributes mirror the rows of the paper's Tables I and II. A result
    is an immutable value, and ``iterations`` is a read-only sequence of
    :class:`IterationOutcome` whichever engine filled it: the loop engine
    returns a tuple, the vectorized engine a :class:`ColumnarOutcomeLog`
    and the analytic backend a :class:`RepeatedOutcomeLog`. The aggregate
    properties reduce the columnar log's arrays directly (other logs in one
    pass over their outcomes), sum the times left to right from ``0.0`` on
    every log, and are computed once, on first read.
    """

    scheme_name: str
    iterations: Sequence[IterationOutcome] = ()
    training: Optional[TrainingResult] = None

    # Compared by value, never hashed: a frozen dataclass would otherwise
    # hash its fields, which only some engines' logs support.
    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        # Exact types: an isinstance test against the Sequence ABC would
        # cost about a microsecond on every result a sweep builds.
        if type(self.iterations) not in _LOG_TYPES:
            object.__setattr__(self, "iterations", tuple(self.iterations))

    @cached_property
    def _aggregates(self) -> _JobAggregates:
        log = self.iterations
        if isinstance(log, RepeatedOutcomeLog):
            # Every entry is the same expected outcome: the totals are plain
            # multiples and the averages are the values themselves, in O(1).
            outcome = log.outcome
            count = log.repetitions
            return _JobAggregates(
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
        total, computation, communication, heard, load = _aggregated_columns(log)
        return _JobAggregates(
            total_time=_sequential_sum(total),
            total_computation_time=_sequential_sum(computation),
            total_communication_time=_sequential_sum(communication),
            average_recovery_threshold=(
                float(np.mean(heard)) if len(heard) else None
            ),
            average_communication_load=(
                float(np.mean(load)) if len(load) else None
            ),
        )

    @property
    def num_iterations(self) -> int:
        """Number of simulated iterations."""
        return len(self.iterations)

    @property
    def total_time(self) -> float:
        """Total running time (sum over iterations)."""
        return self._aggregates.total_time

    @property
    def total_computation_time(self) -> float:
        """Sum of per-iteration computation times (paper's accounting)."""
        return self._aggregates.total_computation_time

    @property
    def total_communication_time(self) -> float:
        """Total running time minus total computation time."""
        return self._aggregates.total_communication_time

    @property
    def average_recovery_threshold(self) -> float:
        """Average number of workers the master waited for per iteration."""
        value = self._aggregates.average_recovery_threshold
        if value is None:
            raise SimulationError("the job has no iterations")
        return value

    @property
    def average_communication_load(self) -> float:
        """Average per-iteration communication load in gradient units."""
        value = self._aggregates.average_communication_load
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
        ``"loop"`` (default, the reference oracle) iterates
        :func:`simulate_iteration` in Python; ``"vectorized"`` batches every
        iteration's timing in NumPy (:mod:`repro.simulation.vectorized`), and
        ``"auto"`` means ``"vectorized"``.
        The engines consume the random stream identically — on dynamic
        clusters too — so the result is the same bit for bit; only the
        speed differs.
    """
    check_positive_int(num_iterations, "num_iterations")
    from repro.simulation.vectorized import resolve_engine, simulate_job_vectorized

    if resolve_engine(engine) == "vectorized":
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
    outcomes = [
        simulate_iteration(
            plan,
            cluster if timeline is None else timeline.cluster_at(iteration),
            rng=generator,
            unit_size=unit_size,
            serialize_master_link=serialize_master_link,
        )
        for iteration in range(num_iterations)
    ]
    return JobResult(scheme_name=plan.scheme_name, iterations=tuple(outcomes))


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

    outcomes: List[IterationOutcome] = []
    history: List[IterationRecord] = []
    for iteration in range(num_iterations):
        outcome = simulate_iteration(
            plan,
            cluster if timeline is None else timeline.cluster_at(iteration),
            rng=generator,
            unit_size=unit_size,
            serialize_master_link=serialize_master_link,
        )
        outcomes.append(outcome)

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

    return JobResult(
        scheme_name=plan.scheme_name,
        iterations=tuple(outcomes),
        training=TrainingResult(weights=state.weights, history=history, converged=False),
    )
