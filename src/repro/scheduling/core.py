"""Plan building and task execution — the shared cell-scheduling core.

A sweep's execution decomposes into an ordered list of :class:`CellTask`
work items: either one ``(cell, trial)`` run or a whole trial-batched cell.
:func:`build_sweep_plan` makes every per-cell decision — seed derivation,
trial batching, record mode — exactly once, so serial, process-pool and
service execution cannot drift apart; :func:`execute_task` is the single
runner each of them dispatches. Tasks carry their cell's scheme as given:
whether one plan may serve several trials is the engine's decision
(:func:`~repro.simulation.vectorized.simulate_job_batch`), made where the
task runs.

The scheduler core deliberately contains no execution policy (pools, event
loops, caches): those live in :mod:`repro.scheduling.executors` and
:mod:`repro.service`, all consuming the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

import numpy as np

from repro.api.backends import Backend, TimingSimBackend
from repro.api.result import RunResult
from repro.api.spec import JobSpec
from repro.exceptions import (
    AnalyticIntractableError,
    ConfigurationError,
    ReproError,
    SimulationError,
)
from repro.schemes.base import ExecutionPlan
from repro.utils.rng import RandomState, random_seed_sequence

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from repro.api.sweep import Sweep

__all__ = [
    "CellTask",
    "SweepPlan",
    "build_sweep_plan",
    "describe_task",
    "execute_task",
    "probe_rng_free_plan",
    "should_batch_cell",
]


@dataclass(frozen=True)
class CellTask:
    """One schedulable unit of sweep work.

    A ``"trial"`` task executes a single ``(cell, trial)`` run — ``spec``
    already carries the trial's seed; a ``"cell"`` task dispatches the whole
    cell as one trial-batched engine entry over ``seeds``, in which every
    trial builds its own plan from its own seed unless planning draws
    nothing or ``spec`` carries an
    :class:`~repro.schemes.base.ExecutionPlan`. Either way the task is
    self-contained (backend, spec, record mode), so it can run in this
    thread, a pool worker, or an event-loop executor unchanged.

    Attributes
    ----------
    backend:
        The backend instance executing the task.
    spec:
        The fully derived cell spec (per-trial seed applied for
        ``"trial"`` tasks; seedless cell spec for ``"cell"`` tasks).
    record:
        ``"full"`` or ``"summary"`` (see :mod:`repro.api.result`).
    cell:
        Index of the sweep cell this task belongs to.
    params:
        The cell's swept parameter assignment — carried so failures and
        cache keys can name the configuration without replay.
    trials:
        The trial indices this task produces, in order.
    seeds:
        The spawned per-trial seeds of a ``"cell"`` task; ``None`` for
        ``"trial"`` tasks.
    """

    backend: Backend
    spec: JobSpec
    record: str
    cell: int
    params: Mapping[str, object]
    trials: Tuple[int, ...]
    seeds: Optional[Tuple[RandomState, ...]] = None

    @property
    def kind(self) -> str:
        """``"cell"`` when the task carries ``seeds``, ``"trial"`` otherwise."""
        return "trial" if self.seeds is None else "cell"

    @property
    def entries(self) -> Tuple[Tuple[int, Mapping[str, object], int], ...]:
        """The ``(cell, params, trial)`` layout of the task's results."""
        return tuple((self.cell, self.params, trial) for trial in self.trials)


@dataclass(frozen=True)
class SweepPlan:
    """The complete, execution-independent schedule of one sweep.

    Attributes
    ----------
    tasks:
        The work items, in deterministic cell-then-trial order.
    parameter_names:
        The sweep's axis names (carried into the result).
    trials:
        Monte-Carlo replications per cell.
    """

    tasks: Tuple[CellTask, ...]
    parameter_names: Tuple[str, ...]
    trials: int


def describe_task(task: CellTask) -> str:
    """A one-line identification of a task for error messages and logs.

    Names the cell index and the swept parameter values, so a failing cell
    in a large grid is identifiable without replaying the sweep.
    """
    if task.params:
        assignment = ", ".join(
            f"{key}={value!r}" for key, value in task.params.items()
        )
        return f"sweep cell {task.cell} ({assignment})"
    return f"sweep cell {task.cell}"


def probe_rng_free_plan(spec: JobSpec) -> Optional[ExecutionPlan]:
    """The spec's execution plan if planning consumes no randomness, else None.

    Builds the plan with a probe generator and compares the generator's
    state before and after: an unchanged state proves the placement cannot
    depend on the trial's seed. Only :func:`should_batch_cell` asks, for a
    cell of fewer than ``_MIN_PROBE_FREE_BATCH`` trials. Random placements
    (and anything that fails to plan; the real run will surface the error
    with full context) return ``None``.
    """
    if spec.cluster is None or isinstance(spec.scheme, ExecutionPlan):
        return None
    try:
        scheme = spec.resolve_scheme()
        # reprolint: allow[RNG001] reason=state-probe generator; draws are discarded and the unchanged-state check is the whole point
        probe = np.random.default_rng(0)
        state = probe.bit_generator.state
        plan = scheme.build_feasible_plan(
            spec.resolved_num_units, spec.cluster.num_workers, probe
        )
        if probe.bit_generator.state != state:
            return None
        return plan
    except ReproError:
        # Only the library's own failure hierarchy is a "not draw-free"
        # signal (infeasible plans, bad configs, allocation failures);
        # programming errors must propagate, not be silently hoover-ed up —
        # EXC002 keeps catch-alls out of this core.
        return None


#: The fewest trials at which ``"auto"`` batches a cell without probing its
#: planning. A two-trial cell keeps the older rule (batched only when its
#: planning is draw-free, per-trial tasks otherwise): the task shape the
#: benchmark harness's tracer test pins (``benchmarks/e2e/test_e2e.py``).
#: Either shape gives the same results; batching would be faster.
_MIN_PROBE_FREE_BATCH = 3


def should_batch_cell(
    backend: Backend, spec: JobSpec, trials: int, trial_batching: str
) -> bool:
    """Whether one cell should run as a single trial-batched task.

    ``"never"`` and single-trial cells keep per-trial tasks; otherwise a
    cell batches when the backend supports trial batching for this spec (a
    vectorized-engine :class:`~repro.api.backends.TimingSimBackend`).
    Every trial of a batched cell still builds its own plan from its own
    seed (the :func:`~repro.simulation.vectorized.simulate_job_batch`
    contract), so batching is bit-identical to per-trial tasks for every
    scheme; a cell of fewer than ``_MIN_PROBE_FREE_BATCH`` trials batches
    only when :func:`probe_rng_free_plan` finds its planning draw-free.
    """
    if trial_batching == "never" or trials < 2:
        return False
    if not isinstance(backend, TimingSimBackend):
        return False
    try:
        if not backend.supports_trial_batching(spec):
            return False
    except ConfigurationError:
        return False
    if trials >= _MIN_PROBE_FREE_BATCH:
        return True
    return probe_rng_free_plan(spec) is not None


def build_sweep_plan(
    sweep: "Sweep",
    *,
    backend: Backend,
    record: str = "full",
    trial_batching: str = "auto",
) -> SweepPlan:
    """Expand a sweep into its :class:`CellTask` schedule.

    Every per-cell decision is made here, once, independent of execution:
    seed derivation (one spawned child per ``(cell, trial)``) and whether a
    cell dispatches as one trial-batched task. No plan is built here beyond
    :func:`should_batch_cell`'s probe of a two-trial cell: every task
    carries the cell's own scheme and plans where it runs.

    The children are spawned from
    :func:`~repro.utils.rng.random_seed_sequence`'s copy of the base seed,
    so a ``SeedSequence`` base seed is never advanced and yields the same
    tasks on every call.
    """
    cells = sweep.cells()
    children = random_seed_sequence(sweep.base.seed).spawn(len(cells) * sweep.trials)
    tasks: List[CellTask] = []
    for index, params in enumerate(cells):
        cell_spec = sweep.base.with_overrides(params)
        cell_children = children[index * sweep.trials : (index + 1) * sweep.trials]
        if should_batch_cell(backend, cell_spec, sweep.trials, trial_batching):
            tasks.append(
                CellTask(
                    backend=backend,
                    spec=cell_spec.replace(seed=None),
                    record=record,
                    cell=index,
                    params=params,
                    trials=tuple(range(sweep.trials)),
                    seeds=tuple(cell_children),
                )
            )
            continue
        for trial, child in enumerate(cell_children):
            tasks.append(
                CellTask(
                    backend=backend,
                    spec=cell_spec.replace(seed=child),
                    record=record,
                    cell=index,
                    params=params,
                    trials=(trial,),
                )
            )
    return SweepPlan(
        tasks=tuple(tasks),
        parameter_names=tuple(sweep.parameters),
        trials=sweep.trials,
    )


def execute_task(task: CellTask) -> List[RunResult]:
    """Execute one task — a single (cell, trial) run or a whole cell.

    Either way a list of results comes back (one per trial), compacted when
    ``record="summary"`` so only aggregates cross a process pool's pickle
    boundary. Failures are re-raised with the task's cell index and swept
    parameter values attached (see :func:`describe_task`), so one bad cell
    in a large grid is identifiable without replay.
    """
    spec = task.spec
    try:
        if task.seeds is not None:
            return task.backend.run_batch(  # type: ignore[attr-defined]
                spec, list(task.seeds), record=task.record
            )
        result = task.backend.run(spec)
        if task.record == "summary":
            result = result.compact()
        return [result]
    except AnalyticIntractableError as error:
        # Surface which sweep cell fell outside the closed-form regime —
        # with dozens of cells, "which configuration?" is the question.
        raise AnalyticIntractableError(
            f"{describe_task(task)} (scheme={spec.scheme!r}, "
            f"serialize_master_link={spec.serialize_master_link}) has no "
            f"closed-form runtime: {error}"
        ) from error
    except SimulationError as error:
        # Same courtesy for simulation failures: name the cell. The usual
        # cause is a dynamic cluster whose churn removed the last holders of
        # a data unit; the churn ablation driver (repro.experiments.churn)
        # reports such cells as FAILED instead of aborting.
        raise SimulationError(
            f"{describe_task(task)} (scheme={spec.scheme!r}) could not "
            f"complete: {error}"
        ) from error
