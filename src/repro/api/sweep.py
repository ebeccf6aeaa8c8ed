"""Grid/zip parameter sweeps with Monte-Carlo replication over the API.

A :class:`Sweep` pairs a base :class:`~repro.api.spec.JobSpec` with named
parameter axes. :func:`run_sweep` expands the axes into cells (the cartesian
product in ``grid`` mode, position-wise in ``zip`` mode), replicates every
cell over ``trials`` independent runs, executes them on the sweep's backend —
serially or via a ``concurrent.futures`` pool — and returns a
:class:`SweepResult` whose records aggregate into report tables.

Seeding
-------
Every (cell, trial) gets its own :class:`numpy.random.SeedSequence` child,
spawned from the base spec's seed, so the records are identical whether the
sweep runs serially or on a process pool. An int or
``SeedSequence`` base seed repeats: every ``run_sweep`` call of the same
sweep yields the same records (and a cache serves the repeats). A live
:class:`numpy.random.Generator` base seed is consumed instead — each
``run_sweep`` call draws one integer from it to seed the spawn root — so
repeated calls differ.

The hot path
------------
Trial count is the knob Monte-Carlo users turn most, so :func:`run_sweep`
works hard to keep its cost sub-linear:

* **Trial batching** (``trial_batching=``). A whole cell can be
  dispatched as *one* task that simulates every trial in one vectorized
  engine entry (:meth:`TimingSimBackend.run_batch
  <repro.api.backends.TimingSimBackend.run_batch>`). ``"auto"`` (default)
  batches every cell the backend can batch (the vectorized engine) except a
  two-trial cell whose planning draws, which keeps per-trial tasks: every
  trial still builds its own plan from its own spawned seed (the
  :func:`~repro.simulation.vectorized.simulate_job_batch` contract), so a
  random placement is re-drawn per trial and the records are bit-identical
  to per-trial tasks. One plan serves every trial of a batched cell when
  planning draws nothing. ``"never"`` keeps per-trial tasks. To hold one
  placement fixed across a cell's trials, pass an
  :class:`~repro.schemes.base.ExecutionPlan` as the spec's scheme: every
  trial then runs on it.
* **Summary records** (``record="summary"``). Each task compacts its
  :class:`~repro.api.result.RunResult` before returning it, so a process
  pool ships a few hundred bytes of aggregates per trial instead of
  pickling full per-iteration logs across the process boundary. Tables and
  aggregate metrics are unchanged; per-iteration access is dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.backends import BackendLike, get_backend
from repro.api.result import RunResult, validate_record
from repro.api.spec import JobSpec
from repro.exceptions import ConfigurationError
from repro.scheduling.core import SweepPlan, build_sweep_plan
from repro.scheduling.executors import Executor, resolve_executor
from repro.schemes.base import ExecutionPlan, Scheme
from repro.utils.tables import TextTable
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from repro.service.cache import ResultCache

__all__ = [
    "Sweep",
    "SweepRecord",
    "SweepResult",
    "TRIAL_BATCHING_MODES",
    "run_sweep",
]

#: Recognised ``trial_batching`` knob values (see the module docstring).
TRIAL_BATCHING_MODES = ("auto", "never")


@dataclass(frozen=True)
class Sweep:
    """A declarative parameter sweep over one base job spec.

    Attributes
    ----------
    base:
        The spec every cell is derived from.
    parameters:
        Ordered mapping from override key (a :meth:`JobSpec.with_overrides`
        key such as ``"scheme"``, ``"scheme.load"``, ``"cluster"``,
        ``"num_iterations"``) to the sequence of values to sweep.
    mode:
        ``"grid"`` for the cartesian product of the axes (first axis
        outermost), ``"zip"`` for position-wise pairing of equal-length axes.
    trials:
        Monte-Carlo replications per cell.
    backend:
        Backend name, instance, or a bare ``spec -> RunResult`` callable.
        Pass a configured instance to pick a timing engine for the whole
        sweep (``backend=TimingSimBackend(engine="vectorized")``); individual
        cells can override it via a ``backend_options`` axis, e.g.
        ``{"backend_options": [{"engine": "loop"}, {"engine": "vectorized"}]}``.

    Each (cell, trial) runs at its own child of ``base.seed`` (see the
    module docstring), so an int or ``SeedSequence`` seed reproduces the
    sweep's records exactly.
    """

    base: JobSpec
    parameters: Mapping[str, Sequence[object]] = field(default_factory=dict)
    mode: str = "grid"
    trials: int = 1
    backend: BackendLike = "timing"

    def __post_init__(self) -> None:
        check_positive_int(self.trials, "trials")
        if self.mode not in ("grid", "zip"):
            raise ConfigurationError(
                f"sweep mode must be 'grid' or 'zip', got {self.mode!r}"
            )
        for key, values in self.parameters.items():
            if len(values) == 0:
                raise ConfigurationError(f"sweep axis {key!r} has no values")
        if self.mode == "zip" and self.parameters:
            lengths = {key: len(values) for key, values in self.parameters.items()}
            if len(set(lengths.values())) > 1:
                raise ConfigurationError(
                    f"zip-mode sweep axes must have equal lengths, got {lengths}"
                )

    # ------------------------------------------------------------------ #
    def cells(self) -> List[Dict[str, object]]:
        """The parameter assignment of every sweep cell, in execution order."""
        if not self.parameters:
            return [{}]
        keys = list(self.parameters)
        if self.mode == "zip":
            return [
                dict(zip(keys, values))
                for values in zip(*(self.parameters[key] for key in keys))
            ]
        return [
            dict(zip(keys, values))
            for values in itertools.product(
                *(self.parameters[key] for key in keys)
            )
        ]

    def specs(self) -> List[JobSpec]:
        """The derived spec of every cell (without per-task seeds applied)."""
        return [self.base.with_overrides(cell) for cell in self.cells()]


@dataclass(frozen=True)
class SweepRecord:
    """One executed (cell, trial) task."""

    cell: int
    params: Mapping[str, object]
    trial: int
    result: RunResult


def _format_value(value: object) -> object:
    """Compact display form of a sweep parameter value for table cells."""
    if isinstance(value, Scheme):
        return repr(value)
    if isinstance(value, ExecutionPlan):
        return f"{value.scheme_name}(load={value.computational_load_units})"
    if isinstance(value, Mapping):
        name = value.get("name", "?")
        options = ", ".join(
            f"{key}={option}" for key, option in value.items() if key != "name"
        )
        return f"{name}({options})" if options else str(name)
    if isinstance(value, (str, int, float, bool)):
        return value
    return type(value).__name__


@dataclass(frozen=True)
class SweepResult:
    """All records of one sweep, plus tabulation helpers.

    A sweep result is an immutable value: ``records`` is a tuple (any other
    sequence passed in is stored as one) of records whose results are
    frozen too. :meth:`aggregate` keeps no cache; each call is one pass
    over the records, whose results compute their aggregates once.
    """

    records: Tuple[SweepRecord, ...] = ()
    parameter_names: Tuple[str, ...] = ()
    trials: int = 1

    def __post_init__(self) -> None:
        if type(self.records) is not tuple:
            object.__setattr__(self, "records", tuple(self.records))

    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[SweepRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def cell_records(self, cell: int) -> List[SweepRecord]:
        """The trial records of one cell, in trial order."""
        return [record for record in self.records if record.cell == cell]

    @property
    def num_cells(self) -> int:
        """Number of distinct parameter assignments."""
        return 1 + max((record.cell for record in self.records), default=-1)

    def rows(self) -> List[Dict[str, object]]:
        """One dict per record: parameters, trial index, and the summary."""
        return [
            {
                **{key: _format_value(value) for key, value in record.params.items()},
                "trial": record.trial,
                **record.result.summary(),
            }
            for record in self.records
        ]

    def aggregate(
        self, metrics: Optional[Sequence[str]] = None
    ) -> List[Dict[str, object]]:
        """One dict per cell: parameters plus trial-averaged numeric metrics.

        ``metrics`` defaults to every numeric key appearing in the records'
        summaries, in first-seen order. A metric present in only *some* of a
        cell's trial summaries is averaged over the trials that carry it,
        and the row then also reports ``"{metric}_count"`` with that trial
        count — without it, ``trials: N`` next to a subset mean would
        silently misrepresent the sample size. Rows where every trial
        carries the metric are unchanged (no count column).

        Every call builds fresh rows, so editing a returned row changes no
        later call's.
        """
        # One pass over the records: group by cell and collect summaries.
        by_cell: Dict[int, List[SweepRecord]] = {}
        summaries: Dict[int, List[dict]] = {}
        for record in self.records:
            by_cell.setdefault(record.cell, []).append(record)
            summaries.setdefault(record.cell, []).append(record.result.summary())
        if metrics is None:
            seen: Dict[str, None] = {}
            for cell_summaries in summaries.values():
                for summary in cell_summaries:
                    for key, value in summary.items():
                        if isinstance(value, (int, float)) and not isinstance(
                            value, bool
                        ):
                            seen.setdefault(key)
            metrics = list(seen)
        rows: List[Dict[str, object]] = []
        for cell in sorted(by_cell):
            records = by_cell[cell]
            row: Dict[str, object] = {
                key: _format_value(value) for key, value in records[0].params.items()
            }
            schemes = {record.result.scheme_name for record in records}
            if len(schemes) == 1:
                row.setdefault("scheme", next(iter(schemes)))
            row["trials"] = len(records)
            cell_summaries = summaries[cell]
            for metric in metrics:
                values = [s[metric] for s in cell_summaries if metric in s]
                if values:
                    row[metric] = float(np.mean(values))
                    if len(values) < len(cell_summaries):
                        # Partial coverage: the mean is over a subset of the
                        # trials while ``trials`` reports all of them, which
                        # silently skews any ranking built on the row. The
                        # count column is the signal; full-coverage rows are
                        # unchanged.
                        row[f"{metric}_count"] = len(values)
            rows.append(row)
        return rows

    def to_table(
        self,
        metrics: Optional[Sequence[str]] = None,
        *,
        title: str = "",
    ) -> TextTable:
        """Trial-averaged results as a monospace table, one row per cell."""
        rows = self.aggregate(metrics)
        if not rows:
            return TextTable(["(empty sweep)"], title=title)
        columns: Dict[str, None] = {}
        for row in rows:
            for key in row:
                columns.setdefault(key)
        table = TextTable(list(columns), title=title)
        for row in rows:
            table.add_row([row.get(column, "") for column in columns])
        return table


def run_sweep(
    sweep: Sweep,
    *,
    max_workers: Optional[int] = None,
    executor: Union[str, Executor] = "process",
    record: str = "full",
    trial_batching: str = "auto",
    cache: Optional[Union[str, "ResultCache"]] = None,
) -> SweepResult:
    """Execute every (cell, trial) task of a sweep and collect the records.

    ``run_sweep`` is a thin façade over the shared scheduling core
    (:mod:`repro.scheduling`): build the cell-task plan once, hand it to an
    executor, collect the records. Both execution modes — serial and
    process pool — dispatch the same plan through the same task runner, so
    they produce bit-identical records.
    With an int or ``SeedSequence`` base seed, repeated calls do too; a
    live ``Generator`` base seed is consumed (one draw per call), so
    repeated calls differ.

    Parameters
    ----------
    sweep:
        The sweep to run.
    max_workers:
        ``None``/``0``/``1`` runs serially; anything larger fans the tasks
        out over the chosen executor. Results are identical either way.
    executor:
        ``"process"`` (default), ``"serial"``, or an
        :class:`~repro.scheduling.executors.Executor` instance, which is
        used as given whatever ``max_workers`` says. A process pool gives
        the CPU-bound simulation backends multi-core speed-up but requires
        picklable specs and backends; a task that cannot pickle raises
        :class:`~repro.exceptions.ConfigurationError` — see the *Parallel
        sweeps and pickling* section of :doc:`the performance guide
        </performance>` for the constraints.
    record:
        ``"full"`` (default) keeps every result's per-iteration log;
        ``"summary"`` compacts each result to its aggregate statistics in
        the worker (see :meth:`RunResult.compact
        <repro.api.result.RunResult.compact>`), so parallel sweeps stop
        pickling iteration logs across process boundaries. Tables and
        aggregate metrics are identical in both modes.
    trial_batching:
        ``"auto"`` (default) or ``"never"`` — whether whole cells are
        dispatched as single trial-batched engine entries instead of one
        task per (cell, trial). See the module docstring: ``"auto"``
        batches every cell the backend can batch (a two-trial cell only
        when its planning is draw-free), with every trial drawing its own
        placement, so its records equal ``"never"``'s.
    cache:
        ``None`` (default) computes every task. A
        :class:`~repro.service.cache.ResultCache` instance (or a directory
        path, which opens one with a disk tier there) serves cached tasks
        by content fingerprint and stores the rest after execution —
        analytic cells are memoized forever, simulated cells are
        deterministic at fixed seeds, so repeat sweeps become cache hits.
        Uncacheable tasks (e.g. custom runner backends) are computed as
        usual. See :doc:`the service guide </service>` for the fingerprint
        contract.

    Examples
    --------
    Sweep the computational load over one base spec and read the records
    back in cell order:

    >>> from repro.api import JobSpec, Sweep, run_sweep
    >>> from repro.cluster.spec import ClusterSpec
    >>> from repro.stragglers.models import DeterministicDelay
    >>> cluster = ClusterSpec.homogeneous(10, DeterministicDelay(0.01))
    >>> base = JobSpec(
    ...     scheme={"name": "bcc", "load": 5},
    ...     cluster=cluster,
    ...     num_units=20,
    ...     num_iterations=2,
    ...     seed=0,
    ... )
    >>> result = run_sweep(Sweep(base, parameters={"scheme.load": [5, 10]}))
    >>> len(result)
    2
    >>> [record.params["scheme.load"] for record in result]
    [5, 10]

    The same sweep on the closed-form analytic backend never simulates an
    iteration (and is therefore O(1) in ``num_iterations``):

    >>> analytic = run_sweep(
    ...     Sweep(base, parameters={"scheme.load": [5, 10]}, backend="analytic")
    ... )
    >>> [record.result.backend for record in analytic]
    ['analytic', 'analytic']
    """
    validate_record(record)
    if trial_batching not in TRIAL_BATCHING_MODES:
        raise ConfigurationError(
            f"unknown trial_batching mode {trial_batching!r}; expected one "
            f"of {list(TRIAL_BATCHING_MODES)}"
        )
    backend = get_backend(sweep.backend)
    parallel = max_workers is not None and max_workers > 1
    if parallel or not isinstance(executor, str):
        runner = resolve_executor(executor, max_workers)
    else:
        # max_workers of None/0/1 has always meant serial execution, for
        # either name; any other name still fails in resolve_executor.
        runner = resolve_executor("serial" if executor == "process" else executor)
    # Executors resolved from a *name* are owned by this call: their
    # (persistent) pools are released on the way out. Instances passed in
    # stay open — the caller keeps them to reuse the warm pool across
    # sweeps and closes them when done.
    ephemeral = isinstance(executor, str)

    plan = build_sweep_plan(
        sweep,
        backend=backend,
        record=record,
        trial_batching=trial_batching,
    )

    try:
        if cache is not None:
            from repro.service.cache import ResultCache

            store = cache if isinstance(cache, ResultCache) else ResultCache(cache)
            results = _execute_with_cache(plan, runner, store)
        else:
            results = runner.execute(plan.tasks)
    finally:
        if ephemeral:
            closer = getattr(runner, "close", None)
            if closer is not None:
                closer()

    records = [
        SweepRecord(cell=index, params=params, trial=trial, result=result)
        for task, task_results in zip(plan.tasks, results)
        for (index, params, trial), result in zip(task.entries, task_results)
    ]
    return SweepResult(
        records=records,
        parameter_names=plan.parameter_names,
        trials=plan.trials,
    )


def _execute_with_cache(
    plan: SweepPlan, runner: Executor, store: "ResultCache"
) -> List[List[RunResult]]:
    """Serve cached tasks from the store, execute the rest, store them back.

    Uncacheable tasks (no canonical fingerprint — e.g. custom runner
    backends) get a ``None`` key and are simply computed. Misses are
    executed together through the runner, so a mostly cold cache still
    gets the executor's full parallelism; results come back in task order
    regardless of the hit/miss split.
    """
    keys = store.task_keys(plan.tasks)
    hits = [None if key is None else store.lookup(key) for key in keys]
    misses = [task for task, hit in zip(plan.tasks, hits) if hit is None]
    computed = iter(runner.execute(misses)) if misses else iter(())

    results: List[List[RunResult]] = []
    for task, key, hit in zip(plan.tasks, keys, hits):
        if hit is not None:
            results.append(hit)
            continue
        task_results = next(computed)
        if key is not None:
            store.store(key, task_results)
        results.append(task_results)
    return results
