"""The asyncio sweep service: submissions in, streamed records out.

:class:`SweepService` drives the same scheduling core as ``run_sweep`` —
:func:`~repro.scheduling.core.build_sweep_plan` shapes the work,
:func:`~repro.scheduling.core.execute_task` runs it — on an
:class:`~repro.scheduling.executors.AsyncExecutor`, and adds the
service-grade behaviours:

* **Cache integration.** Every task is keyed through the service's
  :class:`~repro.service.cache.ResultCache`; hits never execute.
* **In-flight deduplication.** Two concurrent submissions containing the
  same cell share one execution: the second awaits the first's future
  instead of recomputing.
* **Streaming.** :meth:`SweepService.stream` yields each task's
  :class:`~repro.api.sweep.SweepRecord` batch as it completes, so callers
  see partial results while the sweep runs; :meth:`SweepService.run`
  collects them into an ordered :class:`~repro.api.sweep.SweepResult`.
* **Budgets.** A per-request cell budget rejects oversized grids with
  :class:`~repro.exceptions.BudgetExceededError` *before* any cell
  executes.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, AsyncIterator, Dict, List, Optional, Union

from repro.api.backends import get_backend
from repro.api.result import RunResult, validate_record
from repro.api.sweep import TRIAL_BATCHING_MODES, Sweep, SweepRecord, SweepResult
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.scheduling.core import CellTask, build_sweep_plan
from repro.scheduling.executors import AsyncExecutor
from repro.service.cache import ResultCache

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from repro.tuning import TuneReport, TuneSpec

__all__ = ["ServiceStats", "SweepService"]


@dataclass
class ServiceStats:
    """Running counters of one service's traffic.

    ``cache`` statistics live on the service's
    :class:`~repro.service.cache.CacheStats`; these counters cover what
    only the service layer can see.
    """

    submissions: int = 0
    tasks_executed: int = 0
    tasks_deduplicated: int = 0
    budget_rejections: int = 0


class SweepService:
    """An asyncio front end over the scheduling core and result cache.

    Parameters
    ----------
    cache:
        A :class:`~repro.service.cache.ResultCache`, a directory path for
        one with a disk tier, or ``None`` for a fresh in-memory cache.
    max_workers:
        Concurrent task slots (the :class:`AsyncExecutor` bound);
        ``None`` lets every task run as soon as it is scheduled.
    cell_budget:
        Maximum cells per submission; ``None`` accepts any size.
    """

    def __init__(
        self,
        *,
        cache: Optional[Union[str, ResultCache]] = None,
        max_workers: Optional[int] = None,
        cell_budget: Optional[int] = None,
    ) -> None:
        if cache is None:
            self.cache = ResultCache()
        elif isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        self.executor = AsyncExecutor(max_workers)
        self.cell_budget = cell_budget
        self.stats = ServiceStats()
        self._inflight: Dict[str, "asyncio.Task[List[RunResult]]"] = {}

    # ------------------------------------------------------------------ #
    async def stream(
        self,
        sweep: Sweep,
        *,
        record: str = "summary",
        trial_batching: str = "auto",
    ) -> AsyncIterator[List[SweepRecord]]:
        """Yield each task's record batch as it completes.

        Batches arrive in *completion* order (a cache hit completes
        immediately); each batch holds the records of one scheduled task —
        one ``(cell, trial)`` record, or a whole trial-batched cell. Use
        :meth:`run` for the ordered, aggregated result.

        Raises
        ------
        BudgetExceededError
            Before any cell executes, when the sweep's cell count exceeds
            the configured ``cell_budget``.
        """
        validate_record(record)
        if trial_batching not in TRIAL_BATCHING_MODES:
            raise ConfigurationError(
                f"unknown trial_batching mode {trial_batching!r}; expected "
                f"one of {list(TRIAL_BATCHING_MODES)}"
            )
        num_cells = len(sweep.cells())
        if self.cell_budget is not None and num_cells > self.cell_budget:
            self.stats.budget_rejections += 1
            raise BudgetExceededError(
                f"the submission spans {num_cells} cells but the service "
                f"accepts at most {self.cell_budget} per request; split the "
                "grid or raise the budget"
            )
        self.stats.submissions += 1
        plan = build_sweep_plan(
            sweep,
            backend=get_backend(sweep.backend),
            record=record,
            trial_batching=trial_batching,
        )

        async def labelled(task: CellTask) -> "tuple[CellTask, List[RunResult]]":
            return task, await self._cached_task(task)

        pending = [asyncio.ensure_future(labelled(task)) for task in plan.tasks]
        try:
            for future in asyncio.as_completed(pending):
                task, results = await future
                yield self._records(task, results)
        finally:
            for future in pending:
                if not future.done():
                    future.cancel()

    async def run(
        self,
        sweep: Sweep,
        *,
        record: str = "summary",
        trial_batching: str = "auto",
    ) -> SweepResult:
        """Execute a submission to completion and return the ordered result.

        Functionally equivalent to ``run_sweep(sweep, cache=...)`` — the
        records are sorted back into deterministic (cell, trial) order —
        but with the service's deduplication, budget, and concurrency
        behaviours applied.
        """
        records: List[SweepRecord] = []
        async for batch in self.stream(
            sweep, record=record, trial_batching=trial_batching
        ):
            records.extend(batch)
        records.sort(key=lambda rec: (rec.cell, rec.trial))
        return SweepResult(
            records=records,
            parameter_names=tuple(sweep.parameters),
            trials=sweep.trials,
        )

    def submit(
        self,
        sweep: Sweep,
        *,
        record: str = "summary",
        trial_batching: str = "auto",
    ) -> SweepResult:
        """Synchronous convenience wrapper: :meth:`run` on a fresh loop."""
        return asyncio.run(
            self.run(sweep, record=record, trial_batching=trial_batching)
        )

    async def recommend(self, spec: "TuneSpec") -> "TuneReport":
        """Run the scheme auto-tuner through the service's cache.

        The two-stage :func:`repro.tuning.tune` pipeline executes on a
        worker thread (its confirmation stage is synchronous, CPU-bound
        simulation) with the service's :class:`ResultCache` attached, so
        repeat recommendations — and sweeps over cells a tune already
        confirmed — are cache hits. The service ``cell_budget`` caps the
        number of *simulated candidates* per recommendation the same way it
        caps cells per sweep submission: an uncapped tune spec inherits the
        budget, a spec asking for more than the budget is rejected before
        any candidate simulates.
        """
        from dataclasses import replace as _replace

        from repro.tuning import tune

        if self.cell_budget is not None:
            if spec.budget is None:
                spec = _replace(spec, budget=self.cell_budget)
            elif spec.budget > self.cell_budget:
                self.stats.budget_rejections += 1
                raise BudgetExceededError(
                    f"the tune request budgets {spec.budget} simulated "
                    f"candidates but the service accepts at most "
                    f"{self.cell_budget}; shrink the request budget"
                )
        self.stats.submissions += 1
        return await asyncio.to_thread(tune, spec, cache=self.cache)

    # ------------------------------------------------------------------ #
    async def _cached_task(self, task: CellTask) -> List[RunResult]:
        """One task through the cache, with in-flight deduplication."""
        key = self.cache.task_key(task)
        if key is None:
            self.stats.tasks_executed += 1
            return await self.executor.run_task(task)
        hit = self.cache.lookup(key)
        if hit is not None:
            return hit
        running = self._inflight.get(key)
        if running is not None:
            self.stats.tasks_deduplicated += 1
            return await asyncio.shield(running)
        running = asyncio.ensure_future(self._execute_and_store(task, key))
        self._inflight[key] = running
        # Clear the key when the *execution* finishes, not when this caller
        # stops awaiting it: the await below is shielded, so a cancelled
        # caller (stream teardown) leaves the task running — popping the key
        # here would let an identical submission start a duplicate execution
        # instead of deduplicating against the still-running one.
        running.add_done_callback(
            lambda done, key=key: self._inflight.pop(key, None)
        )
        return await asyncio.shield(running)

    async def _execute_and_store(self, task: CellTask, key: str) -> List[RunResult]:
        results = await self.executor.run_task(task)
        self.stats.tasks_executed += 1
        self.cache.store(key, results)
        return results

    @staticmethod
    def _records(task: CellTask, results: List[RunResult]) -> List[SweepRecord]:
        """Pair one task's results with its (cell, params, trial) layout."""
        return [
            SweepRecord(cell=cell, params=params, trial=trial, result=result)
            for (cell, params, trial), result in zip(task.entries, results)
        ]
