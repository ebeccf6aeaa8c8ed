"""Executors: the *how* of sweep execution, one protocol, two strategies.

Every executor consumes the same :class:`~repro.scheduling.core.SweepPlan`
and dispatches each task through the one
:func:`~repro.scheduling.core.execute_task` runner, so the strategies can
only differ in wall-clock, never in results (the executor-equivalence suite
pins serial == process bit-identity).

* :class:`SerialExecutor` — in-order, in-thread; the reference.
* :class:`PoolExecutor` — a ``concurrent.futures`` process pool. Tasks
  must pickle; see :doc:`the performance guide </performance>` for the
  constraints.

Any object with ``name``, ``pickle_safe`` and ``execute`` is an executor
too: ``run_sweep`` uses such an instance as given. :class:`AsyncExecutor`
is not an executor in that sense; it is the bounded, awaitable task runner
:class:`repro.service.SweepService` schedules on.
"""

from __future__ import annotations

import asyncio
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Protocol, Sequence, Union, runtime_checkable

from repro.api.result import RunResult
from repro.exceptions import ConfigurationError
from repro.scheduling.core import CellTask, execute_task

__all__ = [
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "AsyncExecutor",
    "resolve_executor",
]


@runtime_checkable
class Executor(Protocol):
    """Anything that can execute a sequence of cell tasks, in order.

    ``execute`` returns one result list per task, positionally aligned with
    the input. ``pickle_safe`` declares whether tasks cross a pickle
    boundary on the way to execution (process pools) — the plan builder
    then keeps specs pickle-clean by skipping plan hoisting.
    """

    name: str
    pickle_safe: bool

    def execute(self, tasks: Sequence[CellTask]) -> List[List[RunResult]]:
        """Run every task and return their result lists, in task order."""
        ...


class SerialExecutor:
    """In-order execution in the calling thread — the reference strategy."""

    name = "serial"
    pickle_safe = False

    def execute(self, tasks: Sequence[CellTask]) -> List[List[RunResult]]:
        """Run the tasks one after another, in order."""
        return [execute_task(task) for task in tasks]


def _pickle_task(task: CellTask) -> bytes:
    """One task's bytes for a pool worker, or a typed error if it cannot pickle."""
    try:
        return pickle.dumps(task)
    except (pickle.PicklingError, AttributeError, TypeError) as error:
        raise ConfigurationError(
            f"a sweep task cannot cross the process boundary ({error}); "
            "run the sweep serially (max_workers=None) or pass an Executor "
            "instance that runs tasks in this process"
        ) from error


def _run_pickled(blob: bytes) -> List[RunResult]:
    """Pool-worker side of :meth:`PoolExecutor.execute`: unpickle, then run."""
    return execute_task(pickle.loads(blob))


class PoolExecutor:
    """A ``concurrent.futures`` process pool.

    The simulation backends are CPU-bound Python/NumPy that hold the GIL,
    so a process pool is what gives a sweep multi-core speed-up. Its tasks
    must pickle: named backends and config-mapping schemes do, custom
    runner closures usually do not. :meth:`execute` pickles every task in
    the calling process first, so a task that cannot cross the boundary
    raises :class:`~repro.exceptions.ConfigurationError` before any worker
    runs; an exception raised *inside* a task reaches the caller unchanged.

    The underlying pool is created lazily on the first :meth:`execute` and
    **reused across calls** — repeated ``run_sweep`` invocations pay worker
    startup once, not per sweep. Call :meth:`close` (or use the executor as
    a context manager) to release the workers; a closed executor
    transparently builds a fresh pool if executed again.
    """

    name = "process"
    pickle_safe = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The live pool, building one under the lock on first use."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return self._pool

    def execute(self, tasks: Sequence[CellTask]) -> List[List[RunResult]]:
        """Fan the tasks out over the (persistent) pool; results stay in task order."""
        blobs = [_pickle_task(task) for task in tasks]
        return list(self._ensure_pool().map(_run_pickled, blobs))

    def close(self) -> None:
        """Shut the pool down and release its workers; idempotent."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "PoolExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AsyncExecutor:
    """Bounded task execution as awaitables on an asyncio event loop.

    Each task runs in a worker thread (the simulators are synchronous,
    CPU-bound code), bounded by ``max_workers`` concurrent slots; the event
    loop stays free to accept submissions, stream completions, and
    deduplicate work — which is exactly what
    :class:`repro.service.SweepService` does with it.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._semaphore_loop: Optional[asyncio.AbstractEventLoop] = None

    def _limit(self) -> Optional[asyncio.Semaphore]:
        """The concurrency semaphore for the *running* loop, or ``None``.

        A semaphore is bound to the event loop it is first awaited on, and
        every :meth:`SweepService.submit
        <repro.service.service.SweepService.submit>` runs on a fresh
        ``asyncio.run`` loop — so a cached semaphore must be replaced
        whenever the executor is reused on a new loop, or the second use
        raises ``RuntimeError``.
        """
        if self.max_workers is None or self.max_workers <= 0:
            return None
        loop = asyncio.get_running_loop()
        if self._semaphore is None or self._semaphore_loop is not loop:
            self._semaphore = asyncio.Semaphore(self.max_workers)
            self._semaphore_loop = loop
        return self._semaphore

    async def run_task(self, task: CellTask) -> List[RunResult]:
        """Await one task's results, bounded by the concurrency limit."""
        limit = self._limit()
        if limit is not None:
            async with limit:
                return await asyncio.to_thread(execute_task, task)
        return await asyncio.to_thread(execute_task, task)


def resolve_executor(
    executor: Union[str, Executor], max_workers: Optional[int] = None
) -> Executor:
    """Resolve an executor name (or pass an instance through) to an Executor.

    ``"serial"`` and ``"process"`` (a :class:`PoolExecutor` of
    ``max_workers`` processes) are the names. Instances satisfying the
    :class:`Executor` protocol pass through unchanged (``max_workers`` is
    ignored for them — it is baked into the instance).
    """
    if executor == "serial":
        return SerialExecutor()
    if executor == "process":
        return PoolExecutor(max_workers)
    if isinstance(executor, Executor):
        return executor
    raise ConfigurationError(
        f"executor must be 'serial', 'process' or an Executor instance, "
        f"got {executor!r}"
    )
