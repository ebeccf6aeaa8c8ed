"""Executors: the *how* of sweep execution, one protocol, four strategies.

Every executor consumes the same :class:`~repro.scheduling.core.SweepPlan`
and dispatches each task through the one
:func:`~repro.scheduling.core.execute_task` runner, so the strategies can
only differ in wall-clock, never in results (the executor-equivalence suite
pins serial == thread == process == async bit-identity).

* :class:`SerialExecutor` — in-order, in-thread; the reference.
* :class:`PoolExecutor` — a ``concurrent.futures`` thread or process pool.
  Process pools require picklable tasks; see :doc:`the performance guide
  </performance>` for the constraints.
* :class:`AsyncExecutor` — tasks as awaitables on an asyncio loop (each
  task still runs in a worker thread: the simulators are synchronous,
  CPU-bound code). This is the substrate :class:`repro.service.SweepService`
  schedules on, and it doubles as a plain executor via :meth:`execute`.
* :class:`~repro.scheduling.distributed.DistributedExecutor` — tasks
  sharded across N ``repro serve`` nodes over TCP with pull-based work
  stealing and retry-with-reassignment; resolved by name
  (``"distributed"``) from the ``REPRO_NODES`` environment variable.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Protocol, Sequence, Union, runtime_checkable

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


class PoolExecutor:
    """A ``concurrent.futures`` pool: ``kind="thread"`` or ``"process"``.

    The simulation backends are CPU-bound Python/NumPy that hold the GIL,
    so real speed-up on a multi-core machine needs ``"process"`` — which
    requires the spec and backend to be picklable (named backends and
    config-mapping schemes are; custom runner closures usually are not).
    Threads still help when the backend itself waits on other processes or
    IO (e.g. :class:`~repro.api.backends.MultiprocessBackend`).

    The underlying pool is created lazily on the first :meth:`execute` and
    **reused across calls** — repeated ``run_sweep`` invocations and
    :class:`repro.service.SweepService` traffic pay worker startup (process
    forking, thread creation) once, not per sweep. Call :meth:`close` (or
    use the executor as a context manager) to release the workers; a closed
    executor transparently builds a fresh pool if executed again.
    """

    def __init__(self, kind: str = "thread", max_workers: Optional[int] = None) -> None:
        if kind not in ("thread", "process"):
            raise ConfigurationError(
                f"pool kind must be 'thread' or 'process', got {kind!r}"
            )
        self.kind = kind
        self.max_workers = max_workers
        self._pool: Optional[Union[ThreadPoolExecutor, ProcessPoolExecutor]] = None
        self._pool_lock = threading.Lock()

    @property
    def name(self) -> str:
        """The pool flavour, usable as a ``run_sweep(executor=...)`` value."""
        return self.kind

    @property
    def pickle_safe(self) -> bool:
        """Process pools pickle every task across the boundary."""
        return self.kind == "process"

    def _ensure_pool(self) -> Union[ThreadPoolExecutor, ProcessPoolExecutor]:
        """The live pool, building one under the lock on first use."""
        with self._pool_lock:
            if self._pool is None:
                pool_cls = (
                    ThreadPoolExecutor if self.kind == "thread" else ProcessPoolExecutor
                )
                self._pool = pool_cls(max_workers=self.max_workers)
            return self._pool

    def execute(self, tasks: Sequence[CellTask]) -> List[List[RunResult]]:
        """Fan the tasks out over the (persistent) pool; results stay in task order."""
        return list(self._ensure_pool().map(execute_task, tasks))

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
    """Task execution as awaitables on an asyncio event loop.

    Each task runs in a worker thread (the simulators are synchronous,
    CPU-bound code), bounded by ``max_workers`` concurrent slots; the event
    loop stays free to accept submissions, stream completions, and
    deduplicate work — which is exactly what
    :class:`repro.service.SweepService` does with it. :meth:`execute` is
    the synchronous wrapper for executor-protocol use.
    """

    name = "async"
    pickle_safe = False

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._semaphore_loop: Optional[asyncio.AbstractEventLoop] = None

    def _limit(self) -> Optional[asyncio.Semaphore]:
        """The concurrency semaphore for the *running* loop, or ``None``.

        A semaphore is bound to the event loop it is first awaited on, and
        every :meth:`execute` call runs on a fresh ``asyncio.run`` loop —
        so a cached semaphore must be replaced whenever the executor is
        reused on a new loop, or the second use raises ``RuntimeError``.
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

    async def execute_async(self, tasks: Sequence[CellTask]) -> List[List[RunResult]]:
        """Await every task concurrently; results stay in task order."""
        return list(await asyncio.gather(*(self.run_task(task) for task in tasks)))

    def execute(self, tasks: Sequence[CellTask]) -> List[List[RunResult]]:
        """Synchronous entry: drive :meth:`execute_async` on a fresh loop."""
        return asyncio.run(self.execute_async(tasks))


def _distributed_from_env(max_workers: Optional[int]) -> object:
    """Build the ``executor="distributed"`` instance from ``REPRO_NODES``.

    The node list cannot be a hard-coded default, so the *name* form reads
    it from the environment: a comma-separated ``HOST:PORT,...`` list of
    running ``repro serve`` nodes. Pass a configured
    :class:`~repro.scheduling.distributed.DistributedExecutor` instance
    instead for lease-size/retry/join control. ``max_workers`` is ignored:
    concurrency is the nodes' affair.
    """
    import os

    from repro.scheduling.distributed import DistributedExecutor

    nodes = os.environ.get("REPRO_NODES", "").strip()
    if not nodes:
        raise ConfigurationError(
            "executor='distributed' reads its node list from the "
            "REPRO_NODES environment variable (comma-separated HOST:PORT "
            "entries of running 'repro serve' nodes); set it, or pass a "
            "DistributedExecutor instance"
        )
    return DistributedExecutor(nodes)


#: ``run_sweep(executor=...)`` string values and their executor factories.
_EXECUTOR_FACTORIES: dict[str, Callable[[Optional[int]], object]] = {
    "serial": lambda max_workers: SerialExecutor(),
    "thread": lambda max_workers: PoolExecutor("thread", max_workers),
    "process": lambda max_workers: PoolExecutor("process", max_workers),
    "async": lambda max_workers: AsyncExecutor(max_workers),
    "distributed": _distributed_from_env,
}


def resolve_executor(
    executor: Union[str, Executor], max_workers: Optional[int] = None
) -> Executor:
    """Resolve an executor name (or pass an instance through) to an Executor.

    Recognised names: ``"serial"``, ``"thread"``, ``"process"``,
    ``"async"``, and ``"distributed"`` (node list from the ``REPRO_NODES``
    environment variable). Instances satisfying the :class:`Executor`
    protocol pass through unchanged (``max_workers`` is ignored for them —
    it is baked into the instance).
    """
    if isinstance(executor, str):
        try:
            factory = _EXECUTOR_FACTORIES[executor]
        except KeyError:
            raise ConfigurationError(
                f"executor must be one of {sorted(_EXECUTOR_FACTORIES)} or an "
                f"Executor instance, got {executor!r}"
            ) from None
        return factory(max_workers)  # type: ignore[return-value]
    if isinstance(executor, Executor):
        return executor
    raise ConfigurationError(
        f"cannot use {executor!r} as an executor; expected a name "
        f"({sorted(_EXECUTOR_FACTORIES)}) or an Executor instance"
    )
