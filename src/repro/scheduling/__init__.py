"""The one cell-scheduling core behind every sweep execution mode.

Historically :func:`repro.api.sweep.run_sweep` carried the whole scheduling
story inline — task shaping, trial batching, plan hoisting, record
compaction, error wrapping — which made every new execution mode a
copy-paste hazard. This package extracts that story into two orthogonal
halves:

* :mod:`repro.scheduling.core` — *what* to run: :func:`build_sweep_plan`
  turns a :class:`~repro.api.sweep.Sweep` into an ordered list of
  :class:`CellTask` work items, applying the per-cell decisions (one
  spawned seed per ``(cell, trial)``, plan hoisting, trial batching,
  record mode) exactly once, independent of how the tasks will execute.
  :func:`execute_task` is the single task runner every executor
  dispatches.
* :mod:`repro.scheduling.executors` — *how* to run it: the
  :class:`Executor` protocol with :class:`SerialExecutor` and
  :class:`PoolExecutor` (a ``concurrent.futures`` process pool), plus
  :class:`AsyncExecutor`, the bounded awaitable task runner the sweep
  service builds on. Every executor consumes the same plan and produces
  bit-identical results.

:func:`repro.api.sweep.run_sweep` is now a thin façade over
build-plan → execute → collect; :mod:`repro.service` mounts the same core
behind a content-addressed result cache.
"""

from repro.scheduling.core import (
    CellTask,
    SweepPlan,
    build_sweep_plan,
    describe_task,
    execute_task,
    hoist_cell_plan,
    probe_rng_free_plan,
    should_batch_cell,
)
from repro.scheduling.executors import (
    AsyncExecutor,
    Executor,
    PoolExecutor,
    SerialExecutor,
    resolve_executor,
)

__all__ = [
    "CellTask",
    "SweepPlan",
    "build_sweep_plan",
    "describe_task",
    "execute_task",
    "hoist_cell_plan",
    "probe_rng_free_plan",
    "should_batch_cell",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "AsyncExecutor",
    "resolve_executor",
]
