"""Executor equivalence: both execution modes, bit-identical records.

Serial and process-pool execution dispatch the same
:class:`~repro.scheduling.core.SweepPlan` through the same task runner —
so the *only* thing an executor may change is wall-clock time. These tests
pin that: identical ``SweepResult`` records (dataclass equality, which
compares every per-iteration outcome) in both modes, across schemes,
engines, record modes, and trial-batching settings.
"""

from __future__ import annotations

import asyncio
import pickle
import threading
import time

import numpy as np
import pytest

import repro.scheduling.executors as executors_module
from repro.api import JobSpec, Sweep, TimingSimBackend, run, run_sweep
from repro.cluster.spec import ClusterSpec
from repro.exceptions import ConfigurationError, SimulationError
from repro.scheduling import (
    AsyncExecutor,
    Executor,
    PoolExecutor,
    SerialExecutor,
    build_sweep_plan,
    execute_task,
    resolve_executor,
)
from repro.schemes.base import ExecutionPlan
from repro.stragglers.models import ShiftedExponentialDelay

EXECUTORS = ("serial", "process")


def make_sweep(engine="auto", schemes=("bcc", "uncoded"), trials=3, seed=0):
    cluster = ClusterSpec.homogeneous(10, ShiftedExponentialDelay(1.0, 0.5))
    base = JobSpec(
        scheme={"name": schemes[0], "load": 5},
        cluster=cluster,
        num_units=20,
        num_iterations=3,
        seed=seed,
    )
    configs = []
    for name in schemes:
        if name == "uncoded":
            configs.append({"name": name})
        else:
            configs.extend({"name": name, "load": load} for load in (5, 10))
    return Sweep(
        base,
        parameters={"scheme": configs},
        trials=trials,
        backend=TimingSimBackend(engine=engine),
    )


def records_of(result):
    return [(r.cell, r.trial, r.result) for r in result]


def spy_on_resolution(monkeypatch):
    """Record every executor ``run_sweep`` resolves; returns the list."""
    import repro.api.sweep as sweep_module

    resolved = []

    def spy(executor, max_workers=None):
        runner = resolve_executor(executor, max_workers)
        resolved.append(runner)
        return runner

    monkeypatch.setattr(sweep_module, "resolve_executor", spy)
    return resolved


class TestExecutorEquivalence:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_all_executors_match_serial(self, executor):
        sweep = make_sweep()
        reference = run_sweep(sweep)
        result = run_sweep(sweep, max_workers=4, executor=executor)
        assert records_of(result) == records_of(reference)

    @pytest.mark.parametrize("engine", ("loop", "vectorized"))
    def test_equivalence_per_engine(self, engine):
        sweep = make_sweep(engine=engine)
        reference = run_sweep(sweep)
        result = run_sweep(sweep, max_workers=2, executor="process")
        assert records_of(result) == records_of(reference)

    @pytest.mark.parametrize("trial_batching", ("auto", "never"))
    def test_equivalence_across_trial_batching(self, trial_batching):
        sweep = make_sweep(engine="vectorized")
        reference = run_sweep(sweep, trial_batching=trial_batching)
        result = run_sweep(
            sweep, max_workers=2, executor="process",
            trial_batching=trial_batching,
        )
        assert records_of(result) == records_of(reference)

    def test_summary_record_equivalence(self):
        sweep = make_sweep()
        reference = run_sweep(sweep, record="summary")
        for executor in EXECUTORS:
            result = run_sweep(sweep, max_workers=2, executor=executor, record="summary")
            assert records_of(result) == records_of(reference)

    def test_analytic_backend_equivalence(self):
        cluster = ClusterSpec.homogeneous(10, ShiftedExponentialDelay(1.0, 0.0))
        base = JobSpec(
            scheme={"name": "bcc", "load": 5}, cluster=cluster, num_units=20, seed=0
        )
        sweep = Sweep(base, parameters={"scheme.load": [5, 10]}, backend="analytic")
        reference = run_sweep(sweep)
        for executor in EXECUTORS:
            assert records_of(
                run_sweep(sweep, max_workers=2, executor=executor)
            ) == records_of(reference)

    def test_executor_instance_accepted(self):
        sweep = make_sweep()
        reference = run_sweep(sweep)
        with PoolExecutor(2) as pool:
            for instance in (SerialExecutor(), pool):
                result = run_sweep(sweep, max_workers=2, executor=instance)
                assert records_of(result) == records_of(reference)

    def test_parallel_sweep_defaults_to_a_process_pool(self, monkeypatch):
        resolved = spy_on_resolution(monkeypatch)
        sweep = make_sweep()
        result = run_sweep(sweep, max_workers=2)
        assert [(type(runner), runner.name) for runner in resolved] == [
            (PoolExecutor, "process")
        ]
        assert records_of(result) == records_of(run_sweep(sweep))

    @pytest.mark.parametrize("max_workers", (None, 0, 1))
    def test_small_max_workers_runs_serially(self, monkeypatch, max_workers):
        # The default executor is a process pool, but it only takes over
        # above one worker: None/0/1 stay on the in-thread serial path.
        resolved = spy_on_resolution(monkeypatch)
        run_sweep(make_sweep(trials=1), max_workers=max_workers)
        assert [type(runner) for runner in resolved] == [SerialExecutor]

    def test_named_process_pool_is_closed_after_the_sweep(self, monkeypatch):
        resolved = spy_on_resolution(monkeypatch)
        closed_live = []
        close = PoolExecutor.close

        def recording_close(self):
            closed_live.append(self._pool is not None)
            close(self)

        monkeypatch.setattr(PoolExecutor, "close", recording_close)
        run_sweep(make_sweep(), max_workers=2)
        (runner,) = resolved
        assert closed_live == [True]  # closed once, with its workers up
        assert runner._pool is None


def _failing_runner(spec):
    """A module-level (picklable) runner that fails inside the task."""
    raise SimulationError("the worker-side run failed")


def _foreign_failing_runner(spec):
    """A module-level runner failing with an error outside the library's."""
    raise ValueError("a plain ValueError from the worker")


def _local_function():
    return lambda spec: run(spec)


#: A module-level lambda pickles by name, and its name does not resolve.
_module_lambda = lambda spec: run(spec)  # noqa: E731


class _LockedRunner:
    """A runner holding a lock, which no pickle protocol can serialise."""

    def __init__(self):
        self._lock = threading.Lock()

    def __call__(self, spec):
        with self._lock:
            return run(spec)


#: One unpicklable runner per error ``pickle.dumps`` raises for it.
UNPICKLABLE_RUNNERS = {
    "local-function": (_local_function, AttributeError),
    "module-lambda": (lambda: _module_lambda, pickle.PicklingError),
    "lock": (_LockedRunner, TypeError),
}

#: Parent-side ``__getstate__`` calls of :class:`_CountingRunner`.
PICKLED = []


class _CountingRunner:
    """A picklable runner that records each time it is pickled."""

    def __getstate__(self):
        PICKLED.append(1)
        return self.__dict__

    def __call__(self, spec):
        return run(spec)


class TestPickleBoundary:
    """What cannot cross the process boundary fails typed, in the caller."""

    def test_closure_backend_raises_configuration_error(self):
        sweep = Sweep(make_sweep().base, trials=2, backend=lambda spec: run(spec))
        with pytest.raises(ConfigurationError, match="max_workers=None"):
            run_sweep(sweep, max_workers=2, executor="process")
        # The same sweep runs serially.
        assert len(run_sweep(sweep)) == 2

    @pytest.mark.parametrize("kind", sorted(UNPICKLABLE_RUNNERS))
    def test_every_pickling_failure_is_a_configuration_error(self, kind):
        make_runner, cause = UNPICKLABLE_RUNNERS[kind]
        sweep = Sweep(make_sweep().base, trials=2, backend=make_runner())
        with PoolExecutor(2) as pool:
            with pytest.raises(ConfigurationError, match="process boundary") as info:
                run_sweep(sweep, executor=pool)
            assert pool._pool is None  # it failed before any worker started
        assert isinstance(info.value.__cause__, cause)

    def test_each_task_is_pickled_once(self):
        sweep = Sweep(make_sweep().base, trials=3, backend=_CountingRunner())
        PICKLED.clear()
        with PoolExecutor(2) as pool:
            result = run_sweep(sweep, executor=pool)
        assert len(result) == 3
        assert len(PICKLED) == 3  # one per-trial task, one pickle each

    def test_task_errors_in_the_worker_reach_the_caller_unchanged(self):
        sweep = Sweep(make_sweep().base, trials=2, backend=_failing_runner)
        with pytest.raises(SimulationError, match="worker-side run failed"):
            run_sweep(sweep, max_workers=2, executor="process")

    def test_foreign_worker_errors_are_not_rewrapped(self):
        sweep = Sweep(make_sweep().base, trials=2, backend=_foreign_failing_runner)
        with pytest.raises(ValueError, match="plain ValueError from the worker"):
            run_sweep(sweep, max_workers=2, executor="process")


#: Caller-owned base seeds other than an int; each factory call builds a
#: fresh seed in the same state, so two sweeps built from one kind match.
SEED_FACTORIES = {
    "seed-sequence": lambda: np.random.SeedSequence(5),
    "generator": lambda: np.random.default_rng(5),
}

class TestCallerSeeds:
    """The plan, and every seed in it, is derived in the caller — so a
    process pool reproduces the serial records whatever kind of base seed
    the caller passes."""

    @pytest.mark.parametrize("seed_kind", sorted(SEED_FACTORIES))
    def test_concurrent_instance_matches_serial(self, seed_kind):
        make_seed = SEED_FACTORIES[seed_kind]
        reference = run_sweep(make_sweep(seed=make_seed()))
        seed = make_seed()
        with PoolExecutor(2) as instance:
            result = run_sweep(make_sweep(seed=seed), executor=instance)
        assert records_of(result) == records_of(reference)
        if isinstance(seed, np.random.SeedSequence):
            assert seed.n_children_spawned == 0  # the caller's seed is untouched

    def test_concurrent_instance_without_max_workers_matches_serial(self):
        # An instance is used as given: max_workers=None does not fall back
        # to serial execution, and the records still match the serial run.
        sweep = make_sweep()
        with PoolExecutor(2) as instance:
            result = run_sweep(sweep, executor=instance, max_workers=None)
            assert instance._pool is not None
        assert records_of(result) == records_of(run_sweep(sweep))


class TestResolveExecutor:
    def test_names_resolve(self):
        assert resolve_executor("serial").name == "serial"
        assert resolve_executor("process", 2).name == "process"

    def test_only_process_is_pickle_safe(self):
        assert resolve_executor("process", 2).pickle_safe
        assert not resolve_executor("serial", 2).pickle_safe

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            resolve_executor("gpu", 2)

    @pytest.mark.parametrize("name", ("thread", "async", "distributed"))
    def test_removed_names_rejected(self, name):
        with pytest.raises(ConfigurationError, match="executor"):
            resolve_executor(name, 2)

    def test_non_executor_instance_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            resolve_executor(object())

    def test_instances_pass_through(self):
        instance = PoolExecutor(3)
        assert resolve_executor(instance) is instance

    def test_process_pool_is_sized_and_lazy(self):
        pool = resolve_executor("process", 3)
        assert pool.max_workers == 3
        assert pool._pool is None  # no worker starts before the first execute

    def test_minimal_third_party_executor_runs_any_sweep(self):
        # The protocol is name + pickle_safe + execute; with every task at
        # its own spawned seed, even reversed execution order is harmless.
        class ReversedExecutor:
            name = "reversed"
            pickle_safe = False

            def execute(self, tasks):
                return [execute_task(task) for task in reversed(tasks)][::-1]

        sweep = make_sweep()
        result = run_sweep(sweep, executor=ReversedExecutor())
        assert records_of(result) == records_of(run_sweep(sweep))


class TestPlanShape:
    def test_plan_is_execution_independent(self):
        sweep = make_sweep()
        backend = TimingSimBackend(engine="auto")
        plan_a = build_sweep_plan(sweep, backend=backend)
        plan_b = build_sweep_plan(sweep, backend=backend)
        assert len(plan_a.tasks) == len(plan_b.tasks)
        assert plan_a.parameter_names == ("scheme",)
        assert [t.entries for t in plan_a.tasks] == [t.entries for t in plan_b.tasks]

    def test_every_run_gets_its_own_spawned_seed(self):
        # One SeedSequence child per (cell, trial), in cell-major order:
        # trial tasks carry theirs on the spec, cell tasks in ``seeds``
        # with a seedless spec.
        sweep = make_sweep(trials=4, seed=np.random.SeedSequence(9))
        for trial_batching in ("auto", "never"):
            plan = build_sweep_plan(
                sweep,
                backend=TimingSimBackend(engine="vectorized"),
                trial_batching=trial_batching,
            )
            seeds = {}
            for task in plan.tasks:
                if task.kind == "cell":
                    assert task.spec.seed is None
                    task_seeds = task.seeds
                else:
                    task_seeds = (task.spec.seed,)
                for (cell, _, trial), seed in zip(task.entries, task_seeds):
                    seeds[cell, trial] = seed
            children = np.random.SeedSequence(9).spawn(len(seeds))
            assert [seeds[key].spawn_key for key in sorted(seeds)] == [
                child.spawn_key for child in children
            ]

    def test_pickle_safe_plans_skip_hoisting(self):
        # Uncoded planning draws nothing, so a serial plan hoists it; a plan
        # bound for a process pool keeps the scheme config, and both plans
        # produce the same results.
        sweep = make_sweep(schemes=("uncoded",), trials=3)
        backend = TimingSimBackend(engine="loop")
        hoisted = build_sweep_plan(sweep, backend=backend, trial_batching="never")
        clean = build_sweep_plan(
            sweep, backend=backend, trial_batching="never", pickle_safe=True
        )
        assert all(isinstance(t.spec.scheme, ExecutionPlan) for t in hoisted.tasks)
        assert not any(isinstance(t.spec.scheme, ExecutionPlan) for t in clean.tasks)
        assert [execute_task(pickle.loads(pickle.dumps(t))) for t in clean.tasks] == [
            execute_task(t) for t in hoisted.tasks
        ]

    def test_entries_cover_every_cell_and_trial(self):
        sweep = make_sweep(trials=4)
        plan = build_sweep_plan(sweep, backend=TimingSimBackend(engine="vectorized"))
        entries = [entry for task in plan.tasks for entry in task.entries]
        cells = len(sweep.cells())
        assert len(entries) == cells * sweep.trials
        assert {(cell, trial) for cell, _, trial in entries} == {
            (cell, trial) for cell in range(cells) for trial in range(4)
        }


class TestPoolReuse:
    """The persistent-pool contract: workers outlive individual sweeps."""

    def plan_tasks(self):
        return build_sweep_plan(
            make_sweep(), backend=TimingSimBackend(engine="auto")
        ).tasks

    def test_pool_persists_across_executions(self):
        tasks = self.plan_tasks()
        with PoolExecutor(2) as executor:
            first = executor.execute(tasks)
            pool = executor._pool
            assert pool is not None
            second = executor.execute(tasks)
            assert executor._pool is pool  # same workers, no rebuild
        assert executor._pool is None  # context exit released them
        assert second == first

    def test_run_sweep_reuses_an_instance_pool(self):
        # run_sweep closes only executors it resolved from a name; a caller
        # instance keeps its warm pool across sweeps.
        sweep = make_sweep()
        executor = PoolExecutor(2)
        try:
            first = run_sweep(sweep, executor=executor)
            pool = executor._pool
            assert pool is not None
            second = run_sweep(sweep, executor=executor)
            assert executor._pool is pool
        finally:
            executor.close()
        assert records_of(second) == records_of(first)

    def test_closed_pool_rebuilds_transparently(self):
        tasks = self.plan_tasks()
        executor = PoolExecutor(2)
        try:
            first = executor.execute(tasks)
            executor.close()
            second = executor.execute(tasks)  # transparently rebuilds
            assert second == first
        finally:
            executor.close()

    def test_close_is_idempotent(self):
        executor = PoolExecutor(2)
        executor.execute(self.plan_tasks())
        executor.close()
        executor.close()
        assert executor._pool is None


def gather_runs(executor, tasks):
    """Await ``executor.run_task`` over every task on a fresh event loop."""

    async def scenario():
        return await asyncio.gather(*(executor.run_task(task) for task in tasks))

    return asyncio.run(scenario())


class TestAsyncRunTask:
    """AsyncExecutor's one job: bounded, awaitable runs of single tasks."""

    def test_run_task_matches_execute_task(self):
        tasks = build_sweep_plan(
            make_sweep(), backend=TimingSimBackend(engine="auto")
        ).tasks
        assert gather_runs(AsyncExecutor(2), tasks) == [
            execute_task(task) for task in tasks
        ]

    def track_concurrency(self, monkeypatch, meet):
        """Replace the task runner with one that records peak concurrency.

        Every call waits at a barrier of ``meet`` parties, so the runs only
        finish if ``meet`` of them are in flight together, then stays in
        flight a little longer, so that any run past the limit would
        overlap it.
        """
        lock = threading.Lock()
        barrier = threading.Barrier(meet, timeout=10)
        state = {"running": 0, "peak": 0}

        def tracked(task):
            with lock:
                state["running"] += 1
                state["peak"] = max(state["peak"], state["running"])
            barrier.wait()
            time.sleep(0.05)
            with lock:
                state["running"] -= 1
            return [task]

        monkeypatch.setattr(executors_module, "execute_task", tracked)
        return state

    @pytest.mark.parametrize("max_workers", (1, 2))
    def test_concurrency_is_bounded_by_max_workers(self, monkeypatch, max_workers):
        state = self.track_concurrency(monkeypatch, meet=max_workers)
        tasks = list(range(4))
        assert gather_runs(AsyncExecutor(max_workers), tasks) == [[t] for t in tasks]
        assert state["peak"] == max_workers

    @pytest.mark.parametrize("max_workers", (None, 0))
    def test_no_limit_runs_every_task_at_once(self, monkeypatch, max_workers):
        state = self.track_concurrency(monkeypatch, meet=4)
        tasks = list(range(4))
        assert gather_runs(AsyncExecutor(max_workers), tasks) == [[t] for t in tasks]
        assert state["peak"] == 4

    def test_async_executor_is_not_a_sweep_executor(self):
        runner = AsyncExecutor(2)
        assert not isinstance(runner, Executor)
        with pytest.raises(ConfigurationError, match="executor"):
            resolve_executor(runner)
