"""Executor equivalence: every execution mode, bit-identical records.

The tentpole claim of the scheduling refactor is that serial, thread-pool,
process-pool, and async execution all dispatch the same
:class:`~repro.scheduling.core.SweepPlan` through the same task runner —
so the *only* thing an executor may change is wall-clock time. These tests
pin that: identical ``SweepResult`` records (dataclass equality, which
compares every per-iteration outcome) across all four modes, across
schemes, engines, record modes, and trial-batching settings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import JobSpec, Sweep, TimingSimBackend, run_sweep
from repro.cluster.spec import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.scheduling import (
    AsyncExecutor,
    PoolExecutor,
    SerialExecutor,
    build_sweep_plan,
    execute_task,
    resolve_executor,
)
from repro.stragglers.models import ShiftedExponentialDelay

EXECUTORS = ("serial", "thread", "process", "async")


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


class TestExecutorEquivalence:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_all_executors_match_serial(self, executor):
        sweep = make_sweep()
        reference = run_sweep(sweep)
        result = run_sweep(sweep, max_workers=4, executor=executor)
        assert records_of(result) == records_of(reference)

    @pytest.mark.parametrize("engine", ("loop", "vectorized"))
    @pytest.mark.parametrize("executor", ("thread", "async"))
    def test_equivalence_per_engine(self, engine, executor):
        sweep = make_sweep(engine=engine)
        reference = run_sweep(sweep)
        result = run_sweep(sweep, max_workers=3, executor=executor)
        assert records_of(result) == records_of(reference)

    @pytest.mark.parametrize("trial_batching", ("auto", "never"))
    def test_equivalence_across_trial_batching(self, trial_batching):
        sweep = make_sweep(engine="vectorized")
        reference = run_sweep(sweep, trial_batching=trial_batching)
        for executor in ("thread", "async"):
            result = run_sweep(
                sweep, max_workers=4, executor=executor,
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
        for instance in (SerialExecutor(), PoolExecutor("thread", 2), AsyncExecutor(2)):
            result = run_sweep(sweep, max_workers=2, executor=instance)
            assert records_of(result) == records_of(reference)

    def test_async_executor_instance_is_reusable(self):
        # Each run_sweep call drives execute() on a fresh asyncio.run loop;
        # a concurrency semaphore cached from the first loop must not leak
        # into the second (it would raise "bound to a different event loop").
        sweep = make_sweep()
        executor = AsyncExecutor(max_workers=2)
        first = run_sweep(sweep, executor=executor)
        second = run_sweep(sweep, executor=executor)
        assert records_of(second) == records_of(first)


#: Caller-owned base seeds other than an int; each factory call builds a
#: fresh seed in the same state, so two sweeps built from one kind match.
SEED_FACTORIES = {
    "seed-sequence": lambda: np.random.SeedSequence(5),
    "generator": lambda: np.random.default_rng(5),
}

#: Concurrent executor instances (the path that bypasses ``max_workers``).
CONCURRENT_INSTANCES = {
    "thread": lambda: PoolExecutor("thread", 4),
    "process": lambda: PoolExecutor("process", 2),
    "async": lambda: AsyncExecutor(4),
}


class TestCallerSeeds:
    """The plan, and every seed in it, is derived in the caller — so any
    executor reproduces the serial records whatever kind of base seed the
    caller passes."""

    @pytest.mark.parametrize("seed_kind", sorted(SEED_FACTORIES))
    @pytest.mark.parametrize("instance_kind", sorted(CONCURRENT_INSTANCES))
    def test_concurrent_instance_matches_serial(self, instance_kind, seed_kind):
        make_seed = SEED_FACTORIES[seed_kind]
        reference = run_sweep(make_sweep(seed=make_seed()))
        seed = make_seed()
        instance = CONCURRENT_INSTANCES[instance_kind]()
        try:
            result = run_sweep(make_sweep(seed=seed), executor=instance)
        finally:
            getattr(instance, "close", lambda: None)()
        assert records_of(result) == records_of(reference)
        if isinstance(seed, np.random.SeedSequence):
            assert seed.n_children_spawned == 0  # the caller's seed is untouched

    def test_concurrent_instance_without_max_workers_matches_serial(self):
        # An instance is used as given: max_workers=None does not fall back
        # to serial execution, and the records still match the serial run.
        sweep = make_sweep()
        with PoolExecutor("thread", 8) as instance:
            result = run_sweep(sweep, executor=instance, max_workers=None)
            assert instance._pool is not None
        assert records_of(result) == records_of(run_sweep(sweep))


class TestResolveExecutor:
    def test_names_resolve(self):
        assert resolve_executor("serial").name == "serial"
        assert resolve_executor("thread", 2).name == "thread"
        assert resolve_executor("process", 2).name == "process"
        assert resolve_executor("async", 2).name == "async"

    def test_only_process_is_pickle_safe(self):
        assert resolve_executor("process", 2).pickle_safe
        for name in ("serial", "thread", "async"):
            assert not resolve_executor(name, 2).pickle_safe

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            resolve_executor("gpu", 2)

    def test_non_executor_instance_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            resolve_executor(object())

    def test_instances_pass_through(self):
        instance = PoolExecutor("thread", 3)
        assert resolve_executor(instance) is instance

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
        plan = build_sweep_plan(sweep, backend=TimingSimBackend(engine="vectorized"))
        assert {task.kind for task in plan.tasks} == {"trial", "cell"}
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
        with PoolExecutor("thread", 2) as executor:
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
        executor = PoolExecutor("thread", 2)
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
        executor = PoolExecutor("thread", 2)
        try:
            first = executor.execute(tasks)
            executor.close()
            second = executor.execute(tasks)  # transparently rebuilds
            assert second == first
        finally:
            executor.close()

    def test_close_is_idempotent(self):
        executor = PoolExecutor("thread", 2)
        executor.execute(self.plan_tasks())
        executor.close()
        executor.close()
        assert executor._pool is None
