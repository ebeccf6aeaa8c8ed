"""Tests for the Sweep/run_sweep engine: cells, seeding, parallelism, tables."""

from dataclasses import FrozenInstanceError

import pytest

from repro.api import JobSpec, RunResult, Sweep, run_sweep
from repro.cluster.spec import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.stragglers.models import ExponentialDelay


@pytest.fixture
def base(exponential_cluster) -> JobSpec:
    return JobSpec(
        scheme={"name": "bcc", "load": 4},
        cluster=exponential_cluster,
        num_units=20,
        num_iterations=3,
        serialize_master_link=False,
        seed=0,
    )


class TestCells:
    def test_grid_is_cartesian_product_first_axis_outermost(self, base):
        sweep = Sweep(
            base,
            parameters={"scheme.load": [2, 4], "num_iterations": [1, 2, 3]},
        )
        cells = sweep.cells()
        assert len(cells) == 6
        assert cells[0] == {"scheme.load": 2, "num_iterations": 1}
        assert cells[2] == {"scheme.load": 2, "num_iterations": 3}
        assert cells[3] == {"scheme.load": 4, "num_iterations": 1}

    def test_zip_pairs_positionally(self, base):
        sweep = Sweep(
            base,
            parameters={"scheme.load": [2, 4], "num_iterations": [5, 6]},
            mode="zip",
        )
        assert sweep.cells() == [
            {"scheme.load": 2, "num_iterations": 5},
            {"scheme.load": 4, "num_iterations": 6},
        ]

    def test_zip_rejects_unequal_lengths(self, base):
        with pytest.raises(ConfigurationError, match="equal lengths"):
            Sweep(
                base,
                parameters={"scheme.load": [2, 4], "num_iterations": [5]},
                mode="zip",
            )

    def test_empty_parameters_yield_one_cell(self, base):
        assert Sweep(base).cells() == [{}]

    def test_empty_axis_rejected(self, base):
        with pytest.raises(ConfigurationError, match="no values"):
            Sweep(base, parameters={"scheme.load": []})

    def test_specs_apply_overrides(self, base):
        sweep = Sweep(base, parameters={"scheme.load": [2, 5]})
        loads = [spec.resolve_scheme().load for spec in sweep.specs()]
        assert loads == [2, 5]


class TestDeterminism:
    def test_serial_and_parallel_tables_are_identical(self, base):
        """Spawned per-task seeds make execution order irrelevant."""
        sweep = Sweep(
            base,
            parameters={
                "scheme": [
                    {"name": "bcc", "load": 4},
                    {"name": "uncoded"},
                    {"name": "randomized", "load": 4},
                ]
            },
            trials=3,
        )
        serial = run_sweep(sweep)
        pooled = run_sweep(sweep, max_workers=2)
        assert serial.to_table().render() == pooled.to_table().render()
        for a, b in zip(serial.records, pooled.records):
            assert a.result.summary() == b.result.summary()

    def test_process_executor_matches_serial(self, base):
        """Named backends and config schemes pickle into a process pool."""
        sweep = Sweep(base, parameters={"scheme.load": [2, 4]}, trials=2)
        serial = run_sweep(sweep)
        forked = run_sweep(sweep, max_workers=2, executor="process")
        assert serial.to_table().render() == forked.to_table().render()

    def test_rerun_is_deterministic(self, base):
        sweep = Sweep(base, parameters={"scheme.load": [2, 4]}, trials=2)
        assert (
            run_sweep(sweep).to_table().render()
            == run_sweep(sweep).to_table().render()
        )

    def test_trials_differ_within_a_cell(self, base):
        sweep = Sweep(base, trials=3)
        totals = {
            record.result.total_time for record in run_sweep(sweep).records
        }
        assert len(totals) == 3

    def test_seed_sequence_base_seed_repeats(self, base):
        """Regression: the plan spawned from the caller's SeedSequence and
        advanced its child counter, so a second run drew new seeds."""
        import numpy as np

        seed = np.random.SeedSequence(5)
        sweep = Sweep(base.replace(seed=seed), trials=2)
        first = run_sweep(sweep)
        assert run_sweep(sweep).records == first.records
        assert seed.n_children_spawned == 0
        # An unused SeedSequence seeds exactly like its int entropy.
        assert run_sweep(Sweep(base.replace(seed=5), trials=2)).records == first.records

    def test_live_generator_base_seed_is_consumed(self, base):
        import numpy as np

        sweep = Sweep(base.replace(seed=np.random.default_rng(5)), trials=2)
        assert run_sweep(sweep).records != run_sweep(sweep).records


class TestAggregation:
    def test_rows_and_aggregate(self, base):
        sweep = Sweep(base, parameters={"scheme.load": [2, 4]}, trials=2)
        result = run_sweep(sweep)
        assert len(result) == 4
        rows = result.rows()
        assert rows[0]["scheme.load"] == 2
        assert rows[0]["trial"] == 0
        aggregated = result.aggregate()
        assert len(aggregated) == 2
        assert aggregated[0]["trials"] == 2
        expected = (
            result.records[0].result.total_time + result.records[1].result.total_time
        ) / 2.0
        assert aggregated[0]["total_time"] == pytest.approx(expected)

    def test_fixed_placements_are_named_by_scheme_and_load(self, base):
        # Each cell's scheme is one fixed placement (an ExecutionPlan).
        from repro.schemes.bcc import BCCScheme
        from repro.schemes.uncoded import UncodedScheme

        plans = [
            BCCScheme(4).build_feasible_plan(20, base.cluster.num_workers, rng=1),
            UncodedScheme().build_plan(20, base.cluster.num_workers),
        ]
        sweep = Sweep(base, parameters={"scheme": plans})
        rows = run_sweep(sweep).aggregate()
        assert [row["scheme"] for row in rows] == ["bcc(load=4)", "uncoded(load=1)"]

    def test_fixed_placements_run_on_a_process_pool(self, base):
        # A plan's completion rule is plain data, so every registered
        # scheme's plan pickles into a pool worker.
        from repro.schemes.registry import available_schemes, scheme_from_config

        n = base.cluster.num_workers
        configs = {
            "bcc": {"load": 4},
            "randomized": {"load": 4},
            "cyclic-repetition": {"load": 3},
            "reed-solomon": {"load": 3},
            "fractional-repetition": {"load": 4},
            "generalized-bcc": {"loads": [4] * n},
            "load-balanced": {"loads": [1] * n},
        }
        plans = [
            scheme_from_config({"name": name, **configs.get(name, {})}).build_feasible_plan(
                20, n, rng=1
            )
            for name in available_schemes()
        ]
        sweep = Sweep(base, parameters={"scheme": plans}, trials=2)
        serial = run_sweep(sweep)
        pooled = run_sweep(sweep, max_workers=2, executor="process")
        assert serial.to_table().render() == pooled.to_table().render()
        for a, b in zip(serial.records, pooled.records):
            assert a.result.summary() == b.result.summary()

    def test_to_table_contains_params_and_metrics(self, base):
        sweep = Sweep(base, parameters={"scheme.load": [2, 4]})
        rendered = run_sweep(sweep).to_table(title="loads").render()
        assert "loads" in rendered
        assert "scheme.load" in rendered
        assert "total_time" in rendered

    def test_partial_metric_reports_its_trial_count(self):
        """Regression: a metric missing from some trial summaries was
        silently averaged over the subset while ``trials`` reported the full
        count — nothing in the row flagged the shrunken sample."""
        from repro.api.sweep import SweepRecord, SweepResult

        def record(trial, **summary):
            return SweepRecord(
                cell=0,
                params={"scheme.load": 2},
                trial=trial,
                result=RunResult(
                    scheme_name="bcc", backend="stub", summary_data=summary
                ),
            )

        result = SweepResult(
            records=[
                record(0, total_time=1.0, recovery_threshold=10.0),
                record(1, total_time=2.0, recovery_threshold=14.0),
                record(2, total_time=3.0),  # metric missing in this trial
            ],
            parameter_names=("scheme.load",),
            trials=3,
        )
        (row,) = result.aggregate()
        assert row["trials"] == 3
        # Full-coverage metrics are unchanged: mean over all trials, no
        # count column.
        assert row["total_time"] == pytest.approx(2.0)
        assert "total_time_count" not in row
        # The partial metric reports the sample actually averaged.
        assert row["recovery_threshold"] == pytest.approx(12.0)
        assert row["recovery_threshold_count"] == 2

    def test_full_coverage_rows_have_no_count_columns(self, base):
        sweep = Sweep(base, parameters={"scheme.load": [2, 4]}, trials=2)
        for row in run_sweep(sweep).aggregate():
            assert not any(key.endswith("_count") for key in row)

    def test_custom_runner_and_extras(self, base):
        def runner(spec: JobSpec) -> RunResult:
            return RunResult(
                scheme_name=str(spec.scheme["name"]),
                backend="stub",
                extras={"payload": spec.scheme["load"]},
            )

        sweep = Sweep(base, parameters={"scheme.load": [2, 4]}, backend=runner)
        records = run_sweep(sweep).records
        assert [record.result.extras["payload"] for record in records] == [2, 4]


class TestSweepValidation:
    def test_bad_mode_rejected(self, base):
        with pytest.raises(ConfigurationError, match="grid"):
            Sweep(base, mode="diagonal")

    def test_bad_executor_rejected(self, base):
        # A serial run (max_workers None, 0 or 1) ignores the executor name
        # but still checks it.
        for max_workers in (None, 0, 1, 2):
            with pytest.raises(ConfigurationError, match="executor"):
                run_sweep(Sweep(base), max_workers=max_workers, executor="gpu")


class TestTrialBatchingModes:
    """The run_sweep cell fast path and its identity guarantees."""

    def _vector_sweep(self, base, schemes, trials=4):
        from repro.api import TimingSimBackend

        return Sweep(
            base,
            parameters={"scheme": schemes},
            trials=trials,
            backend=TimingSimBackend(engine="vectorized"),
        )

    def test_auto_is_identical_to_never(self, base):
        """Auto batches every cell, random placements included: each trial
        of a batched bcc cell re-draws its placement from its own seed."""
        from repro.scheduling import build_sweep_plan

        sweep = self._vector_sweep(
            base,
            [
                {"name": "bcc", "load": 4},
                {"name": "uncoded"},
                {"name": "cyclic-repetition", "load": 2},
            ],
        )
        plan = build_sweep_plan(sweep, backend=sweep.backend, trial_batching="auto")
        assert [task.kind for task in plan.tasks] == ["cell"] * 3
        auto = run_sweep(sweep, trial_batching="auto")
        never = run_sweep(sweep, trial_batching="never")
        assert len(auto.records) == len(never.records)
        for a, b in zip(auto.records, never.records):
            assert (a.cell, a.trial) == (b.cell, b.trial)
            assert a.result.summary() == b.result.summary()

    def test_auto_batches_two_trial_cells_only_when_planning_is_draw_free(self, base):
        from repro.scheduling import build_sweep_plan

        schemes = [{"name": "bcc", "load": 4}, {"name": "uncoded"}]
        expected = {
            ("auto", 2): ["trial", "trial", "cell"],
            ("auto", 3): ["cell", "cell"],
        }
        for (mode, trials), kinds in expected.items():
            sweep = self._vector_sweep(base, schemes, trials=trials)
            plan = build_sweep_plan(sweep, backend=sweep.backend, trial_batching=mode)
            assert [task.kind for task in plan.tasks] == kinds, (mode, trials)
        sweep = self._vector_sweep(base, schemes, trials=2)
        auto = run_sweep(sweep, trial_batching="auto")
        never = run_sweep(sweep, trial_batching="never")
        assert [r.result.summary() for r in auto.records] == [
            r.result.summary() for r in never.records
        ]

    def test_parallel_batched_matches_serial(self, base):
        sweep = self._vector_sweep(
            base, [{"name": "uncoded"}, {"name": "bcc", "load": 4}]
        )
        serial = run_sweep(sweep, trial_batching="auto")
        pooled = run_sweep(
            sweep, max_workers=2, executor="process", trial_batching="auto"
        )
        assert serial.to_table().render() == pooled.to_table().render()

    def test_unknown_mode_rejected(self, base):
        with pytest.raises(ConfigurationError, match="trial_batching"):
            run_sweep(Sweep(base), trial_batching="sometimes")

    def test_loop_engine_keeps_per_trial_tasks(self, base):
        """Trial batching silently stands down for the loop engine."""
        from repro.api import TimingSimBackend

        sweep = Sweep(
            base,
            trials=2,
            backend=TimingSimBackend(engine="loop"),
        )
        batched = run_sweep(sweep, trial_batching="auto")
        plain = run_sweep(sweep, trial_batching="never")
        for a, b in zip(batched.records, plain.records):
            assert a.result.summary() == b.result.summary()


class TestRecordModes:
    def test_summary_record_preserves_tables_and_aggregates(self, base):
        sweep = Sweep(base, parameters={"scheme.load": [2, 4]}, trials=2)
        full = run_sweep(sweep, record="full")
        summary = run_sweep(sweep, record="summary")
        assert full.to_table().render() == summary.to_table().render()
        assert full.aggregate() == summary.aggregate()
        for a, b in zip(full.records, summary.records):
            assert a.result.summary() == b.result.summary()
            assert len(a.result.iterations) == a.result.num_iterations
            assert len(b.result.iterations) == 0
            assert b.result.num_iterations == a.result.num_iterations
            assert b.result.total_time == a.result.total_time

    def test_summary_record_shrinks_pickles(self, base):
        import pickle

        sweep = Sweep(base.replace(num_iterations=200), trials=1)
        full = run_sweep(sweep, record="full")
        compact = run_sweep(sweep, record="summary")
        assert len(pickle.dumps(compact.records[0].result)) < len(
            pickle.dumps(full.records[0].result)
        ) / 10

    def test_summary_record_through_a_process_pool(self, base):
        sweep = Sweep(base, parameters={"scheme.load": [2, 4]}, trials=2)
        serial = run_sweep(sweep)
        pooled = run_sweep(
            sweep, max_workers=2, executor="process", record="summary"
        )
        assert serial.to_table().render() == pooled.to_table().render()

    def test_unknown_record_mode_rejected(self, base):
        with pytest.raises(ConfigurationError, match="record"):
            run_sweep(Sweep(base), record="everything")


class TestPlanningProbe:
    def test_probe_detects_random_planning(self, base):
        from repro.scheduling.core import probe_rng_free_plan

        assert probe_rng_free_plan(base) is None  # bcc draws its placement
        # Cyclic repetition draws its code coefficients during planning, so
        # it must also be detected as random — unlike its deterministic
        # Reed-Solomon sibling.
        random_code = base.replace(scheme={"name": "cyclic-repetition", "load": 2})
        assert probe_rng_free_plan(random_code) is None
        deterministic = base.replace(scheme={"name": "reed-solomon", "load": 2})
        plan = probe_rng_free_plan(deterministic)
        assert plan is not None
        assert plan.scheme_name == "reed-solomon"


class TestAggregationCache:
    """``aggregate()`` caches nothing: a frozen result has nothing to go stale."""

    def test_records_cannot_be_rebound(self, base):
        result = run_sweep(Sweep(base, trials=2))
        with pytest.raises(FrozenInstanceError):
            result.records = ()
        with pytest.raises(TypeError, match="unhashable"):
            hash(result)

    def test_records_reject_item_assignment(self, base):
        result = run_sweep(Sweep(base, trials=2))
        replacement = run_sweep(Sweep(base.replace(seed=123), trials=2)).records[0]
        assert type(result.records) is tuple
        with pytest.raises(TypeError):
            result.records[0] = replacement

    def test_returned_rows_are_copies(self, base):
        result = run_sweep(Sweep(base, trials=2))
        rows = result.aggregate()
        rows[0]["total_time"] = -1.0
        assert result.aggregate()[0]["total_time"] != -1.0

    def test_pickled_result_aggregates_to_the_same_rows(self, base):
        import pickle

        result = run_sweep(Sweep(base, parameters={"scheme.load": [2, 4]}, trials=2))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.aggregate() == result.aggregate()


class TestEngineThreading:
    """The timing-engine knob flows through the sweep layer unchanged."""

    def test_vectorized_backend_instance_matches_loop(self, base):
        from repro.api import TimingSimBackend

        sweep_kwargs = dict(
            parameters={"scheme.load": [2, 4]},
            trials=2,
        )
        loop = run_sweep(Sweep(base, backend=TimingSimBackend(engine="loop"), **sweep_kwargs))
        vectorized = run_sweep(
            Sweep(base, backend=TimingSimBackend(engine="vectorized"), **sweep_kwargs)
        )
        assert loop.to_table().render() == vectorized.to_table().render()
        for a, b in zip(loop.records, vectorized.records):
            assert a.result.summary() == b.result.summary()

    def test_engine_backend_survives_process_pool(self, base):
        from repro.api import TimingSimBackend

        sweep = Sweep(
            base,
            parameters={"scheme.load": [2, 4]},
            trials=2,
            backend=TimingSimBackend(engine="vectorized"),
        )
        serial = run_sweep(sweep)
        forked = run_sweep(sweep, max_workers=2, executor="process")
        assert serial.to_table().render() == forked.to_table().render()

    def test_engine_as_sweep_axis(self, base):
        # Each cell keeps its spawned seed across runs, so reversing the
        # engine axis pits loop against vectorized at identical seeds.
        forward = run_sweep(
            Sweep(
                base,
                parameters={
                    "backend_options": [{"engine": "loop"}, {"engine": "vectorized"}]
                },
            )
        )
        reverse = run_sweep(
            Sweep(
                base,
                parameters={
                    "backend_options": [{"engine": "vectorized"}, {"engine": "loop"}]
                },
            )
        )
        for a, b in zip(forward.records, reverse.records):
            assert a.result.summary() == b.result.summary()
