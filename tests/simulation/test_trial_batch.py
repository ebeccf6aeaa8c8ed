"""Trial-batched engine: bit-identity with solo runs, across every scheme.

The contract under test is :func:`simulate_job_batch`'s (documented in the
:mod:`repro.simulation.vectorized` module docstring): trial ``t`` builds its
plan from its own ``seeds[t]`` generator, where a solo run would, so

* every trial ``t`` is bit-identical to a solo vectorized run of the
  *scheme* at ``seeds[t]`` — random placements are re-drawn per trial — and
* a passed *plan* is shared: every trial ``t`` is then bit-identical to a
  solo run of that plan at ``seeds[t]``

— for all nine registered schemes, both master-link modes, deterministic and
stochastic communication, stationary and dynamic clusters. Each trial's
generator also ends in its solo run's state. Since the loop==vectorized
equivalence suite already pins the solo engines together, this transitively
ties the batch to the loop engine as well.
"""

import numpy as np
import pytest

from repro.api import JobSpec, TimingSimBackend
from repro.cluster.dynamic import ChurnEvent, DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.schemes.base import ExecutionPlan, Scheme
from repro.schemes.registry import scheme_from_config
from repro.simulation import vectorized
from repro.simulation.job import simulate_job
from repro.simulation.vectorized import simulate_job_batch
from repro.stragglers.communication import (
    LinearCommunicationModel,
    ZeroCommunicationModel,
)
from repro.stragglers.models import ParetoDelay, ShiftedExponentialDelay

NUM_WORKERS = 12
TRIALS = 4
ITERATIONS = 3

#: (scheme config, num_units) for every registered scheme at n=12.
SCHEME_CASES = {
    "uncoded": ({"name": "uncoded"}, 24),
    "bcc": ({"name": "bcc", "load": 6}, 24),
    "randomized": ({"name": "randomized", "load": 8}, 24),
    "ignore-stragglers": ({"name": "ignore-stragglers", "wait_fraction": 0.75}, 24),
    "cyclic-repetition": ({"name": "cyclic-repetition", "load": 3}, NUM_WORKERS),
    "reed-solomon": ({"name": "reed-solomon", "load": 3}, NUM_WORKERS),
    "fractional-repetition": (
        {"name": "fractional-repetition", "load": 3},
        NUM_WORKERS,
    ),
    "generalized-bcc": ({"name": "generalized-bcc"}, 24),
    "load-balanced": ({"name": "load-balanced"}, 24),
}

HETEROGENEOUS = ("generalized-bcc", "load-balanced")


def make_cluster(name: str, communication=None) -> ClusterSpec:
    """A cluster the scheme can plan against (heterogeneous where needed)."""
    if communication is None:
        communication = LinearCommunicationModel(latency=0.01, seconds_per_unit=0.02)
    if name in HETEROGENEOUS:
        rng = np.random.default_rng(3)
        return ClusterSpec.shifted_exponential(
            rng.uniform(0.5, 4.0, NUM_WORKERS),
            rng.uniform(0.1, 0.4, NUM_WORKERS),
            communication=communication,
        )
    return ClusterSpec.homogeneous(
        NUM_WORKERS, ShiftedExponentialDelay(straggling=1.5, shift=0.1), communication
    )


def sign_bits(result):
    """Each outcome's float fields' sign bits: ``==`` takes -0.0 for 0.0."""
    return np.signbit(
        [
            (o.total_time, o.computation_time, o.communication_time, o.communication_load)
            for o in result.iterations
        ]
    ).tolist()


def assert_batch_matches_solo(
    scheme, cluster, num_units, *, serialize, seeds=None, engine="vectorized"
):
    """Assert the documented batch==solo identity for one configuration.

    ``scheme`` (a scheme or a plan) runs solo at every trial's seed on
    ``engine``; each trial's generator must also end in the solo run's
    state.
    """
    if seeds is None:
        seeds = np.random.SeedSequence(42).spawn(TRIALS)
    generators = [np.random.default_rng(seed) for seed in seeds]
    batch = simulate_job_batch(
        scheme,
        cluster,
        num_units,
        ITERATIONS,
        generators,
        serialize_master_link=serialize,
    )
    assert len(batch) == len(seeds)
    for trial, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        solo = simulate_job(
            scheme,
            cluster,
            num_units,
            ITERATIONS,
            rng,
            serialize_master_link=serialize,
            engine=engine,
        )
        assert list(batch[trial].iterations) == list(solo.iterations), (
            f"trial {trial} diverged from its solo run"
        )
        assert sign_bits(batch[trial]) == sign_bits(solo)
        assert batch[trial].summary() == solo.summary()
        assert generators[trial].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("serialize", [True, False], ids=["serialized", "parallel"])
@pytest.mark.parametrize("name", sorted(SCHEME_CASES))
class TestStationaryBitIdentity:
    def test_every_trial_matches_its_solo_run(self, name, serialize):
        config, num_units = SCHEME_CASES[name]
        cluster = make_cluster(name)
        scheme = scheme_from_config(config, cluster=cluster)
        assert_batch_matches_solo(
            scheme, cluster, num_units, serialize=serialize
        )


@pytest.mark.parametrize("serialize", [True, False], ids=["serialized", "parallel"])
@pytest.mark.parametrize("name", sorted(SCHEME_CASES))
class TestDynamicBitIdentity:
    def test_every_trial_matches_its_solo_run(self, name, serialize):
        config, num_units = SCHEME_CASES[name]
        base = make_cluster(name)
        cluster = DynamicClusterSpec(
            base, dynamics={"name": "markov", "slowdown": 4.0, "p_slow": 0.2}
        )
        scheme = scheme_from_config(config, cluster=base)
        assert_batch_matches_solo(
            scheme, cluster, num_units, serialize=serialize
        )


@pytest.mark.parametrize("serialize", [True, False], ids=["serialized", "parallel"])
class TestExactnessHazards:
    def test_every_trial_matches_its_loop_run(self, exactness_hazard, serialize):
        # Arrival ties the completion order ranks larger worker first, and
        # communication loads np.sum adds pairwise (tests/conftest.py).
        for plan, cluster, num_units in exactness_hazard:
            assert_batch_matches_solo(
                plan, cluster, num_units, serialize=serialize, engine="loop"
            )


def with_vacancies(base: ClusterSpec) -> DynamicClusterSpec:
    """``base`` under Markov regimes, with vacant slots in every iteration."""
    return DynamicClusterSpec(
        base,
        dynamics={"name": "markov", "slowdown": 4.0, "p_slow": 0.2},
        events=(
            ChurnEvent("preempt", worker=1, iteration=0, recovery=2),
            ChurnEvent("leave", worker=6, iteration=2),
        ),
        initially_absent=(9,),
    )


class TestDrawSchedules:
    @pytest.mark.parametrize("dynamic", [False, True], ids=["stationary", "churn"])
    def test_stochastic_communication_matches_solo(
        self, stochastic_case, dynamic, block_draws
    ):
        base = stochastic_case.build(NUM_WORKERS)
        cluster = with_vacancies(base) if dynamic else base
        scheme = scheme_from_config({"name": "randomized", "load": 12}, cluster=base)
        for serialize in (True, False):
            assert_batch_matches_solo(
                scheme, cluster, 24, serialize=serialize, engine="loop"
            )
        assert block_draws and set(block_draws) == {stochastic_case.block}

    @pytest.mark.parametrize("dynamic", [False, True], ids=["stationary", "churn"])
    def test_jitter_free_link_matches_loop_and_solo(
        self, jitter_free_case, dynamic, block_draws
    ):
        # BCC at load 9 over 25 units holds batches of 9 and 8 units, so the
        # trials' loads differ and each trial resolves its own compute form.
        # Three batches keep every unit covered through the vacancies.
        base = jitter_free_case.build(NUM_WORKERS)
        cluster = with_vacancies(base) if dynamic else base
        scheme = scheme_from_config({"name": "bcc", "load": 9}, cluster=base)
        seeds = np.random.SeedSequence(42).spawn(TRIALS)
        loads = {
            tuple(
                scheme.build_feasible_plan(
                    25, NUM_WORKERS, np.random.default_rng(seed)
                ).unit_assignment.loads
            )
            for seed in seeds
        }
        assert len(loads) > 1
        for serialize in (True, False):
            for engine in ("loop", "vectorized"):
                assert_batch_matches_solo(
                    scheme, cluster, 25, serialize=serialize, seeds=seeds, engine=engine
                )
        # The exponential families draw one block per trial; nothing else
        # (a deterministic delay draws nothing at all) ever does.
        assert block_draws and set(block_draws) == {jitter_free_case.block}

    def test_zero_communication_matches_solo(self):
        cluster = make_cluster("uncoded", ZeroCommunicationModel())
        scheme = scheme_from_config({"name": "uncoded"}, cluster=cluster)
        assert_batch_matches_solo(scheme, cluster, 24, serialize=True)

    def test_mixed_model_cluster_takes_the_generic_path(self):
        from repro.cluster.spec import WorkerSpec

        models = [
            ShiftedExponentialDelay(1.0, 0.1) if i % 2 else ParetoDelay(2.5, 0.05)
            for i in range(NUM_WORKERS)
        ]
        cluster = ClusterSpec(
            workers=tuple(
                WorkerSpec(compute=model, name=f"worker-{i}")
                for i, model in enumerate(models)
            ),
            communication=LinearCommunicationModel(latency=0.01, seconds_per_unit=0.02),
        )
        scheme = scheme_from_config({"name": "bcc", "load": 6}, cluster=cluster)
        assert_batch_matches_solo(scheme, cluster, 24, serialize=False)

    def test_churn_events_match_solo(self):
        base = make_cluster("cyclic-repetition")
        cluster = DynamicClusterSpec(
            base,
            dynamics={"name": "drift", "final_factor": 2.0},
            events=(ChurnEvent("preempt", worker=1, iteration=1, recovery=1),),
        )
        scheme = scheme_from_config(
            {"name": "cyclic-repetition", "load": 3}, cluster=base
        )
        assert_batch_matches_solo(scheme, cluster, NUM_WORKERS, serialize=True)

    def test_trial_chunking_is_invisible(self, monkeypatch):
        cluster = make_cluster("bcc")
        scheme = scheme_from_config({"name": "bcc", "load": 6}, cluster=cluster)
        seeds = np.random.SeedSequence(5).spawn(7)
        reference = simulate_job_batch(scheme, cluster, 24, ITERATIONS, seeds)
        # Force ~1 trial per chunk: results must not move by a bit.
        monkeypatch.setattr(vectorized, "_BATCH_CELL_BUDGET", 1)
        chunked = simulate_job_batch(scheme, cluster, 24, ITERATIONS, seeds)
        for a, b in zip(reference, chunked):
            assert list(a.iterations) == list(b.iterations)

    def test_empty_seed_list_is_a_configuration_error(self):
        cluster = make_cluster("uncoded")
        scheme = scheme_from_config({"name": "uncoded"}, cluster=cluster)
        with pytest.raises(ConfigurationError, match="at least one trial"):
            simulate_job_batch(scheme, cluster, 24, ITERATIONS, [])


class RandomIdleScheme(Scheme):
    """A test scheme whose placement decides how many workers idle.

    Worker ``i`` holds a cyclic window of units; ``vary="idle"`` leaves the
    first 0-2 workers (drawn per plan) empty, ``vary="load"`` draws every
    window's length from {2, 3} instead. Either way per-trial plans differ
    in shape, which the stacked engine must split or run per trial.
    """

    name = "random-idle"

    def __init__(self, vary: str) -> None:
        self.vary = vary

    def build_plan(self, num_units, num_workers, rng=None):
        from repro.coding.assignment import DataAssignment
        from repro.schemes.base import CoverageRule

        generator = np.random.default_rng(rng)
        if self.vary == "idle":
            lengths = np.full(num_workers, 3)
            lengths[: generator.integers(0, 3)] = 0
        else:
            lengths = generator.integers(2, 4, size=num_workers)
        assignment = DataAssignment(
            num_units,
            tuple(
                (worker + np.arange(length)) % num_units
                for worker, length in enumerate(lengths)
            ),
        )
        return ExecutionPlan(
            scheme_name=self.name,
            num_units=num_units,
            unit_assignment=assignment,
            message_sizes=(lengths > 0).astype(float),
            completion=CoverageRule(num_units),
        )


class TestPerTrialPlans:
    def test_bcc_loads_that_vary_by_placement_match_solo(self, stochastic_case):
        # Load 5 over 24 units: batches of 4 and 5 units, so a worker's load
        # depends on the batch it drew.
        for cluster in (make_cluster("bcc"), stochastic_case.build(NUM_WORKERS)):
            scheme = scheme_from_config({"name": "bcc", "load": 5}, cluster=cluster)
            for serialize in (True, False):
                assert_batch_matches_solo(scheme, cluster, 24, serialize=serialize)

    @pytest.mark.parametrize(
        "config, plans", [({"name": "uncoded"}, 1), ({"name": "bcc", "load": 6}, TRIALS)]
    )
    def test_plans_are_built_per_trial_only_when_placement_draws(
        self, config, plans, monkeypatch
    ):
        cluster = make_cluster("bcc")
        scheme = scheme_from_config(config, cluster=cluster)
        built = []
        build = scheme.build_feasible_plan

        def counting(*args, **kwargs):
            built.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(scheme, "build_feasible_plan", counting)
        simulate_job_batch(scheme, cluster, 24, ITERATIONS, list(range(TRIALS)))
        assert len(built) == plans

    def test_passed_plan_is_shared_by_every_trial(self):
        cluster = make_cluster("bcc")
        plan = scheme_from_config({"name": "bcc", "load": 6}).build_feasible_plan(
            24, NUM_WORKERS, 3
        )
        assert_batch_matches_solo(plan, cluster, 24, serialize=True)

    @pytest.mark.parametrize("vary", ["idle", "load"])
    @pytest.mark.parametrize("serialize", [True, False], ids=["serialized", "parallel"])
    def test_plans_of_different_shapes_match_solo(self, vary, serialize, monkeypatch):
        cluster = make_cluster("randomized")
        seeds = np.random.SeedSequence(8).spawn(9)
        assert_batch_matches_solo(
            RandomIdleScheme(vary), cluster, 12, serialize=serialize, seeds=seeds
        )
        monkeypatch.setattr(vectorized, "_BATCH_CELL_BUDGET", 1)
        assert_batch_matches_solo(
            RandomIdleScheme(vary), cluster, 12, serialize=serialize, seeds=seeds
        )

    def test_stacked_coverage_layouts_match_per_trial_calls(self):
        from repro.simulation.kernels import coverage_completion

        rng = np.random.default_rng(4)
        trials, rows, columns = 3, 5, 6
        positions = np.argsort(rng.random((trials * rows, columns)), axis=1)
        # Each trial splits a permutation of the columns into three items at
        # its own offsets; rows are padded with the sentinel column.
        owners = np.full((trials, 3, 3), columns)
        for t, cuts in enumerate([[0, 2, 3, 6], [0, 1, 4, 6], [0, 3, 5, 6]]):
            holders = rng.permutation(columns)
            for item in range(3):
                group = holders[cuts[item] : cuts[item + 1]]
                owners[t, item, : group.size] = group
        stacked = coverage_completion(positions, owners)
        for t in range(trials):
            block = slice(t * rows, (t + 1) * rows)
            np.testing.assert_array_equal(
                stacked[block], coverage_completion(positions[block], owners[t])
            )


class TestRunBatchBackend:
    def spec(self, engine=None, **overrides):
        cluster = make_cluster("bcc")
        options = {"backend_options": {"engine": engine}} if engine else {}
        options.update(overrides)
        return JobSpec(
            scheme={"name": "bcc", "load": 6},
            cluster=cluster,
            num_units=24,
            num_iterations=ITERATIONS,
            seed=0,
            **options,
        )

    def test_run_batch_matches_solo_runs(self):
        backend = TimingSimBackend(engine="vectorized")
        spec = self.spec()
        seeds = np.random.SeedSequence(9).spawn(3)
        results = backend.run_batch(spec, seeds)
        solo0 = backend.run(spec.replace(seed=seeds[0]))
        assert results[0].summary() == solo0.summary()
        assert all(result.backend == "timing" for result in results)

    def test_run_batch_summary_record_keeps_aggregates(self):
        backend = TimingSimBackend(engine="vectorized")
        seeds = np.random.SeedSequence(9).spawn(3)
        full = backend.run_batch(self.spec(), seeds)
        compact = backend.run_batch(self.spec(), seeds, record="summary")
        for a, b in zip(full, compact):
            assert a.summary() == b.summary()
            assert a.total_time == b.total_time
            assert a.num_iterations == b.num_iterations
            assert len(b.iterations) == 0

    def test_loop_engine_refuses_trial_batching(self):
        backend = TimingSimBackend(engine="loop")
        assert not backend.supports_trial_batching(self.spec())
        with pytest.raises(ConfigurationError, match="vectorized"):
            backend.run_batch(self.spec(), np.random.SeedSequence(0).spawn(2))

    def test_spec_level_engine_override_wins(self):
        backend = TimingSimBackend(engine="vectorized")
        assert not backend.supports_trial_batching(self.spec(engine="loop"))

    def test_unknown_record_mode_rejected(self):
        backend = TimingSimBackend(engine="vectorized")
        with pytest.raises(ConfigurationError, match="record"):
            backend.run_batch(self.spec(), [0, 1], record="everything")

    def test_unknown_backend_option_rejected_like_run(self):
        backend = TimingSimBackend(engine="vectorized")
        spec = self.spec(backend_options={"engine": "vectorized", "warp": 9})
        with pytest.raises(ConfigurationError, match="warp"):
            backend.run(spec)
        with pytest.raises(ConfigurationError, match="warp"):
            backend.run_batch(spec, [0, 1])

    def test_compact_does_not_alias_extras(self):
        backend = TimingSimBackend(engine="vectorized")
        result = backend.run(self.spec())
        result.extras["note"] = "original"
        compact = result.compact()
        result.extras["note"] = "mutated"
        assert compact.extras["note"] == "original"
