"""Tests for the multi-iteration job simulator (timing-only and semantic)."""

import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.datasets.batching import make_batches
from repro.datasets.synthetic import LogisticDataConfig, make_paper_logistic_data
from repro.exceptions import SimulationError
from repro.gradients.logistic import LogisticLoss
from repro.optim.nesterov import NesterovAcceleratedGradient
from repro.optim.trainer import train
from repro.schemes.bcc import BCCScheme
from repro.schemes.uncoded import UncodedScheme
from repro.simulation.iteration import IterationOutcome
from repro.simulation.job import (
    ColumnarOutcomeLog,
    JobResult,
    RepeatedOutcomeLog,
    simulate_job,
    simulate_training_run,
)
from repro.stragglers.models import DeterministicDelay


class TestSimulateJob:
    def test_iteration_count_and_totals(self, homogeneous_cluster, rng):
        result = simulate_job(
            BCCScheme(load=3), homogeneous_cluster, num_units=12, num_iterations=7, rng=rng
        )
        assert result.num_iterations == 7
        assert result.total_time == pytest.approx(
            sum(outcome.total_time for outcome in result.iterations)
        )
        assert result.total_time >= result.total_computation_time

    def test_accepts_prebuilt_plan(self, homogeneous_cluster, rng):
        plan = UncodedScheme().build_plan(12, 12)
        result = simulate_job(plan, homogeneous_cluster, 12, 3, rng=rng)
        assert result.scheme_name == "uncoded"
        assert result.average_recovery_threshold == 12.0

    def test_summary_keys(self, homogeneous_cluster, rng):
        result = simulate_job(BCCScheme(load=4), homogeneous_cluster, 12, 3, rng=rng)
        summary = result.summary()
        assert set(summary) == {
            "scheme",
            "iterations",
            "recovery_threshold",
            "communication_load",
            "communication_time",
            "computation_time",
            "total_time",
        }

    def test_empty_job_result_raises_on_averages(self):
        with pytest.raises(SimulationError):
            JobResult(scheme_name="x").average_recovery_threshold

    def test_invalid_scheme_type(self, homogeneous_cluster):
        with pytest.raises(SimulationError):
            simulate_job("bcc", homogeneous_cluster, 12, 2, rng=0)

    def test_reproducible_with_same_seed(self, homogeneous_cluster):
        a = simulate_job(BCCScheme(load=3), homogeneous_cluster, 12, 5, rng=42)
        b = simulate_job(BCCScheme(load=3), homogeneous_cluster, 12, 5, rng=42)
        assert a.total_time == pytest.approx(b.total_time)
        assert a.average_recovery_threshold == pytest.approx(b.average_recovery_threshold)

    def test_aggregates_are_computed_once(self, homogeneous_cluster, rng):
        result = simulate_job(BCCScheme(load=3), homogeneous_cluster, 12, 4, rng=rng)
        first = result.total_time
        assert result.total_time is first  # same float object, no recompute
        assert first == pytest.approx(
            sum(outcome.total_time for outcome in result.iterations)
        )
        assert result.average_recovery_threshold == pytest.approx(
            np.mean([outcome.workers_heard for outcome in result.iterations])
        )

    def test_cache_survives_pickle_round_trip(self, homogeneous_cluster, rng):
        result = simulate_job(BCCScheme(load=3), homogeneous_cluster, 12, 4, rng=rng)
        expected = result.summary()  # compute the aggregates before pickling
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.summary() == expected

    def test_fields_cannot_be_rebound(self, homogeneous_cluster, rng):
        result = simulate_job(BCCScheme(load=3), homogeneous_cluster, 12, 4, rng=rng)
        for name, value in (
            ("iterations", list(result.iterations)[:2]),
            ("scheme_name", "x"),
            ("training", None),
        ):
            with pytest.raises(FrozenInstanceError):
                setattr(result, name, value)
        assert result.num_iterations == 4

    @pytest.mark.parametrize("engine", ["loop", "vectorized"])
    def test_results_are_unhashable_on_every_engine(self, homogeneous_cluster, engine):
        result = simulate_job(
            BCCScheme(load=3), homogeneous_cluster, 12, 4, rng=7, engine=engine
        )
        with pytest.raises(TypeError, match="unhashable"):
            hash(result)

    def test_a_list_of_outcomes_is_stored_as_a_tuple(self, homogeneous_cluster, rng):
        outcomes = list(
            simulate_job(BCCScheme(load=3), homogeneous_cluster, 12, 4, rng=rng).iterations
        )
        result = JobResult(scheme_name="bcc", iterations=outcomes)
        assert type(result.iterations) is tuple
        outcomes.pop()
        assert result.num_iterations == 4

    def test_totals_are_left_to_right_sums_on_every_log(self):
        # Python 3.12's sum() compensates: sum([0.1] * 10) is 1.0 there and
        # 0.9999999999999999 before. The totals are the plain left-to-right
        # sum on every interpreter and every kind of log.
        outcome = IterationOutcome(0.1, 0.1, 0.1, 1, 1.0, 1, (0,))
        tenths = np.full(10, 0.1)
        ones = np.ones(10, dtype=int)
        columnar = ColumnarOutcomeLog(
            tenths, tenths, tenths, ones, ones.astype(float), ones,
            np.zeros(10, dtype=np.int32),
        )
        for log in ([outcome] * 10, columnar):
            result = JobResult(scheme_name="x", iterations=log)
            assert result.total_time == 0.9999999999999999
            assert result.total_computation_time == 0.9999999999999999
            assert result.total_communication_time == 0.9999999999999999


@pytest.fixture
def twins(homogeneous_cluster):
    """The same job from the loop engine (a tuple) and the vectorized engine
    (a columnar log)."""
    return tuple(
        simulate_job(BCCScheme(load=3), homogeneous_cluster, 12, 4, rng=7, engine=engine)
        for engine in ("loop", "vectorized")
    )


def _bumped(outcome):
    return IterationOutcome(
        outcome.total_time + 100.0,
        outcome.computation_time,
        outcome.communication_time + 100.0,
        outcome.workers_heard,
        outcome.communication_load,
        outcome.workers_finished_compute,
        outcome.heard_workers,
    )


#: Every list mutation; each must raise on every kind of log.
MUTATIONS = {
    "append": lambda log: log.append(_bumped(log[0])),
    "extend": lambda log: log.extend([_bumped(log[0])]),
    "insert": lambda log: log.insert(1, _bumped(log[0])),
    "remove": lambda log: log.remove(log[2]),
    "pop": lambda log: log.pop(),
    "clear": lambda log: log.clear(),
    "sort": lambda log: log.sort(key=lambda outcome: outcome.total_time),
    "reverse": lambda log: log.reverse(),
    "setitem": lambda log: log.__setitem__(0, _bumped(log[0])),
    "delitem": lambda log: log.__delitem__(slice(1, 3)),
    "iadd": lambda log: log.__iadd__([_bumped(log[0])]),
    "imul": lambda log: log.__imul__(2),
}


class TestColumnarOutcomeLog:
    def test_vectorized_jobs_return_columns(self, twins):
        loop, vectorized = twins
        log = vectorized.iterations
        assert isinstance(log, ColumnarOutcomeLog)
        assert type(loop.iterations) is tuple
        assert log.heard_workers.dtype == np.int32
        assert log.heard_workers.tolist() == [
            worker for outcome in loop.iterations for worker in outcome.heard_workers
        ]
        assert log.workers_heard.tolist() == [
            outcome.workers_heard for outcome in loop.iterations
        ]

    def test_reads_like_the_loop_engine_list(self, twins):
        loop, vectorized = twins
        log, outcomes = vectorized.iterations, list(loop.iterations)
        assert len(log) == 4 and log
        assert list(log) == outcomes
        assert log == outcomes and loop.iterations == log and not log != outcomes
        assert [log[i] for i in range(-4, 4)] == outcomes + outcomes
        assert log[1:3] == outcomes[1:3] and log[::-1] == outcomes[::-1]
        assert list(reversed(log)) == outcomes[::-1]
        assert outcomes[2] in log and _bumped(outcomes[2]) not in log
        assert log.count(outcomes[2]) == 1 and log.index(outcomes[2]) == 2
        with pytest.raises(IndexError):
            log[4]
        with pytest.raises(ValueError):
            log.index(outcomes[0], 1)
        assert vectorized.summary() == loop.summary()

    def test_columns_are_read_only(self, twins):
        with pytest.raises(ValueError):
            twins[1].iterations.total_time[0] = 0.0

    def test_pickles_as_its_arrays(self, twins):
        loop, vectorized = twins
        payload = pickle.dumps(vectorized)
        assert b"IterationOutcome" not in payload
        clone = pickle.loads(payload)
        assert isinstance(clone.iterations, ColumnarOutcomeLog)
        assert clone.iterations == loop.iterations
        assert clone.summary() == loop.summary()

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_every_mutation_raises(self, twins, name):
        loop, _ = twins
        repeated = JobResult("bcc", RepeatedOutcomeLog(loop.iterations[0], 4))
        for result in (*twins, repeated):
            before = (list(result.iterations), result.summary())
            with pytest.raises(AttributeError):
                MUTATIONS[name](result.iterations)
            assert (list(result.iterations), result.summary()) == before


class TestSemanticTrainingRun:
    @pytest.fixture
    def problem(self):
        config = LogisticDataConfig(num_examples=48, num_features=8)
        dataset, _ = make_paper_logistic_data(config, seed=0)
        return LogisticLoss(), dataset

    def test_training_matches_centralised_gd(self, problem):
        # With every scheme recovering the exact gradient, the distributed
        # trajectory must equal the centralised one for the same optimizer.
        model, dataset = problem
        cluster = ClusterSpec.homogeneous(12, DeterministicDelay(0.001))
        unit_spec = make_batches(dataset.num_examples, 4)  # 12 batches
        distributed = simulate_training_run(
            UncodedScheme(),
            cluster,
            model,
            dataset,
            NesterovAcceleratedGradient(0.5),
            num_iterations=15,
            rng=0,
            unit_spec=unit_spec,
        )
        centralised = train(
            model, dataset, NesterovAcceleratedGradient(0.5), num_iterations=15
        )
        np.testing.assert_allclose(
            distributed.training.weights, centralised.weights, atol=1e-8
        )
        np.testing.assert_allclose(
            distributed.training.losses, centralised.losses, atol=1e-8
        )

    def test_bcc_semantic_run_also_matches(self, problem, homogeneous_cluster):
        model, dataset = problem
        unit_spec = make_batches(dataset.num_examples, 4)  # 12 batches
        distributed = simulate_training_run(
            BCCScheme(load=3),
            homogeneous_cluster,
            model,
            dataset,
            NesterovAcceleratedGradient(0.5),
            num_iterations=10,
            rng=1,
            unit_spec=unit_spec,
        )
        centralised = train(
            model, dataset, NesterovAcceleratedGradient(0.5), num_iterations=10
        )
        np.testing.assert_allclose(
            distributed.training.weights, centralised.weights, atol=1e-8
        )

    def test_loss_decreases(self, problem, homogeneous_cluster):
        model, dataset = problem
        unit_spec = make_batches(dataset.num_examples, 4)
        result = simulate_training_run(
            BCCScheme(load=4),
            homogeneous_cluster,
            model,
            dataset,
            NesterovAcceleratedGradient(0.3),
            num_iterations=12,
            rng=2,
            unit_spec=unit_spec,
        )
        assert result.training.losses[-1] < result.training.losses[0]
        assert result.num_iterations == 12

    def test_example_granularity_run(self, problem, homogeneous_cluster):
        model, dataset = problem
        # Units are single examples (no unit_spec); use 12 workers over 48 units.
        result = simulate_training_run(
            UncodedScheme(),
            homogeneous_cluster,
            model,
            dataset,
            NesterovAcceleratedGradient(0.5),
            num_iterations=3,
            rng=3,
        )
        assert result.training.num_iterations == 3
