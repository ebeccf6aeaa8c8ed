"""Tests for the picklable worker tasks."""

import pickle

import numpy as np
import pytest

from repro.datasets.batching import make_batches
from repro.datasets.synthetic import make_linear_regression_data
from repro.exceptions import RuntimeBackendError
from repro.gradients.least_squares import LeastSquaresLoss
from repro.runtime.tasks import WorkerTask, build_worker_tasks
from repro.schemes.bcc import BCCScheme
from repro.schemes.coded import CyclicRepetitionScheme
from repro.schemes.heterogeneous import GeneralizedBCCScheme
from repro.schemes.randomized import SimpleRandomizedScheme
from repro.schemes.uncoded import UncodedScheme
from repro.simulation.execution import worker_message
from repro.stragglers.models import DeterministicDelay


@pytest.fixture
def problem():
    dataset, _ = make_linear_regression_data(24, 4, seed=0)
    return LeastSquaresLoss(), dataset


class TestWorkerTask:
    def test_validation(self, problem):
        model, dataset = problem
        with pytest.raises(RuntimeBackendError):
            WorkerTask(0, model, [dataset.features], [dataset.labels], "mystery")
        with pytest.raises(RuntimeBackendError):
            WorkerTask(0, model, [dataset.features], [dataset.labels], "linear")
        with pytest.raises(RuntimeBackendError):
            WorkerTask(0, model, [dataset.features], [], "sum")

    def test_counts(self, problem):
        model, dataset = problem
        task = WorkerTask(
            0,
            model,
            [dataset.features[:3], dataset.features[3:5]],
            [dataset.labels[:3], dataset.labels[3:5]],
            "sum",
        )
        assert task.num_units == 2
        assert task.num_examples == 5


class TestBuildWorkerTasks:
    @pytest.mark.parametrize(
        "scheme, num_units, num_workers, expected_mode",
        [
            (UncodedScheme(), 24, 6, "sum"),
            (BCCScheme(load=6), 24, 8, "sum"),
            (SimpleRandomizedScheme(load=6), 24, 8, "identity"),
            (CyclicRepetitionScheme(load=3), 24, 24, "linear"),
        ],
        ids=["uncoded", "bcc", "randomized", "cyclic"],
    )
    def test_mode_inference_and_message_equivalence(
        self, problem, scheme, num_units, num_workers, expected_mode, rng
    ):
        model, dataset = problem
        unit_spec = None
        if num_units != dataset.num_examples:
            unit_spec = make_batches(dataset.num_examples, dataset.num_examples // num_units)
        plan = scheme.build_feasible_plan(num_units, num_workers, rng=rng)
        tasks = build_worker_tasks(plan, model, dataset, unit_spec=unit_spec)
        assert len(tasks) == num_workers
        assert all(task.encoding_mode == expected_mode for task in tasks)

        # The task's locally computed message must equal the plan+dataset path.
        weights = rng.standard_normal(dataset.num_features)
        for worker in range(0, num_workers, max(num_workers // 4, 1)):
            expected = worker_message(plan, worker, model, dataset, weights, unit_spec)
            np.testing.assert_allclose(
                tasks[worker].compute_message(weights), expected, atol=1e-10
            )

    @pytest.mark.parametrize(
        "scheme, num_units, num_workers",
        [
            (SimpleRandomizedScheme(load=1), 4, 12),
            (GeneralizedBCCScheme(loads=[1] * 12), 4, 12),
            (SimpleRandomizedScheme(load=2), 4, 12),
            (BCCScheme(load=2), 4, 12),
            (CyclicRepetitionScheme(load=3), 24, 24),
        ],
        ids=["randomized-1", "generalized-bcc-1", "randomized-2", "bcc", "cyclic"],
    )
    def test_task_messages_decode_at_the_master(
        self, problem, scheme, num_units, num_workers, rng
    ):
        # The encoding is the plan's rule's: a worker holding one unit of a
        # per-unit scheme still sends one row per unit, not a summed vector.
        model, dataset = problem
        unit_spec = None
        if num_units != dataset.num_examples:
            unit_spec = make_batches(dataset.num_examples, dataset.num_examples // num_units)
        plan = scheme.build_feasible_plan(num_units, num_workers, rng=rng)
        tasks = build_worker_tasks(plan, model, dataset, unit_spec=unit_spec)
        weights = rng.standard_normal(dataset.num_features)
        aggregator = plan.new_aggregator()
        for task in tasks:
            if aggregator.receive(task.worker_id, task.compute_message(weights)):
                break
        np.testing.assert_allclose(
            aggregator.decode(),
            model.gradient_sum(weights, dataset.features, dataset.labels),
            atol=1e-8,
        )

    def test_tasks_are_picklable(self, problem, rng):
        model, dataset = problem
        plan = BCCScheme(load=6).build_feasible_plan(24, 8, rng=rng)
        tasks = build_worker_tasks(
            plan,
            model,
            dataset,
            straggle_delays=[DeterministicDelay(0.0)] * 8,
            seed=3,
        )
        restored = pickle.loads(pickle.dumps(tasks[0]))
        weights = rng.standard_normal(dataset.num_features)
        np.testing.assert_allclose(
            restored.compute_message(weights), tasks[0].compute_message(weights)
        )

    def test_straggle_delays_length_checked(self, problem, rng):
        model, dataset = problem
        plan = UncodedScheme().build_plan(24, 6)
        with pytest.raises(RuntimeBackendError):
            build_worker_tasks(
                plan, model, dataset, straggle_delays=[DeterministicDelay(0.0)]
            )

    def test_batch_unit_spec_slices_examples(self, problem, rng):
        model, dataset = problem
        unit_spec = make_batches(24, 4)  # 6 batches
        plan = UncodedScheme().build_plan(6, 3)
        tasks = build_worker_tasks(plan, model, dataset, unit_spec=unit_spec)
        assert tasks[0].num_units == 2
        assert tasks[0].num_examples == 8
