"""Tests for the placement generators."""

import numpy as np
import pytest

from repro.coding.placement import (
    bcc_placement,
    cyclic_placement,
    group_placement,
    heterogeneous_random_placement,
    random_subset_placement,
    uncoded_placement,
)
from repro.datasets.batching import make_batches
from repro.exceptions import AssignmentError


class TestUncodedPlacement:
    def test_disjoint_full_coverage(self):
        assignment = uncoded_placement(10, 3)
        assert assignment.is_complete()
        assert assignment.total_load == 10
        assert assignment.example_multiplicity().max() == 1

    def test_more_workers_than_examples_rejected(self):
        with pytest.raises(AssignmentError):
            uncoded_placement(2, 3)


class TestBCCPlacement:
    def test_each_worker_gets_exactly_one_batch(self, rng):
        spec = make_batches(20, 5)
        assignment, choices = bcc_placement(spec, 12, rng)
        assert assignment.num_workers == 12
        assert choices.shape == (12,)
        for worker, batch in enumerate(choices):
            np.testing.assert_array_equal(
                assignment.worker_indices(worker), spec.batch_indices(int(batch))
            )

    def test_choices_are_uniform_ish(self):
        spec = make_batches(20, 5)  # 4 batches
        _, choices = bcc_placement(spec, 4000, rng=0)
        counts = np.bincount(choices, minlength=4)
        assert counts.min() > 800  # each batch ~1000 +- noise

    def test_reproducible(self):
        spec = make_batches(12, 3)
        _, first = bcc_placement(spec, 10, rng=7)
        _, second = bcc_placement(spec, 10, rng=7)
        np.testing.assert_array_equal(first, second)


class TestRandomSubsetPlacement:
    def test_each_worker_gets_load_distinct_examples(self, rng):
        assignment = random_subset_placement(20, 8, 5, rng)
        assert all(len(np.unique(idx)) == 5 for idx in assignment.assignments)

    def test_load_cannot_exceed_m(self):
        with pytest.raises(AssignmentError):
            random_subset_placement(4, 2, 5)


class TestCyclicPlacement:
    def test_windows_wrap_around(self):
        assignment = cyclic_placement(5, 5, 3)
        np.testing.assert_array_equal(assignment.worker_indices(0), [0, 1, 2])
        np.testing.assert_array_equal(assignment.worker_indices(4), [0, 1, 4])

    def test_every_item_equally_replicated(self):
        assignment = cyclic_placement(6, 6, 2)
        np.testing.assert_array_equal(assignment.example_multiplicity(), 2)

    def test_load_cannot_exceed_items(self):
        with pytest.raises(AssignmentError):
            cyclic_placement(3, 3, 4)


class TestHeterogeneousPlacement:
    def test_loads_respected_without_replacement(self, rng):
        loads = [3, 0, 5, 1]
        assignment = heterogeneous_random_placement(10, loads, rng)
        assert assignment.loads.tolist() == loads

    def test_with_replacement_deduplicates(self, rng):
        assignment = heterogeneous_random_placement(
            4, [10], rng, with_replacement=True
        )
        # At most 4 distinct examples can remain after deduplication.
        assert assignment.loads[0] <= 4

    def test_load_exceeding_m_without_replacement_rejected(self):
        with pytest.raises(AssignmentError):
            heterogeneous_random_placement(4, [5], with_replacement=False)

    def test_negative_load_rejected(self):
        with pytest.raises(AssignmentError):
            heterogeneous_random_placement(4, [-1])


class TestGroupPlacement:
    def test_groups_replicate_dataset(self):
        assignment = group_placement(num_examples=8, num_groups=3, workers_per_group=4)
        assert assignment.num_workers == 12
        # Each group of 4 consecutive workers covers the whole dataset.
        for group in range(3):
            workers = list(range(group * 4, (group + 1) * 4))
            assert assignment.covers_all(workers)
        np.testing.assert_array_equal(assignment.example_multiplicity(), 3)

    def test_too_many_workers_per_group_rejected(self):
        with pytest.raises(AssignmentError):
            group_placement(num_examples=3, num_groups=2, workers_per_group=4)


class TestPlacementStreams:
    """The array placements draw exactly what a per-worker loop draws."""

    @pytest.mark.parametrize("m, r", [(100, 5), (100, 50), (100, 100), (40, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_subset_matches_per_worker_choice(self, m, r, seed):
        n = 30
        generator = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        assignment = random_subset_placement(m, n, r, generator)
        expected = [reference.choice(m, size=r, replace=False) for _ in range(n)]
        assert assignment.num_workers == n
        for indices, want in zip(assignment.assignments, expected):
            np.testing.assert_array_equal(indices, want)
        assert generator.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_bcc_matches_one_integers_draw(self, seed):
        spec = make_batches(23, 5)
        generator = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        assignment, choices = bcc_placement(spec, 40, generator)
        expected = reference.integers(0, spec.num_batches, size=40)
        np.testing.assert_array_equal(choices, expected)
        for worker, batch in enumerate(expected):
            np.testing.assert_array_equal(
                assignment.worker_indices(worker), spec.batch_indices(int(batch))
            )
        assert generator.bit_generator.state == reference.bit_generator.state


class TestFeasiblePlanAttempts:
    def test_redraws_consume_the_same_draws_as_a_coverage_loop(self):
        from repro.schemes.randomized import SimpleRandomizedScheme

        m = n = 100
        load = 5
        redrawn = 0
        for seed in range(12):
            reference = np.random.default_rng(seed)
            attempts = 0
            while True:
                attempts += 1
                rows = [reference.choice(m, size=load, replace=False) for _ in range(n)]
                if np.unique(np.concatenate(rows)).size == m:
                    break
            calls = []
            scheme = SimpleRandomizedScheme(load)
            build = scheme.build_plan

            def counting(*args, **kwargs):
                calls.append(1)
                return build(*args, **kwargs)

            scheme.build_plan = counting
            generator = np.random.default_rng(seed)
            plan = scheme.build_feasible_plan(m, n, generator)
            assert len(calls) == attempts
            assert generator.bit_generator.state == reference.bit_generator.state
            for indices, want in zip(plan.unit_assignment.assignments, rows):
                np.testing.assert_array_equal(indices, want)
            redrawn += attempts > 1
        # About 40% of these placements miss a unit, so some seeds redraw.
        assert redrawn > 0
