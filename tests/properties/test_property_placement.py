"""Property-based tests for batching and placement invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.placement import (
    bcc_placement,
    cyclic_placement,
    heterogeneous_random_placement,
    random_subset_placement,
    uncoded_placement,
)
from repro.datasets.batching import contiguous_partition, make_batches


class TestBatchingProperties:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_make_batches_partitions_exactly(self, data):
        m = data.draw(st.integers(min_value=1, max_value=300), label="m")
        r = data.draw(st.integers(min_value=1, max_value=m), label="r")
        spec = make_batches(m, r)
        combined = np.concatenate(spec.batches)
        assert sorted(combined.tolist()) == list(range(m))
        assert spec.num_batches == -(-m // r)
        assert spec.max_batch_size <= r

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_contiguous_partition_sizes_balanced(self, data):
        m = data.draw(st.integers(min_value=1, max_value=300), label="m")
        parts = data.draw(st.integers(min_value=1, max_value=m), label="parts")
        spec = contiguous_partition(m, parts)
        sizes = spec.batch_sizes
        assert sizes.sum() == m
        assert sizes.max() - sizes.min() <= 1


class TestPlacementProperties:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_uncoded_placement_is_a_partition(self, data):
        m = data.draw(st.integers(min_value=1, max_value=200), label="m")
        n = data.draw(st.integers(min_value=1, max_value=m), label="n")
        assignment = uncoded_placement(m, n)
        assert assignment.is_complete()
        assert assignment.total_load == m
        assert assignment.example_multiplicity().max() == 1

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_bcc_placement_each_worker_one_batch(self, data, seed):
        m = data.draw(st.integers(min_value=1, max_value=100), label="m")
        r = data.draw(st.integers(min_value=1, max_value=m), label="r")
        n = data.draw(st.integers(min_value=1, max_value=60), label="n")
        spec = make_batches(m, r)
        assignment, choices = bcc_placement(spec, n, rng=seed)
        assert assignment.num_workers == n
        for worker in range(n):
            chosen = spec.batch_indices(int(choices[worker]))
            np.testing.assert_array_equal(assignment.worker_indices(worker), chosen)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_subset_placement_loads(self, data, seed):
        m = data.draw(st.integers(min_value=1, max_value=100), label="m")
        r = data.draw(st.integers(min_value=1, max_value=m), label="r")
        n = data.draw(st.integers(min_value=1, max_value=30), label="n")
        assignment = random_subset_placement(m, n, r, rng=seed)
        assert np.all(assignment.loads == r)
        # No duplicates within a worker (sampling without replacement).
        for worker in range(n):
            indices = assignment.worker_indices(worker)
            assert len(np.unique(indices)) == r

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_subset_placement_is_the_per_worker_choice_stream(self, data, seed):
        # Small loads take the one-draw array path, the rest the choice loop;
        # both must leave the rows and generator of n choice calls.
        m = data.draw(st.integers(min_value=1, max_value=300), label="m")
        r = data.draw(st.integers(min_value=1, max_value=m), label="r")
        n = data.draw(st.integers(min_value=1, max_value=160), label="n")
        generator = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        assignment = random_subset_placement(m, n, r, rng=generator)
        for worker in range(n):
            want = reference.choice(m, size=r, replace=False)
            np.testing.assert_array_equal(assignment.worker_indices(worker), want)
        assert generator.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_cyclic_placement_equal_replication(self, data):
        m = data.draw(st.integers(min_value=1, max_value=80), label="m")
        r = data.draw(st.integers(min_value=1, max_value=m), label="r")
        assignment = cyclic_placement(m, m, r)
        np.testing.assert_array_equal(assignment.example_multiplicity(), r)
        assert assignment.computational_load == r

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_heterogeneous_placement_respects_loads(self, data, seed):
        m = data.draw(st.integers(min_value=1, max_value=60), label="m")
        n = data.draw(st.integers(min_value=1, max_value=12), label="n")
        loads = [
            data.draw(st.integers(min_value=0, max_value=m), label=f"load{i}")
            for i in range(n)
        ]
        assignment = heterogeneous_random_placement(m, loads, rng=seed)
        assert assignment.loads.tolist() == loads


class TestFeasibilityRule:
    """``can_ever_complete`` answers what feeding every worker would."""

    @staticmethod
    def _fed_every_worker(plan) -> bool:
        aggregator = plan.new_aggregator()
        for worker in range(plan.num_workers):
            if aggregator.receive(worker, None):
                return True
        return aggregator.is_complete()

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        name=st.sampled_from(["bcc", "randomized", "generalized-bcc"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_feeding_every_worker(self, data, name, seed):
        from repro.schemes.bcc import BCCScheme
        from repro.schemes.heterogeneous import GeneralizedBCCScheme
        from repro.schemes.randomized import SimpleRandomizedScheme

        # Small worker pools make infeasible placements common.
        m = data.draw(st.integers(min_value=1, max_value=30), label="m")
        n = data.draw(st.integers(min_value=1, max_value=20), label="n")
        if name == "generalized-bcc":
            loads = data.draw(
                st.lists(st.integers(0, m), min_size=n, max_size=n), label="loads"
            )
            scheme = GeneralizedBCCScheme(loads=loads)
        else:
            load = data.draw(st.integers(min_value=-(-m // n), max_value=m), label="r")
            scheme = (BCCScheme if name == "bcc" else SimpleRandomizedScheme)(load)
        plan = scheme.build_plan(m, n, np.random.default_rng(seed))
        assert plan.can_ever_complete() == self._fed_every_worker(plan)
