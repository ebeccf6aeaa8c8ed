"""Tests for the generalized BCC and load-balanced heterogeneous schemes."""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.schemes.heterogeneous import GeneralizedBCCScheme, LoadBalancedScheme


@pytest.fixture
def cluster():
    return ClusterSpec.paper_fig5_cluster(num_workers=10, num_fast=2, shift=2.0)


class TestGeneralizedBCC:
    def test_requires_exactly_one_source_of_loads(self, cluster):
        with pytest.raises(ConfigurationError):
            GeneralizedBCCScheme()
        with pytest.raises(ConfigurationError):
            GeneralizedBCCScheme(loads=[1, 2], cluster=cluster)

    def test_explicit_loads_respected(self, rng):
        loads = [3, 0, 2, 5]
        scheme = GeneralizedBCCScheme(loads=loads)
        plan = scheme.build_plan(num_units=10, num_workers=4, rng=rng)
        assert plan.unit_assignment.loads.tolist() == loads
        np.testing.assert_allclose(plan.message_sizes, np.array(loads, dtype=float))

    def test_explicit_loads_length_checked(self):
        scheme = GeneralizedBCCScheme(loads=[1, 2, 3])
        with pytest.raises(ConfigurationError):
            scheme.build_plan(num_units=5, num_workers=4)

    def test_negative_loads_rejected(self):
        with pytest.raises(ConfigurationError):
            GeneralizedBCCScheme(loads=[-1, 2])

    @pytest.mark.parametrize("loads", [[2.5, 3.5], [True, True], [[1, 2]]])
    def test_non_integer_or_non_vector_loads_rejected(self, loads):
        # Casting used to keep [2.5, 3.5] as [2, 3].
        with pytest.raises(ConfigurationError, match="1-D integer"):
            GeneralizedBCCScheme(loads=loads)

    def test_fractional_loads_rejected_from_a_job_spec(self):
        from repro.api import JobSpec, run

        spec = JobSpec(
            scheme={"name": "generalized-bcc", "loads": [2.5, 3.5]},
            cluster=ClusterSpec.paper_fig5_cluster(num_workers=2, num_fast=1, shift=2.0),
            num_units=6,
            num_iterations=1,
            seed=0,
        )
        with pytest.raises(ConfigurationError, match="1-D integer"):
            run(spec)

    def test_cluster_derived_loads_favor_fast_workers(self, cluster, rng):
        scheme = GeneralizedBCCScheme(cluster=cluster)
        loads = scheme.resolve_loads(num_units=50, num_workers=10)
        # The last two workers are the fast ones (mu = 20 vs 1).
        assert loads[-1] > loads[0]

    def test_cluster_worker_count_checked(self, cluster):
        scheme = GeneralizedBCCScheme(cluster=cluster)
        with pytest.raises(ConfigurationError):
            scheme.build_plan(num_units=20, num_workers=5)

    def test_plan_feasible_and_stops_at_coverage(self, cluster, rng):
        scheme = GeneralizedBCCScheme(cluster=cluster)
        plan = scheme.build_feasible_plan(30, 10, rng=rng)
        aggregator = plan.new_aggregator()
        covered = np.zeros(30, dtype=bool)
        for worker in range(10):
            complete = aggregator.receive(worker, None)
            covered[plan.worker_units(worker)] = True
            if covered.all():
                assert complete
                break
        assert aggregator.is_complete()

    def test_loads_capped_at_num_units(self, rng):
        scheme = GeneralizedBCCScheme(loads=[100, 100])
        plan = scheme.build_plan(num_units=10, num_workers=2, rng=rng)
        assert plan.unit_assignment.computational_load <= 10

    def test_target_scale_controls_total_load(self, cluster):
        small = GeneralizedBCCScheme(cluster=cluster, target_scale=1.0).resolve_loads(40, 10)
        large = GeneralizedBCCScheme(cluster=cluster, target_scale=4.0).resolve_loads(40, 10)
        assert large.sum() > small.sum()


class TestLoadBalanced:
    def test_requires_exactly_one_source(self, cluster):
        with pytest.raises(ConfigurationError):
            LoadBalancedScheme()
        with pytest.raises(ConfigurationError):
            LoadBalancedScheme(cluster=cluster, loads=[1, 2])

    def test_explicit_loads_must_sum_to_units(self):
        scheme = LoadBalancedScheme(loads=[3, 3])
        with pytest.raises(ConfigurationError):
            scheme.build_plan(num_units=7, num_workers=2)

    def test_fractional_loads_rejected(self):
        # Casting used to keep [2.5, 3.5] as [2, 3], which sums to 5 units.
        with pytest.raises(ConfigurationError, match="1-D integer"):
            LoadBalancedScheme(loads=[2.5, 3.5])

    def test_disjoint_full_coverage(self, cluster, rng):
        scheme = LoadBalancedScheme(cluster=cluster)
        plan = scheme.build_plan(num_units=40, num_workers=10, rng=rng)
        assert plan.unit_assignment.is_complete()
        assert plan.unit_assignment.example_multiplicity().max() == 1
        assert plan.unit_assignment.total_load == 40

    def test_waits_for_all_loaded_workers(self, rng):
        scheme = LoadBalancedScheme(loads=[2, 0, 3])
        plan = scheme.build_plan(num_units=5, num_workers=3, rng=rng)
        aggregator = plan.new_aggregator()
        assert not aggregator.receive(0, None)
        # Worker 1 holds nothing; hearing from it changes nothing.
        assert not aggregator.receive(1, None)
        assert aggregator.receive(2, None)

    def test_proportional_loads_from_cluster(self, cluster, rng):
        scheme = LoadBalancedScheme(cluster=cluster)
        loads = scheme.resolve_loads(num_units=95 + 2 * 20 + 3, num_workers=10)
        assert loads.sum() == 95 + 2 * 20 + 3
        assert loads[-1] > loads[0]
