"""Tests for the declarative JobSpec / Workload front door."""

import numpy as np
import pytest

from repro.api import JobSpec, Workload
from repro.cluster.spec import ClusterSpec
from repro.datasets.batching import make_batches
from repro.exceptions import ConfigurationError
from repro.gradients.logistic import LogisticLoss
from repro.optim.nesterov import NesterovAcceleratedGradient
from repro.schemes.bcc import BCCScheme
from repro.schemes.heterogeneous import GeneralizedBCCScheme
from repro.stragglers.models import ExponentialDelay


@pytest.fixture
def cluster() -> ClusterSpec:
    return ClusterSpec.homogeneous(8, ExponentialDelay(straggling=1.0))


@pytest.fixture
def workload(small_logistic_dataset, logistic_model) -> Workload:
    dataset, _ = small_logistic_dataset
    return Workload(
        model=logistic_model,
        dataset=dataset,
        optimizer=NesterovAcceleratedGradient(0.3),
        unit_spec=make_batches(dataset.num_examples, 10),
    )


class TestValidation:
    def test_rejects_non_positive_iterations(self, cluster):
        with pytest.raises(Exception):
            JobSpec(scheme="bcc", cluster=cluster, num_units=10, num_iterations=0)

    def test_rejects_num_units_conflicting_with_workload(self, cluster, workload):
        with pytest.raises(ConfigurationError, match="conflicts with the workload"):
            JobSpec(scheme="uncoded", cluster=cluster, num_units=99, workload=workload)

    def test_rejects_unit_size_conflicting_with_workload(self, cluster, workload):
        # A silent mismatch here would break the timing==semantic backend
        # equivalence (each backend would simulate different unit sizes).
        with pytest.raises(ConfigurationError, match="unit_size=7 conflicts"):
            JobSpec(scheme="uncoded", cluster=cluster, unit_size=7, workload=workload)

    def test_accepts_matching_num_units(self, cluster, workload):
        spec = JobSpec(
            scheme="uncoded",
            cluster=cluster,
            num_units=workload.num_units,
            workload=workload,
        )
        assert spec.resolved_num_units == workload.num_units


class TestResolution:
    def test_num_units_and_unit_size_derive_from_workload(self, cluster, workload):
        spec = JobSpec(scheme="uncoded", cluster=cluster, workload=workload)
        assert spec.resolved_num_units == workload.unit_spec.num_batches
        assert spec.resolved_unit_size == workload.unit_spec.max_batch_size

    def test_unit_size_defaults_to_one(self, cluster):
        spec = JobSpec(scheme="uncoded", cluster=cluster, num_units=10)
        assert spec.resolved_unit_size == 1

    def test_missing_num_units_raises(self, cluster):
        spec = JobSpec(scheme="uncoded", cluster=cluster)
        with pytest.raises(ConfigurationError, match="num_units"):
            spec.resolved_num_units

    def test_scheme_from_name_config_and_instance(self, cluster):
        by_name = JobSpec(scheme="uncoded", cluster=cluster, num_units=8)
        by_config = JobSpec(
            scheme={"name": "bcc", "load": 2}, cluster=cluster, num_units=8
        )
        instance = BCCScheme(2)
        by_instance = JobSpec(scheme=instance, cluster=cluster, num_units=8)
        assert by_name.resolve_scheme().name == "uncoded"
        assert by_config.resolve_scheme().load == 2
        assert by_instance.resolve_scheme() is instance

    def test_cluster_injected_into_heterogeneous_scheme(self, cluster):
        spec = JobSpec(
            scheme={"name": "generalized-bcc"}, cluster=cluster, num_units=20
        )
        scheme = spec.resolve_scheme()
        assert isinstance(scheme, GeneralizedBCCScheme)
        assert scheme.cluster is cluster

    def test_require_cluster_and_workload(self):
        spec = JobSpec(scheme="uncoded", num_units=4)
        with pytest.raises(ConfigurationError, match="cluster"):
            spec.require_cluster()
        with pytest.raises(ConfigurationError, match="workload"):
            spec.require_workload()


class TestOverrides:
    def test_field_override(self, cluster):
        spec = JobSpec(scheme="uncoded", cluster=cluster, num_units=8)
        updated = spec.with_overrides({"num_iterations": 7, "seed": 3})
        assert updated.num_iterations == 7
        assert updated.seed == 3
        assert spec.num_iterations == 1  # original untouched

    def test_scheme_replacement_then_dotted_update(self, cluster):
        spec = JobSpec(scheme="uncoded", cluster=cluster, num_units=8)
        updated = spec.with_overrides({"scheme": "bcc", "scheme.load": 4})
        assert updated.scheme == {"name": "bcc", "load": 4}
        assert updated.resolve_scheme().load == 4

    def test_dotted_update_on_config_mapping(self, cluster):
        spec = JobSpec(scheme={"name": "bcc", "load": 2}, cluster=cluster, num_units=8)
        assert spec.with_overrides({"scheme.load": 5}).resolve_scheme().load == 5

    def test_dotted_update_on_instance_rejected(self, cluster):
        spec = JobSpec(scheme=BCCScheme(2), cluster=cluster, num_units=8)
        with pytest.raises(ConfigurationError, match="instance"):
            spec.with_overrides({"scheme.load": 5})

    def test_unknown_key_rejected(self, cluster):
        spec = JobSpec(scheme="uncoded", cluster=cluster, num_units=8)
        with pytest.raises(ConfigurationError, match="unknown sweep parameter"):
            spec.with_overrides({"bogus": 1})


class TestSeeding:
    def test_rng_coerces_and_passes_generators_through(self):
        spec = JobSpec(scheme="uncoded", num_units=4, seed=5)
        a, b = spec.rng(), spec.rng()
        assert a.integers(0, 100) == b.integers(0, 100)
        shared = np.random.default_rng(0)
        assert JobSpec(scheme="uncoded", num_units=4, seed=shared).rng() is shared


class TestPlanCarryingSpecs:
    def test_a_spec_carrying_a_plan_is_hashable(self, cluster):
        plan = BCCScheme(load=2).build_feasible_plan(8, 8, rng=0)
        spec = JobSpec(scheme=plan, cluster=cluster, num_units=8)
        assert hash(spec) == hash(spec.replace())
        assert spec == spec.replace()

    def test_separately_built_plans_compare_by_identity(self):
        scheme = BCCScheme(load=2)
        first = scheme.build_feasible_plan(8, 8, rng=0)
        second = scheme.build_feasible_plan(8, 8, rng=0)
        # Same placement, but a plan holds closures: identity decides.
        assert first.unit_assignment == second.unit_assignment
        assert first == first
        assert first != second
