"""Tests for the uncoded, simple randomized and registry-constructed schemes."""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.schemes.randomized import SimpleRandomizedScheme
from repro.schemes.registry import available_schemes, scheme_accepts, scheme_from_config
from repro.schemes.uncoded import UncodedScheme
from repro.stragglers.models import ExponentialDelay


class TestUncodedScheme:
    def test_plan_is_disjoint_partition(self):
        plan = UncodedScheme().build_plan(12, 4)
        assert plan.unit_assignment.example_multiplicity().max() == 1
        assert plan.unit_assignment.is_complete()
        np.testing.assert_allclose(plan.message_sizes, 1.0)

    def test_master_waits_for_all_workers(self):
        plan = UncodedScheme().build_plan(12, 4)
        aggregator = plan.new_aggregator()
        for worker in range(3):
            assert not aggregator.receive(worker, None)
        assert aggregator.receive(3, None)

    def test_formulas(self):
        scheme = UncodedScheme()
        assert scheme.expected_recovery_threshold(100, 50) == 50.0
        assert scheme.expected_communication_load(100, 50) == 50.0

    def test_encoder_sums(self, rng):
        plan = UncodedScheme().build_plan(6, 2)
        gradients = rng.standard_normal((3, 2))
        np.testing.assert_allclose(plan.encode(0, gradients), gradients.sum(axis=0))


class TestSimpleRandomizedScheme:
    def test_plan_message_sizes_equal_load(self, rng):
        plan = SimpleRandomizedScheme(load=4).build_plan(10, 6, rng)
        np.testing.assert_allclose(plan.message_sizes, 4.0)
        assert plan.computational_load_units == 4

    def test_identity_encoder(self, rng):
        plan = SimpleRandomizedScheme(load=3).build_plan(10, 4, rng)
        gradients = rng.standard_normal((3, 2))
        np.testing.assert_allclose(plan.encode(0, gradients), gradients)

    def test_master_stops_at_unit_coverage(self, rng):
        scheme = SimpleRandomizedScheme(load=5)
        plan = scheme.build_feasible_plan(10, 30, rng=rng)
        aggregator = plan.new_aggregator()
        covered = np.zeros(10, dtype=bool)
        for worker in range(30):
            complete = aggregator.receive(worker, None)
            covered[plan.worker_units(worker)] = True
            if covered.all():
                assert complete
                break
            assert not complete

    def test_load_validation(self):
        with pytest.raises(ConfigurationError):
            SimpleRandomizedScheme(load=11).build_plan(10, 5)

    def test_formula_hooks(self):
        scheme = SimpleRandomizedScheme(load=5)
        threshold = scheme.expected_recovery_threshold(50, 20)
        load = scheme.expected_communication_load(50, 20)
        assert load == pytest.approx(5 * threshold)


class TestRegistry:
    def test_all_names_constructible(self):
        # The heterogeneous schemes derive their loads from the cluster.
        cluster = ClusterSpec.homogeneous(4, ExponentialDelay(straggling=1.0))
        for name in available_schemes():
            config = {"name": name, "load": 2} if scheme_accepts(name, "load") else name
            scheme = scheme_from_config(config, cluster=cluster)
            assert scheme.name == name

    def test_bcc_and_uncoded_types(self):
        from repro.schemes.bcc import BCCScheme

        assert isinstance(scheme_from_config({"name": "bcc", "load": 3}), BCCScheme)
        assert isinstance(scheme_from_config("uncoded"), UncodedScheme)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            scheme_from_config("mystery-scheme")
