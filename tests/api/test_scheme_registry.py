"""Round-trip tests for the decorator-based scheme registry."""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.schemes import (
    GeneralizedBCCScheme,
    LoadBalancedScheme,
    Scheme,
    available_schemes,
    get_scheme_class,
    register_scheme,
    scheme_accepts,
    scheme_from_config,
)
from repro.schemes.registry import _REGISTRY
from repro.stragglers.models import ExponentialDelay

#: Constructor arguments making every registered scheme buildable on a
#: 12-unit / 12-worker job (the coded schemes need m == n, fractional
#: repetition needs load | n).
SCHEME_CONFIGS = {
    "bcc": {"load": 3},
    "uncoded": {},
    "randomized": {"load": 3},
    "cyclic-repetition": {"load": 3},
    "reed-solomon": {"load": 3},
    "fractional-repetition": {"load": 3},
    "ignore-stragglers": {"wait_fraction": 0.5},
    "generalized-bcc": {},
    "load-balanced": {},
}


@pytest.fixture
def cluster() -> ClusterSpec:
    return ClusterSpec.homogeneous(12, ExponentialDelay(straggling=1.0))


class TestRoundTrip:
    def test_config_table_covers_every_registered_scheme(self):
        assert sorted(SCHEME_CONFIGS) == available_schemes()

    @pytest.mark.parametrize("name", sorted(SCHEME_CONFIGS))
    def test_register_from_config_build_feasible_plan(self, name, cluster, rng):
        """register -> from_config -> build_feasible_plan for every scheme."""
        scheme = scheme_from_config(
            {"name": name, **SCHEME_CONFIGS[name]}, cluster=cluster
        )
        assert isinstance(scheme, get_scheme_class(name))
        assert scheme.name == name
        plan = scheme.build_feasible_plan(12, 12, rng)
        assert plan.scheme_name == name
        assert plan.num_workers == 12
        assert plan.can_ever_complete()

    def test_heterogeneous_schemes_pick_up_the_cluster(self, cluster):
        generalized = scheme_from_config("generalized-bcc", cluster=cluster)
        balanced = scheme_from_config({"name": "load-balanced"}, cluster=cluster)
        assert generalized.cluster is cluster
        assert balanced.cluster is cluster
        assert generalized.resolve_loads(20, 12).sum() >= 20
        assert balanced.resolve_loads(20, 12).sum() == 20

    def test_explicit_loads_suppress_cluster_injection(self, cluster):
        scheme = scheme_from_config(
            {"name": "generalized-bcc", "loads": [2] * 12}, cluster=cluster
        )
        assert scheme.cluster is None
        np.testing.assert_array_equal(scheme.resolve_loads(12, 12), [2] * 12)

    def test_heterogeneous_schemes_build_by_name(self, cluster):
        assert isinstance(
            scheme_from_config("generalized-bcc", cluster=cluster), GeneralizedBCCScheme
        )
        assert isinstance(
            scheme_from_config({"name": "load-balanced", "loads": [1] * 11 + [9]}),
            LoadBalancedScheme,
        )

    def test_homogeneous_schemes_ignore_the_ambient_cluster(self, cluster):
        scheme = scheme_from_config({"name": "bcc", "load": 2}, cluster=cluster)
        assert scheme.load == 2


class TestStrictness:
    def test_inapplicable_kwargs_raise(self):
        with pytest.raises(ConfigurationError, match="does not accept"):
            scheme_from_config({"name": "uncoded", "load": 3})
        with pytest.raises(ConfigurationError, match="does not accept"):
            scheme_from_config({"name": "ignore-stragglers", "load": 3})
        with pytest.raises(ConfigurationError, match="does not accept"):
            scheme_from_config({"name": "bcc", "laod": 3})  # typo'd key

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            scheme_from_config("mystery")

    def test_mismatched_name_key_raises(self):
        from repro.schemes.bcc import BCCScheme

        with pytest.raises(ConfigurationError, match="routed"):
            BCCScheme.from_config({"name": "uncoded", "load": 2})

    def test_instance_passthrough_rejects_overrides(self):
        scheme = scheme_from_config({"name": "bcc", "load": 2})
        assert scheme_from_config(scheme) is scheme
        with pytest.raises(ConfigurationError, match="overrides"):
            scheme_from_config(scheme, load=5)

    def test_scheme_accepts(self):
        assert scheme_accepts("bcc", "load")
        assert not scheme_accepts("uncoded", "load")
        assert scheme_accepts("cyclic-repetition", "check_every")


class TestRegistration:
    def test_conflicting_registration_raises(self):
        @register_scheme("temp-test-scheme")
        class TempScheme(Scheme):
            name = "temp-test-scheme"

            def build_plan(self, num_units, num_workers, rng=None):
                raise NotImplementedError

        try:
            with pytest.raises(ConfigurationError, match="already registered"):

                @register_scheme("temp-test-scheme")
                class Clash(Scheme):
                    name = "temp-test-scheme"

                    def build_plan(self, num_units, num_workers, rng=None):
                        raise NotImplementedError

            # Re-decorating the same class is harmless (module reloads).
            assert register_scheme("temp-test-scheme")(TempScheme) is TempScheme
        finally:
            _REGISTRY.pop("temp-test-scheme", None)
